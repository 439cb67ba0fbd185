"""The experiment-kind registry shared by the CLI and the service."""

from __future__ import annotations

import pytest

from repro.analysis.kinds import KINDS
from repro.analysis.runner import _SCALES, kind_params, main
from repro.service import prepare_job


class _Captured(Exception):
    """Stops a CLI run once its params are built."""


@pytest.mark.parametrize("name", sorted(KINDS))
def test_served_defaults_equal_cli_small_preset(monkeypatch, name):
    kind = KINDS[name]
    built = []

    def capture(params, ctx):
        built.append(params)
        raise _Captured

    monkeypatch.setattr(kind, "run", capture)
    with pytest.raises(_Captured):
        main([kind.experiment, "--scale", "small", "--no-progress"])
    cli = built[0].canonical()
    served = prepare_job(name, {}).params
    if name == "dynamics":
        assert (cli.pop("name"), served.pop("name")) == ("dynamics-small", "dynamics")
    assert cli == served


@pytest.mark.parametrize("scale", sorted(_SCALES))
@pytest.mark.parametrize("name", sorted(KINDS))
def test_every_preset_is_valid(name, scale):
    params = kind_params(KINDS[name], scale)
    assert params.canonical().items() >= _SCALES[scale][params.experiment].items()


@pytest.mark.parametrize(
    "argv, named",
    [
        (["scale", "--agents", "0"], "'agents'"),
        (["dynamics", "--chunk-agents", "0"], "'chunk_agents'"),
        (["scale", "--chunk-agents", "-1"], "'chunk_agents'"),
        (["table2", "--inject-faults", '{"version": 1}'], "fault-plan"),
    ],
)
def test_bad_flag_value_is_a_usage_error(capsys, argv, named):
    with pytest.raises(SystemExit) as excinfo:
        main([*argv, "--scale", "small", "--no-progress", "--workers", "1"])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    errors = [line for line in err.splitlines() if "error:" in line]
    assert len(errors) == 1 and named in errors[0]
