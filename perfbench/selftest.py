"""Self-tests for the benchmark's own arithmetic and checks (no program run).

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
from common import END_TO_END, ROOT  # noqa: E402
from benchmath import (  # noqa: E402
    layer_totals,
    percentile,
    ratio,
    self_times,
)
from layers import PER_LAYER  # noqa: E402
from readings import Readings  # noqa: E402
from tracer import Tracer  # noqa: E402


def _span(span_id, parent, start, end, name="x"):
    return {"id": span_id, "parent": parent, "start": start, "end": end, "name": name}


class PercentileTest(unittest.TestCase):
    def test_p50_needs_ten_samples_beyond(self):
        self.assertIsNone(percentile(list(range(19)), 0.5))
        self.assertEqual(percentile(list(range(20)), 0.5), (9, 20))

    def test_p90_needs_a_hundred_samples(self):
        self.assertIsNone(percentile([float(i) for i in range(99)], 0.9))
        value, n = percentile([float(i) for i in range(100, 0, -1)], 0.9)
        self.assertEqual((value, n), (90.0, 100))

    def test_rejects_out_of_range_quantile(self):
        with self.assertRaises(ValueError):
            percentile([1.0] * 50, 1.0)


class SelfTimeTest(unittest.TestCase):
    def test_nested_children_are_subtracted_once(self):
        spans = [
            _span(0, None, 0.0, 10.0, "run"),
            _span(1, 0, 1.0, 4.0, "a"),
            _span(2, 0, 5.0, 9.0, "b"),
            _span(3, 2, 6.0, 8.0, "a"),
        ]
        self.assertEqual(self_times(spans), [3.0, 3.0, 2.0, 2.0])
        totals = layer_totals(spans)
        self.assertEqual(totals["a"], {"calls": 2.0, "total_s": 5.0, "self_s": 5.0})
        self.assertEqual(totals["run"]["self_s"], 3.0)

    def test_overlapping_children_count_their_union(self):
        spans = [
            _span(0, None, 0.0, 10.0),
            _span(1, 0, 1.0, 5.0),
            _span(2, 0, 3.0, 7.0),
        ]
        self.assertEqual(self_times(spans)[0], 4.0)

    def test_child_outside_parent_is_clipped(self):
        spans = [_span(0, None, 0.0, 2.0), _span(1, 0, 1.0, 3.0)]
        self.assertEqual(self_times(spans)[0], 1.0)


class RatioTest(unittest.TestCase):
    def test_ratio_carries_its_base(self):
        self.assertEqual(ratio(3, 4), {"value": 0.75, "numerator": 3.0, "base": 4.0})

    def test_zero_base_reads_zero_with_the_base_visible(self):
        self.assertEqual(ratio(0, 0), {"value": 0.0, "numerator": 0.0, "base": 0.0})


class OutputCheckTest(unittest.TestCase):
    TABLE = {"audit_grid": {"7": checks.sha256(b"reference")}}

    def test_stored_digest_passes(self):
        digest = checks.sha256(b"reference")
        self.assertEqual(checks.verify("audit_grid", 7, digest, [], self.TABLE), [])

    def test_corrupted_digest_fails(self):
        digest = checks.sha256(b"referencf")
        problems = checks.verify("audit_grid", 7, digest, [], self.TABLE)
        self.assertEqual(len(problems), 1)
        self.assertIn("differs from the stored reference", problems[0])

    def test_unknown_seed_falls_back_to_invariants(self):
        digest = checks.sha256(b"anything")
        self.assertEqual(checks.verify("audit_grid", 8, digest, [], self.TABLE), [])
        self.assertEqual(
            checks.verify("audit_grid", 8, digest, ["broken"], self.TABLE), ["broken"]
        )

    def test_repeat_check_flags_a_changed_count(self):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "counts.json"
            self.assertEqual(checks.repeat_check(path, {"sim.rounds": 2400.0}), [])
            self.assertEqual(checks.repeat_check(path, {"sim.rounds": 2400.0}), [])
            problems = checks.repeat_check(path, {"sim.rounds": 2399.0})
            self.assertEqual(len(problems), 1)
            self.assertIn("non-deterministic", problems[0])


class Toy:
    def outer(self, depth):
        return self.inner(depth) + 1

    def inner(self, depth):
        return depth


class TracerTest(unittest.TestCase):
    TARGETS = (
        (__name__, "Toy.outer", "toy.outer"),
        (__name__, "Toy.inner", "toy.inner"),
    )

    def test_spans_nest_and_wrappers_come_off(self):
        tracer = Tracer()
        original = Toy.__dict__["outer"]
        with tracer.installed(self.TARGETS):
            self.assertEqual(Toy().outer(1), 2)
            self.assertEqual(Toy().inner(5), 5)
        self.assertIs(Toy.__dict__["outer"], original)
        outer, inner, alone = sorted(tracer.spans, key=lambda s: s["id"])
        self.assertEqual(
            (outer["name"], outer["parent"], outer["run"]), ("toy.outer", None, 0)
        )
        self.assertEqual((inner["parent"], inner["run"]), (outer["id"], 0))
        self.assertEqual((alone["parent"], alone["run"]), (None, 1))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "trace.json"
            tracer.dump(path, {"workload": "toy"})
            document = json.loads(path.read_text())
        self.assertEqual(document["workload"], "toy")
        self.assertEqual(len(document["spans"]), 3)


class ReadingsTest(unittest.TestCase):
    TEXT = "\n".join(
        [
            "# HELP repro_x_total x",
            "# TYPE repro_x_total counter",
            'repro_x_total{kind="audit"} 3',
            'repro_x_total{kind="dynamics"} 2',
            'repro_h_seconds_bucket{le="+Inf"} 4',
            "repro_h_seconds_sum 1.5",
            "repro_h_seconds_count 4",
            'repro_l_total{route="/v1/jobs/{id}"} 1',
        ]
    )

    def test_prometheus_totals_and_deltas(self):
        after = Readings.from_prometheus(self.TEXT)
        self.assertEqual(after.total("repro_x_total"), 5.0)
        self.assertEqual(after.total("repro_x_total", kind="audit"), 3.0)
        self.assertEqual(after.total("repro_h_seconds_count"), 4.0)
        self.assertEqual(after.total("repro_h_seconds_bucket"), 0.0)
        self.assertEqual(after.total("repro_l_total", route="/v1/jobs/{id}"), 1.0)
        before = Readings.from_prometheus('repro_x_total{kind="audit"} 1')
        self.assertEqual(after.minus(before).total("repro_x_total"), 4.0)

    def test_snapshot_histograms_flatten_to_sum_and_count(self):
        snapshot = {
            "metrics": {
                "repro_h_seconds": {
                    "type": "histogram",
                    "samples": [{"labels": {"a": "1"}, "sum": 2.0, "count": 3}],
                },
                "repro_c_total": {
                    "type": "counter",
                    "samples": [{"labels": {"cell": "1"}, "value": 1.0},
                                {"labels": {"cell": "2"}, "value": 2.0}],
                },
            }
        }
        readings = Readings.from_snapshot(snapshot)
        self.assertEqual(readings.total("repro_h_seconds_sum", a="1"), 2.0)
        self.assertEqual(readings.total("repro_h_seconds_count"), 3.0)
        self.assertEqual(readings.label_sets("repro_c_total"), 2)


class ContractTest(unittest.TestCase):
    def test_benchmark_json_lists_the_metrics_the_runs_report(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual(
            [(m["name"], m["unit"]) for m in spec["end_to_end"]], list(END_TO_END)
        )
        self.assertEqual(
            [(m["name"], m["unit"]) for m in spec["per_layer"]], list(PER_LAYER)
        )


if __name__ == "__main__":
    unittest.main()
