"""Self-tests of the benchmark's own logic; no cell-run, a few seconds.

    python3 bench/selftest.py
"""

from __future__ import annotations

import json
import math
import sys
import types
import unittest
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from cells import (  # noqa: E402
    POOL, WORKLOADS, Cell, canonical_record, check_reference, check_repeat,
    load_references, master_seed, record_problems, reference_config,
    reference_entry,
)
from spans import (  # noqa: E402
    Span, Tracer, cell_layers, self_time_table, self_times, split_cells,
    tie_pairs,
)
from suite import compare, summarize  # noqa: E402


def _record_text(**fields) -> str:
    record = {
        "balanced_accuracy": 0.8, "reconstruction_error": 0.5,
        "fold_accuracies": [0.8, 0.8], "fold_errors": [0.5, 0.5],
        "wall_time": 12.5,
    }
    record.update(fields)
    return ('{"format": "gpdr-run-record", "version": 1}\n'
            + json.dumps(record, sort_keys=True) + "\n")


def _cell(text: str) -> Cell:
    record = json.loads(text.splitlines()[1])
    return Cell(master_seed=1, wall_s=1.0, cpu_s=1.0, record_name="r.jsonl",
                record=record, canonical=canonical_record(text),
                problems=tuple(record_problems(record)))


class SelfTimeTest(unittest.TestCase):
    def spans(self):
        # root [0,10] > a [1,4] > a [2,3] (recursion) ; root > b [5,9]
        return [
            Span("experiment", 0.0, 10.0, -1, 0),
            Span("a", 1.0, 4.0, 0, 0),
            Span("a", 2.0, 3.0, 1, 0),
            Span("b", 5.0, 9.0, 0, 0),
        ]

    def test_self_time_is_duration_minus_direct_children(self):
        self.assertEqual(self_times(self.spans()), [3.0, 2.0, 1.0, 4.0])

    def test_self_times_add_up_to_root(self):
        table = self_time_table(self.spans())
        self.assertEqual(table, {"experiment": 3.0, "a": 3.0, "b": 4.0})
        self.assertEqual(sum(table.values()), 10.0)

    def test_layer_totals_count_recursion_once(self):
        spans = [
            Span("experiment", 0.0, 10.0, -1, 0),
            Span("fitness.score", 1.0, 4.0, 0, 0),
            Span("gp_core.encode", 1.5, 3.5, 1, 0),
            Span("fitness.score", 2.0, 3.0, 2, 0),
        ]
        counts = Counter({"fitness.score.calls": 2,
                          "fitness.worst_scores": 1})
        m = cell_layers(spans, counts)
        self.assertEqual(m["fitness.score_s"], 3.0)
        self.assertEqual(m["fitness.score_self_s"], 1.0 + 1.0)
        self.assertEqual(m["gp_core.encode_s"], 2.0)
        self.assertEqual(m["fitness.worst_share"], 0.5)
        self.assertEqual(m["experiment.self_s"], 7.0)

    def test_rescore_and_distinct_ratio(self):
        spans = [
            Span("experiment", 0.0, 10.0, -1, 0),
            Span("evolution.evolve", 0.0, 8.0, 0, 0),
            Span("variation.next_generation", 1.0, 2.0, 1, 0),
            Span("variation.next_generation", 3.0, 4.0, 1, 0),
            Span("gp_core.encode", 4.0, 4.5, 1, 0),
            Span("gp_core.encode", 4.5, 5.0, 1, 0),
            Span("fitness.sammon_full", 5.0, 6.0, 1, 0),
        ]
        m = cell_layers(spans, Counter())
        self.assertEqual(m["evolution.rescore_s"], 4.0)
        self.assertEqual(m["evolution.candidates"], 2)
        self.assertEqual(m["evolution.distinct_ratio"], 0.5)

    def test_split_cells_rebases_parents(self):
        spans = [
            Span("experiment", 0.0, 1.0, -1, 0),
            Span("experiment", 2.0, 5.0, -1, 1),
            Span("b", 3.0, 4.0, 1, 1),
        ]
        groups = split_cells(spans)
        self.assertEqual([s.parent for s in groups[1]], [-1, 0])
        self.assertEqual(self_times(groups[1]), [2.0, 1.0])

    def test_tie_pairs_counts_adjacent_equal_distances(self):
        import numpy as np

        # point 0 is equidistant from 1 and 2; 1 and 2 coincide
        D = np.array([[0.0, 1.0, 1.0], [1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        self.assertEqual(tie_pairs(D), 1)


class TracerTest(unittest.TestCase):
    def setUp(self):
        lib = types.ModuleType("fake_lib")
        lib.leaf = lambda x: x + 1
        caller = types.ModuleType("fake_caller")
        caller.leaf = lib.leaf
        caller.outer = lambda x: caller.leaf(x) * 2
        sys.modules.update(fake_lib=lib, fake_caller=caller)
        self.caller = caller

    def tearDown(self):
        for name in ("fake_lib", "fake_caller"):
            sys.modules.pop(name, None)

    def test_wraps_present_names_and_reports_absent_ones(self):
        original = self.caller.leaf
        sites = (("fake_caller", "outer", "x.outer", None),
                 ("fake_caller", "leaf", "x.leaf", None),
                 ("fake_caller", "deleted", "x.deleted", None),
                 ("fake_missing_module", "f", "x.f", None))
        tracer = Tracer(sites)
        tracer.cell = 0
        with tracer:
            self.assertEqual(self.caller.outer(1), 4)
        self.assertIs(self.caller.leaf, original)
        self.assertEqual(tracer.untraced,
                         ["fake_caller.deleted", "fake_missing_module.f"])
        self.assertEqual([s.name for s in tracer.spans],
                         ["x.outer", "x.leaf"])
        self.assertEqual(tracer.spans[1].parent, 0)
        self.assertEqual(tracer.counts[0]["x.leaf.calls"], 1)

    def test_counter_that_no_longer_fits_is_reported_not_raised(self):
        def counter(fn, counts, args, kwargs, result):
            counts["x.rows"] += len(kwargs["renamed"])

        tracer = Tracer((("fake_caller", "leaf", "x.leaf", counter),))
        tracer.cell = 0
        with tracer:
            self.assertEqual(self.caller.leaf(1), 2)
        self.assertEqual(tracer.untraced, ["x.leaf counts"])
        self.assertEqual(tracer.counts[0]["x.leaf.calls"], 1)

    def test_restores_names_when_the_call_raises(self):
        self.caller.leaf = lambda x: 1 / 0
        broken = self.caller.leaf
        with self.assertRaises(ZeroDivisionError):
            with Tracer((("fake_caller", "leaf", "x.leaf", None),)):
                self.caller.leaf(1)
        self.assertIs(self.caller.leaf, broken)


class GateTest(unittest.TestCase):
    def test_good_record_passes(self):
        self.assertFalse(_cell(_record_text()).failed)

    def test_error_record_fails(self):
        text = ('{"format": "gpdr-run-record", "version": 1}\n'
                '{"error": "ValueError: boom", "k": 2, "method": "amt_gp"}\n')
        self.assertTrue(_cell(text).failed)

    def test_non_finite_metric_fails(self):
        self.assertTrue(_cell(_record_text(reconstruction_error=math.nan))
                        .failed)
        self.assertTrue(_cell(_record_text(fold_errors=[0.5, math.inf]))
                        .failed)

    def test_repeat_differing_only_in_wall_time_passes(self):
        first = _cell(_record_text())
        again = _cell(_record_text(wall_time=99.0))
        check_repeat(first, again)
        self.assertFalse(again.failed)

    def test_mismatched_repeat_fails(self):
        first = _cell(_record_text())
        again = _cell(_record_text(balanced_accuracy=0.8000000000000002))
        check_repeat(first, again)
        self.assertTrue(again.failed)
        self.assertFalse(first.failed)

    def reference_store(self, cell):
        workload = WORKLOADS["amt_k2"]
        return workload, {"config": reference_config(workload),
                          "records": {"1": reference_entry(cell)}}

    def test_record_equal_to_its_reference_passes(self):
        workload, store = self.reference_store(_cell(_record_text()))
        cell = _cell(_record_text(wall_time=99.0))
        check_reference(workload, cell, store)
        self.assertFalse(cell.failed)

    def test_record_differing_from_its_reference_fails(self):
        workload, store = self.reference_store(_cell(_record_text()))
        cell = _cell(_record_text(reconstruction_error=0.5000000000000001))
        check_reference(workload, cell, store)
        self.assertTrue(cell.failed)
        self.assertIn("reconstruction_error", cell.problems[0])

    def test_master_seed_without_reference_fails(self):
        workload, store = self.reference_store(_cell(_record_text()))
        cell = _cell(_record_text())
        cell.master_seed = 2
        check_reference(workload, cell, store)
        self.assertTrue(cell.failed)

    def test_every_seed_draws_master_seeds_with_a_reference(self):
        self.assertEqual(master_seed(0, 0), 1)
        drawn = {master_seed(s, j) for s in (0, 7, 10**12, -3)
                 for j in range(2 * POOL)}
        self.assertEqual(drawn, set(range(1, POOL + 1)))
        for workload in WORKLOADS.values():
            store = load_references(workload)
            self.assertEqual(store["config"], reference_config(workload))
            self.assertEqual(set(store["records"]),
                             {str(m) for m in drawn})

    def test_missing_or_stale_reference_store_fails(self):
        workload, store = self.reference_store(_cell(_record_text()))
        store["config"]["population"] += 1
        for bad in (None, store):
            cell = _cell(_record_text())
            check_reference(workload, cell, bad)
            self.assertTrue(cell.failed)

    def test_failed_share_counts_against_attempted(self):
        cells = [_cell(_record_text()), _cell(_record_text(
            balanced_accuracy=math.inf))]
        run = {"workload": "w", "result": {
            "attempted": len(cells), "failed": sum(c.failed for c in cells),
            "metrics": {}}}
        s = summarize([run])["w"]
        self.assertEqual((s["attempted"], s["failed"]), (2, 1))


BENCH = {"end_to_end": [
    {"name": "cell_s", "unit": "s", "better": "lower", "bound": 0.1},
    {"name": "acc", "unit": "ratio", "better": "higher", "bound": 0.05},
]}


def _runs(cell_values, acc_values, failed=0):
    return [
        {"workload": "w", "result": {
            "attempted": 4, "failed": failed if i == 0 else 0,
            "metrics": {"cell_s": {"value": c, "unit": "s"},
                        "acc": {"value": a, "unit": "ratio"}}}}
        for i, (c, a) in enumerate(zip(cell_values, acc_values))
    ]


class CompareTest(unittest.TestCase):
    def verdicts(self, base, new):
        rows = compare(summarize(base), summarize(new), BENCH)
        return {r["metric"]: r["verdict"] for r in rows}

    def test_within_bound_is_ok(self):
        base = _runs([10, 10.1, 9.9, 10], [0.8] * 4)
        new = _runs([10.5, 10.6, 10.4, 10.5], [0.79] * 4)
        self.assertEqual(self.verdicts(base, new),
                         {"cell_s": "ok", "acc": "ok"})

    def test_worse_than_bound_regresses_in_the_metrics_direction(self):
        base = _runs([10, 10.1, 9.9, 10], [0.8] * 4)
        new = _runs([9, 9, 9, 9], [0.7] * 4)
        self.assertEqual(self.verdicts(base, new),
                         {"cell_s": "ok", "acc": "regressed"})

    def test_wide_base_spread_is_unresolved(self):
        base = _runs([5, 10, 15, 20], [0.8] * 4)
        new = _runs([12, 12, 12, 12], [0.8] * 4)
        self.assertEqual(self.verdicts(base, new)["cell_s"], "unresolved")
        faster = _runs([4, 4, 4, 4], [0.8] * 4)
        self.assertEqual(self.verdicts(base, faster)["cell_s"], "ok")

    def test_more_failures_fail(self):
        base = _runs([10] * 4, [0.8] * 4)
        new = _runs([10] * 4, [0.8] * 4, failed=1)
        self.assertEqual(set(self.verdicts(base, new).values()), {"failed"})


if __name__ == "__main__":
    unittest.main()
