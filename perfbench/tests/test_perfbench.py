"""Tests of the benchmark's own code: span arithmetic, counters, wrapping and failures."""
from __future__ import annotations

import json
import sys
from importlib import import_module
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent.parent / "src"))
sys.path.insert(0, str(HERE.parent))

from tracing import HOOKS, Tracer, layer_metrics, self_times, traced  # noqa: E402
from worker import measure  # noqa: E402
from workloads import CONFIG_SEEDS, WORKLOADS, config_seed, expected_counters  # noqa: E402

from calmkit.bench.config import build_config  # noqa: E402

TINY = {
    "family.num_tasks": "3",
    "family.train_per_task": "40",
    "family.unlabeled_per_task": "40",
    "family.test_per_task": "40",
    "train.pretrain_epochs": "10",
    "train.finetune_epochs": "10",
    "train.accuracy_floor": "0.0",
    "plan.iterations_per_task": "4",
}


def _tracer(spans: list[tuple[str, float, float, int]]) -> Tracer:
    tracer = Tracer()
    for name, start, end, parent in spans:
        idx = tracer.begin(name)
        tracer.end(idx)
        tracer.starts[idx], tracer.ends[idx], tracer.parents[idx] = start, end, parent
    return tracer


class TestSelfTime:
    def test_hand_built_tree(self):
        starts = [0.0, 1.0, 5.0, 6.0, 10.0]
        ends = [10.0, 4.0, 9.0, 7.0, 12.0]
        parents = [-1, 0, 0, 2, -1]
        assert self_times(starts, ends, parents) == [3.0, 3.0, 3.0, 1.0, 2.0]

    def test_child_intervals_are_counted_once_and_clipped(self):
        starts = [0.0, 1.0, 2.0, 8.0]
        ends = [10.0, 3.0, 4.0, 12.0]
        parents = [-1, 0, 0, 0]
        assert self_times(starts, ends, parents)[0] == pytest.approx(10.0 - 3.0 - 2.0)

    def test_layer_metrics_split_inclusive_and_self_time(self):
        tracer = _tracer([
            ("runner.merge", 0.0, 10.0, -1),
            ("calm.sequential_merge", 0.5, 9.5, 0),
            ("calm.optimize_mask", 1.0, 9.0, 1),
            ("calm.objective", 2.0, 4.0, 2),
            ("calm.objective", 5.0, 8.0, 2),
        ])
        metrics = layer_metrics(tracer)
        assert metrics["runner.merge_s"] == 10.0
        assert metrics["calm.optimize_mask_s"] == 8.0
        assert metrics["calm.iter_overhead_s"] == 3.0
        assert metrics["calm.objective_s"] == 5.0
        assert metrics["calm.objective_us_p50"] == 2e6
        assert metrics["calm.objective_us_p95"] == 3e6


class TestCounters:
    def test_default_and_order_formulas(self):
        config = build_config({})
        assert expected_counters(config, merges=1) == {
            "tasks.sgd_steps": 3740, "calm.objective_calls": 200,
            "calm.forward_passes": 3000}
        order = expected_counters(config, merges=56)
        assert order["calm.objective_calls"] == 11200
        assert order["calm.forward_passes"] == 168000

    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_traced_counts_match_formula_and_bytes_match_untraced(self, name, tmp_path):
        workload = WORKLOADS[name]
        prepared = workload.prepare(TINY)
        result = measure(workload, prepared, 0.0, tmp_path, trace=True)
        assert result["errors"] == []
        assert result["failed"] == 0
        for counter, want in workload.expected(prepared).items():
            assert result["layers"][counter] == want
        assert result["layers"]["formats.bytes_written"] > 0


def test_config_seeds_keep_small_seeds_and_fold_large_ones():
    assert [config_seed(s) for s in range(CONFIG_SEEDS)] == list(range(CONFIG_SEEDS))
    assert all(0 <= config_seed(s) < CONFIG_SEEDS for s in (-1, 2**31 - 1, 2**63))


class TestWrapping:
    def test_every_attribute_is_restored(self, tmp_path):
        before = [getattr(import_module(h.module), h.attribute) for h in HOOKS]
        workload = WORKLOADS["staged-wide"]
        measure(workload, workload.prepare(TINY), 0.0, tmp_path, trace=True)
        after = [getattr(import_module(h.module), h.attribute) for h in HOOKS]
        assert all(a is b for a, b in zip(after, before))

    def test_attributes_are_restored_when_the_run_raises(self):
        before = [getattr(import_module(h.module), h.attribute) for h in HOOKS]
        with pytest.raises(KeyError):
            with traced(Tracer()):
                assert getattr(import_module(HOOKS[0].module), HOOKS[0].attribute) is not before[0]
                raise KeyError("boom")
        after = [getattr(import_module(h.module), h.attribute) for h in HOOKS]
        assert all(a is b for a, b in zip(after, before))


class TestFailures:
    def test_floor_miss_is_one_failed_operation(self, tmp_path):
        # (256, 256) at the default lr 0.05: task 0 reaches 0.347 < 0.90
        workload = WORKLOADS["default"]
        prepared = workload.prepare({"train.hidden_dims": "256,256"})
        result = measure(workload, prepared, 0.0, tmp_path, trace=False)
        assert (result["attempted"], result["failed"]) == (1, 1)
        assert "StageError" in result["errors"][0]
        assert "below the floor" in result["errors"][0]


def test_benchmark_json_lists_what_run_reports():
    import run

    bench = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == list(run.PER_LAYER)
