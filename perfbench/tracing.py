"""Passive spans around calmkit's public functions, and the per-layer metrics they give.

A traced run replaces module attributes with wrappers for the length of the
run. Modules import names directly (``from .nn import loss_and_grad``), so each
function is wrapped in the namespace where its caller looks the name up, not
where it is defined. Every wrapper records one span (name, start, end,
parent) in memory and may bump work counters from the call's arguments or
result; nothing else about the call changes. ``traced`` puts every original
object back when the run ends, even when the run raises.
"""
from __future__ import annotations

import functools
import math
import os
from array import array
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from importlib import import_module
from time import perf_counter
from typing import Callable


class Tracer:
    """Spans of one run, kept in flat arrays until the run ends."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_ids = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("i")
        self.counters: Counter = Counter()
        self._stack: list[int] = []

    def begin(self, name: str) -> int:
        name_id = self._ids.get(name)
        if name_id is None:
            name_id = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.starts)
        self.name_ids.append(name_id)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(math.nan)
        self._stack.append(idx)
        self.starts.append(perf_counter())
        return idx

    def end(self, idx: int):
        self.ends[idx] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self.begin(name)
        try:
            yield
        finally:
            self.end(idx)

    def __len__(self) -> int:
        return len(self.starts)

    def span_name(self, idx: int) -> str:
        return self.names[self.name_ids[idx]]

    def write_csv(self, path) -> None:
        """One line per span: name, start and end in seconds, parent index (-1 for a root)."""
        with open(path, "w") as fh:
            fh.write("index,name,start_s,end_s,parent\n")
            for i in range(len(self)):
                fh.write(f"{i},{self.span_name(i)},{self.starts[i]!r},{self.ends[i]!r},"
                         f"{self.parents[i]}\n")


def self_times(starts, ends, parents) -> list[float]:
    """Each span's duration minus the part of its interval that its child spans cover."""
    children: dict[int, list[int]] = defaultdict(list)
    for idx, parent in enumerate(parents):
        if parent >= 0:
            children[parent].append(idx)
    out = []
    for idx in range(len(starts)):
        lo, hi = starts[idx], ends[idx]
        covered = 0.0
        cursor = lo
        for a, b in sorted((starts[c], ends[c]) for c in children.get(idx, ())):
            a, b = max(a, cursor), min(b, hi)
            if b > a:
                covered += b - a
                cursor = b
        out.append((hi - lo) - covered)
    return out


# ---- work counters, computed from a wrapped call's arguments and result ----

def _arg(args, kwargs, position: int, name: str):
    return args[position] if len(args) > position else kwargs[name]


def _matmul_flops(spec) -> tuple[int, int]:
    """Flops per row of one forward pass and of one backward pass through `spec`.

    Forward: one (fan_in x fan_out) product per layer. Backward: the weight
    gradient of every layer plus the input gradient of every layer but the
    first. Two flops per multiply-add. Bias and activation work is left out.
    """
    macs = [fi * fo for fi, fo in spec.layer_dims]
    return 2 * sum(macs), 2 * sum(macs) + 2 * sum(macs[1:])


def _count_loss_and_grad(counters, args, kwargs, result):
    spec, batch = _arg(args, kwargs, 0, "spec"), _arg(args, kwargs, 2, "batch")
    fwd, bwd = _matmul_flops(spec)
    counters["nn.flops"] += len(batch) * (fwd + bwd)


def _count_forward(counters, args, kwargs, result):
    spec, inputs = _arg(args, kwargs, 0, "spec"), _arg(args, kwargs, 2, "inputs")
    counters["nn.forward_calls"] += 1
    counters["nn.flops"] += len(inputs) * _matmul_flops(spec)[0]


def _count_sgd_step(counters, args, kwargs, result):
    counters["tasks.sgd_steps"] += 1


def _count_objective(counters, args, kwargs, result):
    state = _arg(args, kwargs, 2, "state")
    batches = _arg(args, kwargs, 5, "task_batches")
    counters["calm.objective_calls"] += 1
    counters["calm.forward_passes"] += sum(len(batches[t]) for t in state.visible_tasks)


def _count_pool(counters, args, kwargs, result):
    counters["sampling.pool_rows"] += len(result)


def _count_selected(counters, args, kwargs, result):
    counters["sampling.selected_rows"] += len(result)


def _count_written(counters, args, kwargs, result):
    counters["formats.bytes_written"] += os.path.getsize(_arg(args, kwargs, 0, "path"))


def _count_read(counters, args, kwargs, result):
    counters["formats.bytes_read"] += os.path.getsize(_arg(args, kwargs, 0, "path"))


@dataclass(frozen=True)
class Hook:
    """One wrapped attribute: `module.attribute` records spans named `span`."""

    module: str
    attribute: str
    span: str
    count: Callable | None = None


_RUNNER = "calmkit.bench.runner"
_CLI = "calmkit.bench.cli"
_STAGES = ("generate", "pretrain", "finetune", "sample", "merge", "evaluate")

HOOKS: tuple[Hook, ...] = (
    # bench.runner: the pipeline stages, called from runner and from the CLI
    *(Hook(ns, f"stage_{stage}", f"runner.{stage}") for ns in (_RUNNER, _CLI)
      for stage in _STAGES),
    # tasks and nn: data, the training loops, and the model kernels they call
    Hook(_RUNNER, "generate_family", "tasks.generate_family"),
    Hook("calmkit.tasks", "pretrain", "tasks.pretrain"),
    Hook("calmkit.tasks", "finetune", "tasks.finetune"),
    Hook("calmkit.tasks", "loss_and_grad", "nn.loss_and_grad", _count_loss_and_grad),
    Hook("calmkit.tasks", "sgd_step", "nn.sgd_step", _count_sgd_step),
    Hook("calmkit.tasks", "forward", "nn.forward", _count_forward),
    Hook("calmkit.sampling", "forward", "nn.forward", _count_forward),
    # calm: the sequential merge and its mask optimiser
    Hook(_RUNNER, "sequential_merge", "calm.sequential_merge"),
    Hook("calmkit.calm", "optimize_mask", "calm.optimize_mask"),
    Hook("calmkit.calm", "consensus_objective", "calm.objective", _count_objective),
    Hook("calmkit.calm", "masked_merge", "calm.masked_merge"),
    # sampling
    Hook(_RUNNER, "score_pool", "sampling.score_pool", _count_pool),
    Hook(_RUNNER, "select_cb_ems", "sampling.select", _count_selected),
    Hook(_RUNNER, "select_ems", "sampling.select", _count_selected),
    Hook(_RUNNER, "audit_accuracy", "sampling.audit_accuracy"),
    # baselines
    Hook(_RUNNER, "task_vector", "baselines.task_vector"),
    Hook("calmkit.calm", "task_vector", "baselines.task_vector"),
    Hook(_RUNNER, "weight_average", "baselines.weight_average"),
    Hook(_RUNNER, "task_arithmetic", "baselines.task_arithmetic"),
    Hook(_RUNNER, "ties_merge", "baselines.ties_merge"),
    # bench.formats
    *(Hook(_RUNNER, f"save_{kind}", f"formats.save_{kind}", _count_written)
      for kind in ("tasks", "checkpoint", "credible_sets")),
    *(Hook(_RUNNER, f"load_{kind}", f"formats.load_{kind}", _count_read)
      for kind in ("tasks", "checkpoint", "credible_sets")),
    *(Hook(_CLI, f"load_{kind}", f"formats.load_{kind}", _count_read)
      for kind in ("tasks", "checkpoint")),
    # bench.reports
    Hook(_RUNNER, "evaluate", "reports.evaluate"),
    Hook(_RUNNER, "write_report", "reports.write_report"),
    # bench.config, as the CLI resolves it
    Hook(_CLI, "resolve_config", "config.resolve"),
)


def _wrap(tracer: Tracer, fn, span: str, count):
    @functools.wraps(fn)
    def traced_call(*args, **kwargs):
        idx = tracer.begin(span)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end(idx)
        if count is not None:
            count(tracer.counters, args, kwargs, result)
        return result

    return traced_call


@contextmanager
def traced(tracer: Tracer, hooks=HOOKS):
    """Install a wrapper for every hook; restore every original attribute on exit."""
    originals = []
    try:
        for hook in hooks:
            module = import_module(hook.module)
            original = getattr(module, hook.attribute)
            originals.append((module, hook.attribute, original))
            setattr(module, hook.attribute, _wrap(tracer, original, hook.span, hook.count))
        yield tracer
    finally:
        for module, attribute, original in reversed(originals):
            setattr(module, attribute, original)


# ---- per-layer metrics ----

def _percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    if not sorted_values:
        return 0.0
    rank = max(1, math.ceil(q / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


# name, unit; the order is the order of the printed table
LAYER_METRICS: tuple[tuple[str, str], ...] = (
    ("runner.generate_s", "s"),
    ("runner.pretrain_s", "s"),
    ("runner.finetune_s", "s"),
    ("runner.sample_s", "s"),
    ("runner.merge_s", "s"),
    ("runner.evaluate_s", "s"),
    ("tasks.sgd_steps", "count"),
    ("tasks.loop_overhead_s", "s"),
    ("nn.loss_and_grad_s", "s"),
    ("nn.loss_and_grad_us_p50", "us"),
    ("nn.loss_and_grad_us_p95", "us"),
    ("nn.sgd_step_s", "s"),
    ("nn.forward_calls", "count"),
    ("nn.forward_s", "s"),
    ("nn.gflops", "GFLOP/s"),
    ("calm.objective_calls", "count"),
    ("calm.forward_passes", "count"),
    ("calm.objective_s", "s"),
    ("calm.objective_us_p50", "us"),
    ("calm.objective_us_p95", "us"),
    ("calm.optimize_mask_s", "s"),
    ("calm.iter_overhead_s", "s"),
    ("calm.masked_merge_s", "s"),
    ("sampling.score_pool_s", "s"),
    ("sampling.select_s", "s"),
    ("sampling.selected_frac", "ratio"),
    ("baselines.task_vector_s", "s"),
    ("baselines.merge_s", "s"),
    ("formats.save_s", "s"),
    ("formats.load_s", "s"),
    ("formats.bytes_written", "bytes"),
    ("formats.bytes_read", "bytes"),
    ("reports.evaluate_s", "s"),
    ("reports.write_s", "s"),
    ("config.resolve_s", "s"),
)

# exact work counters: equal on every run of one commit
COUNTERS = ("tasks.sgd_steps", "nn.forward_calls", "calm.objective_calls",
            "calm.forward_passes", "formats.bytes_written", "formats.bytes_read")


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced repetition.

    A `_s` metric is self time: the layer's spans minus their child spans.
    The runner stage times and `calm.optimize_mask_s` are whole span
    durations instead, so that they can be set against the workload's wall
    time; their own self parts are `calm.iter_overhead_s` and, for training,
    `tasks.loop_overhead_s`.
    """
    own = self_times(tracer.starts, tracer.ends, tracer.parents)
    busy: dict[str, float] = defaultdict(float)
    total: dict[str, float] = defaultdict(float)
    calls: dict[str, list[float]] = defaultdict(list)
    for idx in range(len(tracer)):
        name = tracer.span_name(idx)
        busy[name] += own[idx]
        duration = tracer.ends[idx] - tracer.starts[idx]
        total[name] += duration
        calls[name].append(duration)
    counters = tracer.counters

    def per_call_us(name: str, q: float) -> float:
        return 1e6 * _percentile(sorted(calls[name]), q)

    nn_busy = busy["nn.loss_and_grad"] + busy["nn.forward"]
    pool = counters["sampling.pool_rows"]
    out = {f"runner.{stage}_s": total[f"runner.{stage}"] for stage in _STAGES}
    out.update({
        "tasks.loop_overhead_s": busy["tasks.pretrain"] + busy["tasks.finetune"],
        "nn.loss_and_grad_s": busy["nn.loss_and_grad"],
        "nn.loss_and_grad_us_p50": per_call_us("nn.loss_and_grad", 50),
        "nn.loss_and_grad_us_p95": per_call_us("nn.loss_and_grad", 95),
        "nn.sgd_step_s": busy["nn.sgd_step"],
        "nn.forward_s": busy["nn.forward"],
        "nn.gflops": counters["nn.flops"] / nn_busy / 1e9 if nn_busy > 0 else 0.0,
        "calm.objective_s": busy["calm.objective"],
        "calm.objective_us_p50": per_call_us("calm.objective", 50),
        "calm.objective_us_p95": per_call_us("calm.objective", 95),
        "calm.optimize_mask_s": total["calm.optimize_mask"],
        "calm.iter_overhead_s": busy["calm.optimize_mask"],
        "calm.masked_merge_s": busy["calm.masked_merge"],
        "sampling.score_pool_s": busy["sampling.score_pool"],
        "sampling.select_s": busy["sampling.select"],
        "sampling.selected_frac": counters["sampling.selected_rows"] / pool if pool else 0.0,
        "baselines.task_vector_s": busy["baselines.task_vector"],
        "baselines.merge_s": (busy["baselines.weight_average"]
                              + busy["baselines.task_arithmetic"]
                              + busy["baselines.ties_merge"]),
        "formats.save_s": sum(v for k, v in busy.items() if k.startswith("formats.save_")),
        "formats.load_s": sum(v for k, v in busy.items() if k.startswith("formats.load_")),
        "reports.evaluate_s": busy["reports.evaluate"],
        "reports.write_s": busy["reports.write_report"],
        "config.resolve_s": busy["config.resolve"],
    })
    out.update({name: float(counters[name]) for name in COUNTERS})
    return out
