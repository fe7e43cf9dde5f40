"""Evaluation and report emission.

Each task is evaluated on its `TaskData` test split, test_inputs against
test_labels. Reports come out twice: comma-separated files (plot-ready) and an
aligned text summary. All writers format floats with repr(), so identical runs
produce byte-identical report files. Every report is a function of persisted
artifacts: the accuracies and the pseudo-label audit of the models, datasets
and credible sets, and the mask diagnostics of the masks file with its traces.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from ..nn import ModelSpec
from ..tasks import TaskData, accuracy


def evaluate(spec: ModelSpec, theta: np.ndarray, tasks: Sequence[TaskData]) -> tuple[np.ndarray, float]:
    """Held-out accuracy per task, on its test split, and the unweighted mean."""
    per_task = np.array([accuracy(spec, theta, task.test_inputs, task.test_labels)
                         for task in tasks])
    return per_task, float(per_task.mean())


def layer_density(mask: np.ndarray, spec: ModelSpec) -> list[float]:
    """Fraction of True in each layer's span of a bool mask over the parameters of `spec`."""
    return [float(np.mean(mask[start : start + length]))
            for start, length in spec.layer_offsets()]


def magnitude_overlap(mask: np.ndarray, tau: np.ndarray,
                      k_percents: Sequence[float] = (1.0, 5.0, 10.0, 20.0, 50.0)) -> list[tuple[float, float]]:
    """For each k, the fraction of a bool mask's True coordinates ranked in the top k%
    of |tau| magnitude across all coordinates."""
    tau = np.asarray(tau, dtype=np.float64)
    n = tau.size
    order = np.argsort(-np.abs(tau), kind="stable")
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.arange(n)
    if not np.any(mask):
        return [(float(k), 0.0) for k in k_percents]
    return [(float(k), float(np.mean(rank[mask] < max(1, math.ceil(k / 100.0 * n)))))
            for k in k_percents]


@dataclass
class ReportBundle:
    """Per-method accuracy table plus optional mask diagnostics."""

    method: str
    task_ids: tuple[int, ...]
    per_task_accuracy: np.ndarray
    average_accuracy: float
    # report token -> mask key -> (index, value) rows: a layer, iteration or top percent
    diagnostics: dict[str, dict[str, list[tuple]]] = field(default_factory=dict)
    extras: dict[str, float] = field(default_factory=dict)


def _csv_lines(rows: list[list]) -> str:
    out = []
    for row in rows:
        out.append(",".join(repr(v) if isinstance(v, float) else str(v) for v in row))
    return "\n".join(out) + "\n"


def write_report(bundle: ReportBundle, directory: Path):
    """Emit report.csv, report.txt, and one CSV per diagnostic the bundle holds;
    a diagnostic CSV left by an earlier report in the directory is removed."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)

    rows: list[list] = [["task", "accuracy"]]
    rows += [[t, float(a)] for t, a in zip(bundle.task_ids, bundle.per_task_accuracy)]
    rows.append(["average", float(bundle.average_accuracy)])
    (directory / "report.csv").write_text(_csv_lines(rows))

    lines = [f"method: {bundle.method}"]
    for t, a in zip(bundle.task_ids, bundle.per_task_accuracy):
        lines.append(f"  task {t:>2d}: {a:.4f}")
    lines.append(f"  average: {bundle.average_accuracy:.4f}")
    for key, value in sorted(bundle.extras.items()):
        lines.append(f"  {key}: {value:.4f}")
    (directory / "report.txt").write_text("\n".join(lines) + "\n")

    for name, columns in (("layer_density", ("layer", "density")),
                          ("density_trace", ("iteration", "value")),
                          ("objective_trace", ("iteration", "value")),
                          ("magnitude_overlap", ("top_percent", "proportion"))):
        path = directory / f"{name}.csv"
        series = bundle.diagnostics.get(name)
        if not series:
            path.unlink(missing_ok=True)
            continue
        rows = [["step", *columns]]
        rows += [[step, a, float(b)] for step, pairs in series.items() for a, b in pairs]
        path.write_text(_csv_lines(rows))
