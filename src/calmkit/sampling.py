"""Credible-sample selection from unlabeled pools.

Each unlabeled input is scored by the Shannon entropy of the fine-tuned
model's prediction and tagged with its argmax pseudo-label; the scored pool is
the `CredibleSet` of every row. Selection keeps a subset of it: either the
globally lowest-entropy fraction (ems) or the lowest-entropy fraction per
pseudo-class (cb_ems). Pseudo-labels are frozen at selection
time: merging code only ever reads them, never recomputes them. The rate is
checked once, where `SamplingConfig` is built: it lies in (0, 1].
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .nn import ContractError, ModelSpec, forward, prediction_entropy, read_only


@dataclass(frozen=True)
class CredibleSet:
    """Pool rows, ascending from `score_pool` (every row) and the selectors (a subset),
    their entropies and frozen pseudo-labels; the rows stay in the task's unlabeled pool."""

    task_id: int
    indices: np.ndarray
    entropies: np.ndarray
    pseudo_labels: np.ndarray

    def __post_init__(self):
        for name, dtype in (("indices", np.int64), ("entropies", np.float64),
                            ("pseudo_labels", np.int64)):
            object.__setattr__(self, name, read_only(getattr(self, name), dtype))
        rows = self.indices.shape[:1]
        if (self.indices.ndim != 1 or self.entropies.shape != rows
                or self.pseudo_labels.shape != rows):
            raise ContractError("a credible set holds one entropy and pseudo-label per "
                                "selected index")

    def __len__(self) -> int:
        return len(self.indices)


def score_pool(spec: ModelSpec, params: np.ndarray, inputs: np.ndarray,
               task_id: int = 0) -> CredibleSet:
    """The set of every pool row, with its entropy and argmax pseudo-label (ties: lowest)."""
    inputs = np.asarray(inputs, dtype=np.float64)
    if inputs.ndim != 2 or inputs.shape[0] == 0:
        raise ContractError("unlabeled pool must be a nonempty 2-D matrix")
    logits = forward(spec, params, inputs)
    if not np.all(np.isfinite(logits)):
        raise ContractError("the model's logits on the pool are not all finite")
    return CredibleSet(task_id, np.arange(len(inputs)), prediction_entropy(logits),
                       np.argmax(logits, axis=1))


def _bottom_k(scores: CredibleSet, rows: np.ndarray, k: int) -> np.ndarray:
    # rows are positions in `scores`; entropy ties broken by lower position, so lower index
    return rows[np.lexsort((rows, scores.entropies[rows]))[:k]]


def _subset(scores: CredibleSet, chosen: np.ndarray) -> CredibleSet:
    rows = np.sort(chosen)
    return CredibleSet(scores.task_id, scores.indices[rows], scores.entropies[rows],
                       scores.pseudo_labels[rows])


def select_ems(scores: CredibleSet, rate: float) -> CredibleSet:
    """The floor(rate * N) lowest-entropy rows of the scored set."""
    k = math.floor(rate * len(scores))
    if k == 0:
        raise ContractError(
            f"rate {rate} selects zero of {len(scores)} samples; increase the sampling rate"
        )
    return _subset(scores, _bottom_k(scores, np.arange(len(scores)), k))


def select_cb_ems(scores: CredibleSet, rate: float, num_classes: int) -> CredibleSet:
    """Per pseudo-class, the floor(rate * pool_c) lowest-entropy rows; union over classes."""
    picks = [np.empty(0, dtype=np.int64)]
    for c in range(num_classes):
        rows = np.flatnonzero(scores.pseudo_labels == c)
        if rows.size == 0:
            warnings.warn(f"class {c} has an empty pool; skipped", stacklevel=2)
            continue
        picks.append(_bottom_k(scores, rows, math.floor(rate * rows.size)))
    chosen = np.concatenate(picks)
    if chosen.size == 0:
        raise ContractError(
            f"rate {rate} selects zero samples across all classes; increase the sampling rate"
        )
    return _subset(scores, chosen)


def audit_accuracy(credible: CredibleSet, true_labels: np.ndarray) -> float:
    """Fraction of pseudo-labels matching the withheld pool labels. Report-only."""
    true_labels = np.asarray(true_labels, dtype=np.int64)
    return float(np.mean(credible.pseudo_labels == true_labels[credible.indices]))

