"""Reference merging rules: weight averaging, task arithmetic, ties-merging.

All three are deterministic elementwise reductions over models, read-only (P,)
float64 arrays, and return one; a task vector is a read-only array of that length.
Sums always run in list-index order, so repeated calls are bit-reproducible.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .nn import ContractError, read_only


@dataclass(frozen=True)
class TiesConfig:
    trim_fraction: float = 0.2
    scale: float = 0.3

    def __post_init__(self):
        if not 0.0 < self.trim_fraction <= 1.0:
            raise ContractError(f"trim_fraction must be in (0, 1], got {self.trim_fraction}")
        if not 0.0 < self.scale < math.inf:
            raise ContractError(f"scale must be positive and finite, got {self.scale}")


def ordered_sum(arrays) -> np.ndarray:
    """Sum of equal-length vectors, from any iterable, in index order: a running sum from
    zeros, bit for bit numpy's sum of their stack along axis 0 (all -0.0 sums to +0.0)."""
    total = None
    for values in arrays:
        if total is None:
            total = np.zeros(np.shape(values))
        total += values
    return total


def task_vector(theta_ft: np.ndarray, theta_pre: np.ndarray) -> np.ndarray:
    """theta_ft - theta_pre, elementwise, as a read-only vector."""
    return read_only(theta_ft - theta_pre, np.float64)


def weight_average(models: list[np.ndarray]) -> np.ndarray:
    """Elementwise arithmetic mean of the given models."""
    if not models:
        raise ContractError("weight_average needs at least one model")
    return read_only(ordered_sum(models) / len(models), np.float64)


def task_arithmetic(theta_pre: np.ndarray, task_vectors: Iterable[np.ndarray],
                    scale: float = 0.3) -> np.ndarray:
    """theta_pre + scale * ordered_sum(task vectors), read once from any iterable, the sum
    CALM's bulk merge scales too; none gives a copy of theta_pre, its own bits."""
    if scale <= 0.0:
        raise ContractError(f"scale must be positive, got {scale}")
    total = ordered_sum(task_vectors)
    return read_only(theta_pre.copy() if total is None else theta_pre + scale * total,
                     np.float64)


def ties_trim(tv: np.ndarray, trim_fraction: float) -> np.ndarray:
    """Keep the ceil(trim_fraction * n) largest-magnitude entries, zero the rest, in a
    new read-only vector.

    Magnitude ties at the cut are broken in favor of the lower index. trim_fraction
    lies in (0, 1], as `TiesConfig` checks.
    """
    n = tv.size
    k = min(n, math.ceil(trim_fraction * n))
    order = np.argsort(-np.abs(tv), kind="stable")
    trimmed = np.zeros(n)
    keep = order[:k]
    trimmed[keep] = tv[keep]
    return read_only(trimmed, np.float64)


def ties_elect_sign(task_vectors: list[np.ndarray]) -> np.ndarray:
    """Per-coordinate sign carrying the larger total magnitude.

    Returns an int8 vector in {-1, 0, +1}: 0 only where every entry is zero,
    and +1 on an exact positive/negative mass tie.
    """
    if not task_vectors:
        raise ContractError("ties_elect_sign needs at least one task vector")
    pos = ordered_sum(np.maximum(tv, 0.0) for tv in task_vectors)
    neg = ordered_sum(np.maximum(-tv, 0.0) for tv in task_vectors)
    elected = np.where(pos >= neg, 1, -1).astype(np.int8)
    elected[(pos == 0.0) & (neg == 0.0)] = 0
    return elected


def ties_merge(theta_pre: np.ndarray, task_vectors: Iterable[np.ndarray],
               config: TiesConfig = TiesConfig()) -> np.ndarray:
    """Trim each task vector as it is read, elect a sign per coordinate, average the
    agreeing entries (disjoint merge), and add the scaled result to theta_pre."""
    trimmed = [ties_trim(tv, config.trim_fraction) for tv in task_vectors]
    if not trimmed:
        raise ContractError("ties_merge needs at least one task vector")
    elected = ties_elect_sign(trimmed)
    agree_sum, agree_count = np.zeros((2, theta_pre.size))
    for tv in trimmed:
        agrees = (np.sign(tv).astype(np.int8) == elected) & (elected != 0)
        agree_sum[agrees] += tv[agrees]
        agree_count[agrees] += 1.0
    merged = theta_pre.copy()
    touched = agree_count > 0
    merged[touched] += config.scale * (agree_sum[touched] / agree_count[touched])
    return read_only(merged, np.float64)
