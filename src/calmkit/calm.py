"""Consensus-aware sequential mask merging.

Tasks are split into a bulk set merged cheaply by task arithmetic and an
ordered remainder merged one at a time. Each sequential step learns a binary
mask deciding, per parameter coordinate, whether the incoming task vector or
the current merged vector survives. The mask is relaxed to sigmoid(r) during
optimization, trained against the summed cross-entropy of every visible
task's credible samples plus an L1 sparsity term, and rounded once at the
end, so the final update copies every coordinate verbatim from exactly one
source. Task vectors, the mask logits r and the rounded bool mask are plain arrays,
read-only where they are made.

Each sequential step computes once what its iterations share: it checks and
stacks the visible tasks' credible rows and labels into one row-major (rows,
features) pool with a row span per task, builds the row weights of the
gathered rows, and allocates one flat buffer of the batches' row indices, of
which each task's batches are a view, and buffers of the gathered inputs, of
theta with its `nn.bind_pass` binding, and of the objective's mask-length
intermediates. Each iteration draws into the index buffer in place, and the
objective gathers the rows with one `np.take` over it and refills the other
buffers in place; so the views and the returned gradient hold one iteration's
values only, and a wrapper of the objective that keeps them must copy them.
A step holds four mask-length float64 buffers beside r: theta, m, and the binding's
total and spare. Each holds one value over part of a call, as `consensus_objective`
lists, so the merge direction is computed in every call rather than kept. A binding
with a second block slot (`nn.bind_pass`), whose blocks run on `nn`'s helper thread,
takes several mask-length vectors more; the step pays for one of them by sharing m with
the spare and computing sigmoid(r) again after the pass.
The data term is one weighted pass, `nn.weighted_loss_and_grad`, over those
rows: each row weighs 1 / (batches of its task * rows of its batch), the
per-task mean over batches of the per-batch mean; every batch of a task has
the same rows, so the weights are the same on every iteration. The pool is
row-major on purpose: a feature-major pool would hand the pass contiguous
(features, rows) inputs, and its first-layer weight gradient then differs in
the last bits, which can flip mask coordinates. r is updated in place and
checked to be finite once a step.

Each batch is the first `batch_size` entries of a seeded permutation of its
task's rows: per iteration and run of consecutive visible tasks whose sets
have one size, one `rng.permuted` call shuffles each batch's row of arange(n)
on its own, in order, drawing the numbers of one call per task. That is the
distribution of `rng.choice(n, k, replace=False)`, a uniformly random ordered
sample without replacement, from another stream, whose reference is one
`rng.permutation(n)[:k]` per batch. The batches need that distribution, not
`choice`'s stream: `choice` draws one batch per call, and NEP 19 does not
promise its stream across numpy versions.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby
from typing import Iterable, Mapping, Sequence

import numpy as np

from .baselines import ordered_sum, task_vector
from .nn import ContractError, ModelSpec, bind_pass, check_labels, read_only, weighted_loss_and_grad
from .seeding import STAGE_MASK_BATCHES, STAGE_MASK_INIT, STAGE_PARTITION, rng_for
from .tasks import Checkpoints

STRATEGIES = ("both", "only_mask", "only_complement")
OBJECTIVES = ("cross_entropy", "entropy")

INIT_MAGNITUDE = 4.595  # sigmoid(+-4.595) ~= 0.99 / 0.01


@dataclass(frozen=True)
class MergePlan:
    """The ordered sequential tasks plus every hyperparameter of the sequential merge, each
    checked here once: the merge's functions take the scale, strategy and mask fraction as
    checked. The bulk set is every other task, from `bulk_set`."""

    sequential_set: tuple[int, ...]
    lambda_efficient: float = 0.3
    l1_weight: float = 1.0
    iterations_per_task: int = 100
    batches_per_task: int = 2
    batch_size: int = 128
    mask_lr: float = 500.0
    init_active_fraction: float = 1e-5
    strategy: str = "both"
    seed: int = 0
    reinit_mask_per_task: bool = True

    def __post_init__(self):
        object.__setattr__(self, "sequential_set", tuple(int(t) for t in self.sequential_set))
        if not 0.0 < self.lambda_efficient < np.inf:
            raise ContractError("lambda_efficient must be positive and finite")
        if not 0.0 <= self.l1_weight < np.inf:
            raise ContractError("l1_weight must be >= 0 and finite")
        if not 0.0 < self.mask_lr < np.inf:
            raise ContractError("mask_lr must be positive and finite")
        if self.iterations_per_task < 1:
            raise ContractError("iterations_per_task must be >= 1")
        if self.batches_per_task < 1 or self.batch_size < 1:
            raise ContractError("batches_per_task and batch_size must be >= 1")
        if not 0.0 <= self.init_active_fraction < 1.0:
            raise ContractError("init_active_fraction must lie in [0, 1)")
        if self.strategy not in STRATEGIES:
            raise ContractError(f"strategy must be one of {STRATEGIES}, got {self.strategy!r}")

    @property
    def num_sequential(self) -> int:
        return len(self.sequential_set)

    def bulk_set(self, num_tasks: int) -> tuple[int, ...]:
        """The ascending ids of the tasks outside the sequence, whose tasks must be distinct
        ids in [0, num_tasks)."""
        named = set(self.sequential_set)
        if len(named) != self.num_sequential or not named <= set(range(num_tasks)):
            raise ContractError(f"sequential_set must hold distinct task ids in [0, "
                                f"{num_tasks}), got {self.sequential_set}")
        return tuple(t for t in range(num_tasks) if t not in named)


@dataclass(frozen=True)
class SequentialState:
    """Current merged task vector and the tasks visible to the objective."""

    tau_seq: np.ndarray
    visible_tasks: tuple[int, ...]


@dataclass(frozen=True)
class StepArtifact:
    """What one sequential step records.

    task_id: the step's task, the last visible one.
    mask: the rounded read-only bool mask.
    objective_trace: the pre-step objective per iteration.
    density_trace: the rounded mask's density before the first and after every step.
    """

    task_id: int
    mask: np.ndarray
    objective_trace: np.ndarray
    density_trace: np.ndarray


@dataclass(frozen=True)
class MergeResult:
    merged: np.ndarray
    steps: tuple[StepArtifact, ...]


def sigmoid(x: np.ndarray, out: tuple | None = None) -> np.ndarray:
    """1 / (1 + e) at x >= 0, else e / (1 + e), e = exp(-|x|); written into out[0], with
    out[1] and the bool out[2] as scratch, or into arrays allocated without `out`."""
    x = np.asarray(x, dtype=np.float64)
    e, d, positive = out or (np.empty_like(x), np.empty_like(x), np.empty(x.shape, bool))
    np.exp(np.negative(np.abs(x, out=e), out=e), out=e)
    np.add(1.0, e, out=d)
    np.divide(e, d, out=e)
    np.copyto(e, np.divide(1.0, d, out=d), where=np.greater_equal(x, 0, out=positive))
    return e


def partition(task_ids: Sequence[int], num_sequential: int, seed: int = 0) -> MergePlan:
    """Uniformly random seeded choice of the sequential tasks and their order."""
    ids = tuple(int(t) for t in task_ids)
    if not 0 <= num_sequential <= len(ids):
        raise ContractError(
            f"num_sequential must lie in [0, {len(ids)}], got {num_sequential}"
        )
    perm = rng_for(seed, STAGE_PARTITION).permutation(len(ids))
    return MergePlan(tuple(ids[i] for i in perm[:num_sequential]), seed=seed)


def efficient_merge(theta_pre: np.ndarray, bulk: Iterable[np.ndarray],
                    scale: float = 0.3) -> np.ndarray:
    """Task arithmetic's update scale * ordered_sum(bulk), read-only, in one pass over any
    iterable; none: zeros."""
    total = ordered_sum(bulk)
    return read_only(np.zeros(theta_pre.size) if total is None else scale * total, np.float64)


def masked_merge(tau_seq: np.ndarray, tau_j: np.ndarray, mask: np.ndarray,
                 strategy: str = "both") -> np.ndarray:
    """Combine the current merged vector with an incoming task vector under a bool mask m,
    into a new read-only vector.

    both:            (1 - m) * tau_seq + m * tau_j
    only_mask:       tau_seq + m * tau_j
    only_complement: (1 - m) * tau_seq + tau_j

    With strategy 'both' each output coordinate is copied bit-exactly from one
    of the two sources.
    """
    if tau_seq.shape != tau_j.shape or mask.shape != tau_seq.shape:
        raise ContractError(f"task vectors of shapes {tau_seq.shape} and {tau_j.shape} "
                            f"and a mask of shape {mask.shape} do not match")
    if strategy == "both":
        merged = np.where(mask, tau_j, tau_seq)
    elif strategy == "only_mask":
        merged = tau_seq + mask * tau_j
    else:
        merged = (1.0 - mask) * tau_seq + tau_j
    return read_only(merged, np.float64)


TaskExamples = Mapping[int, tuple[np.ndarray, np.ndarray | None]]


def _row_pool(visible_tasks: Sequence[int], task_data: TaskExamples, objective: str):
    """The visible tasks' credible rows as one row-major float64 pool: (inputs, labels or
    None, {task: (first row, rows)}), checked once per step."""
    if objective not in OBJECTIVES:
        raise ContractError(f"objective must be one of {OBJECTIVES}, got {objective!r}")
    inputs, labels, spans = [], [], {}
    for t in visible_tasks:
        if t not in task_data:
            raise ContractError(f"no credible data supplied for visible task {t}")
        x, y = task_data[t]
        if len(x) == 0:
            raise ContractError(f"visible task {t} has an empty batch")
        if objective == "cross_entropy" and y is None:
            raise ContractError("cross_entropy objective needs labels")
        spans[t] = (sum(map(len, inputs)), len(x))
        inputs.append(x)
        labels.append(y)
    x = np.concatenate(inputs).astype(np.float64, copy=False)
    if objective == "entropy":
        return x, None, spans
    return x, np.concatenate(labels).astype(np.int64, copy=False), spans


def _bind_pool(spec: ModelSpec, inputs: np.ndarray, labels: np.ndarray | None,
               batch_rows: Sequence[Sequence[int]], rows: np.ndarray) -> tuple:
    """The objective's `pool`, checked and made once per step: the `_row_pool` rows and
    labels, each gathered row's weight 1 / (batches of its task * rows of its batch) from
    `batch_rows`, the batches' flat row index, and what each call refills: a theta buffer
    and its feature-major `nn.bind_pass` binding, a gather buffer, and the float64 m, and
    the binding's total and first spare, and a bool buffer, of theta's length."""
    weights = np.repeat([1.0 / (len(task) * n) for task in batch_rows for n in task],
                        [n for task in batch_rows for n in task])
    if len(rows) != len(weights):
        raise ContractError(f"{len(weights)} row weights for {len(rows)} batch rows")
    theta = np.empty(spec.parameter_count)
    bound = bind_pass(spec, theta, {(len(rows),)}, feature_major=True)
    (total, _), (spare, _) = bound[1][:2]  # the pass's gradient and its first spare
    # at the sizes that bind two slots a mask-length vector outweighs a second sigmoid
    m = spare if len(bound[2]) == 2 else np.empty(theta.size)
    return (inputs, labels, weights, rows, theta, bound, np.empty((len(rows), inputs.shape[1])),
            (m, total, spare, np.empty(theta.size, bool)))


def consensus_objective(spec: ModelSpec, theta_pre: np.ndarray, state: SequentialState,
                        tau_j: np.ndarray, r: np.ndarray,
                        task_batches: Mapping[int, np.ndarray], l1_weight: float,
                        strategy: str, objective: str,
                        pool: tuple) -> tuple[float, np.ndarray]:
    """Soft-mask objective and its exact gradient with respect to r.

    Loss = sum over visible tasks of the task's mean data loss (averaged over
    its supplied batches) + l1_weight * mean(sigmoid(r)). The L1 pressure is
    normalized per coordinate so l1_weight stays meaningful at any parameter
    count; an unnormalized sum would bury the data signal. The gradient chains
    the parameter gradient through the strategy's merge direction, tau_j - tau_seq,
    tau_j or -tau_seq, and sigmoid'(r) = (1 - m) * m.

    `pool`, from `_bind_pool` for this step, holds the rows and labels of `_row_pool`,
    their row weights and the batches' row indices, flat in gather order, which the
    weighted pass gathers into the pool's buffer; `task_batches` holds each task's view
    of them, for wrappers. The mask-length buffers, overwritten by every call: m holds
    m = sigmoid(r); total is scratch until the pass and then holds the returned
    gradient; theta the parameters until the pass has read them; the spare the
    gradient of the pass's later blocks, and then the direction and (1 - m) * m. With
    two block slots, m is the spare, and after the pass m is computed again into
    theta. r, the objective and spec are checked once per step, the strategy by
    `MergePlan`.
    """
    pool_inputs, pool_labels, weights, rows, theta, bound, gathered, buffers = pool
    m, total, spare, positive = buffers
    # mode="raise" would copy `out` through a buffer; the rows index the pool
    inputs = np.take(pool_inputs, rows, axis=0, out=gathered, mode="clip")
    labels = None if objective == "entropy" else np.take(pool_labels, rows)
    sigmoid(r, out=(m, total, positive))
    tau_seq = state.tau_seq
    # theta_pre + tau, tau of the strategy's masked merge, with the operands in order
    if strategy == "only_mask":
        np.add(tau_seq, np.multiply(m, tau_j, out=theta), out=theta)
    else:
        np.multiply(np.subtract(1.0, m, out=total), tau_seq, out=theta)
        theta += np.multiply(m, tau_j, out=total) if strategy == "both" else tau_j
    np.add(theta_pre, theta, out=theta)
    # np.mean's bits without its overhead
    l1 = l1_weight * float(m.sum() / m.size)
    data_loss, grad = weighted_loss_and_grad(spec, bound, inputs, labels, weights)
    if m is spare:  # the pass wrote its second block's gradient over m
        m = sigmoid(r, out=(theta, spare, positive))
    if strategy == "both":
        grad *= np.subtract(tau_j, tau_seq, out=spare)
    else:
        grad *= tau_j if strategy == "only_mask" else np.negative(tau_seq, out=spare)
    sig_grad = np.multiply(np.subtract(1.0, m, out=spare), m, out=spare)
    grad *= sig_grad
    sig_grad *= l1_weight / theta_pre.size  # the bits of (l1_weight / size) * sig_grad
    grad += sig_grad
    return data_loss + l1, grad


def init_mask(n: int, init_active_fraction: float, rng: np.random.Generator) -> np.ndarray:
    """Seeded read-only logits r: max(1, floor(fraction * n)) coordinates at
    +INIT_MAGNITUDE, the rest at -INIT_MAGNITUDE."""
    active = max(1, int(np.floor(init_active_fraction * n)))
    r = np.full(n, -INIT_MAGNITUDE)
    r[rng.choice(n, size=active, replace=False)] = INIT_MAGNITUDE
    return read_only(r, np.float64)


def binarize(r: np.ndarray) -> np.ndarray:
    """Round sigmoid(r) into a read-only bool mask: True where sigmoid(r) >= 0.5
    (equivalently r >= 0)."""
    return read_only(r >= 0.0, bool)


def optimize_mask(spec: ModelSpec, theta_pre: np.ndarray, state: SequentialState,
                  tau_j: np.ndarray, task_data: TaskExamples, init: np.ndarray,
                  plan: MergePlan, rng: np.random.Generator,
                  objective: str = "cross_entropy") -> StepArtifact:
    """First-order descent on r, then the rounded mask of tau_j's step.

    The step is checked once, before it draws: the objective and the visible tasks'
    credible rows in `_row_pool`, which stacks the rows into one pool, and the pool's
    labels against the spec's classes. Every batch of a task has min(n, batch_size)
    rows, so the pool binding, the flat buffer of row indices and each task's
    (batches_per_task, rows) view of it are made once, the whole set written in when
    n <= batch_size. Each iteration overwrites the other tasks' views, in visible
    order, with the first entries of one `rng.permuted` row of arange(n) per batch, one
    call per run of tasks with sets of one size: a wrapper of the objective that keeps
    them must copy them. r is `init` when the caller hands over a writeable array, else a
    copy of it; it is updated in place and checked to be finite once, after the last
    iteration. The step's task is the last visible task. The objective trace holds the
    pre-step loss per iteration; the density trace holds the rounded-mask density before
    the first and after every step.
    """
    inputs, labels, spans = _row_pool(state.visible_tasks, task_data, objective)
    if labels is not None:
        check_labels(labels, spec.num_classes)
    k, per_task = plan.batch_size, plan.batches_per_task
    widths = [min(n, k) for _, n in spans.values()]
    # each task's batches start as its first min(n, k) rows, drawn over when n > k
    rows = np.concatenate([np.tile(first + np.arange(w), per_task)
                           for (first, _), w in zip(spans.values(), widths)])
    views = np.split(rows, np.cumsum([per_task * w for w in widths])[:-1])
    task_batches = {t: v.reshape(per_task, w) for t, v, w in zip(spans, views, widths)}
    pool = _bind_pool(spec, inputs, labels, [[w] * per_task for w in widths], rows)
    # per run of consecutive tasks with drawn sets of one size n: a read-only row of
    # arange(n) per batch, their shuffles, each batch's first row and the run's view
    draws, end = [], 0
    for n, run in groupby(spans.values(), key=lambda span: span[1]):
        firsts = np.repeat([first for first, _ in run], per_task)[:, None]
        end += len(firsts) * min(n, k)
        if n > k:
            draws.append((np.broadcast_to(np.arange(n), (len(firsts), n)),
                          np.empty((len(firsts), n), np.int64), firsts,
                          rows[end - len(firsts) * k : end].reshape(-1, k)))
    r = init if init.flags.writeable else init.copy()
    objective_trace = np.zeros(plan.iterations_per_task)
    density_trace = np.zeros(plan.iterations_per_task + 1)
    # exactly np.mean(r >= 0.0): an exact count over the same size
    density_trace[0] = np.count_nonzero(r >= 0.0) / r.size
    for it in range(plan.iterations_per_task):
        for order, shuffled, firsts, view in draws:
            rng.permuted(order, axis=1, out=shuffled)
            np.add(shuffled[:, :k], firsts, out=view)
        loss, grad_r = consensus_objective(spec, theta_pre, state, tau_j, r, task_batches,
                                           plan.l1_weight, plan.strategy, objective, pool)
        objective_trace[it] = loss
        # the bits of r - mask_lr * grad_r
        grad_r *= plan.mask_lr
        r -= grad_r
        density_trace[it + 1] = np.count_nonzero(r >= 0.0) / r.size
    if not np.all(np.isfinite(r)):
        raise ContractError("mask logits r must be finite")
    return StepArtifact(state.visible_tasks[-1], binarize(r), objective_trace, density_trace)


def sequential_merge(checkpoints: Checkpoints, plan: MergePlan, examples: TaskExamples,
                     objective: str = "cross_entropy") -> MergeResult:
    """Run the full merge: bulk task arithmetic, then one mask per sequential task.

    `examples` maps task id to the (inputs, labels-or-None) arrays the mask objective
    trains on. Returns the merged model, a read-only (P,) array, and, per sequential
    step, the bool mask with its objective and density traces. Each task vector is built
    where it is used.
    """
    spec, theta_pre = checkpoints.spec, checkpoints.pretrained
    bulk_set = plan.bulk_set(checkpoints.num_tasks)
    bulk = (task_vector(checkpoints.finetuned[t], theta_pre) for t in bulk_set)
    state = SequentialState(efficient_merge(theta_pre, bulk, plan.lambda_efficient), bulk_set)
    steps: list[StepArtifact] = []
    r: np.ndarray | None = None
    for step_idx, j in enumerate(plan.sequential_set):
        state = SequentialState(state.tau_seq, state.visible_tasks + (j,))
        # a fresh init is writeable, and the step updates it in place; without
        # reinit_mask_per_task, the next step goes on from the same r
        if r is None or plan.reinit_mask_per_task:
            r = init_mask(theta_pre.size, plan.init_active_fraction,
                          rng_for(plan.seed, STAGE_MASK_INIT, step_idx)).copy()
        tau_j = task_vector(checkpoints.finetuned[j], theta_pre)
        step = optimize_mask(
            spec, theta_pre, state, tau_j, examples, r, plan,
            rng_for(plan.seed, STAGE_MASK_BATCHES, step_idx), objective,
        )
        steps.append(step)
        state = SequentialState(masked_merge(state.tau_seq, tau_j, step.mask, plan.strategy),
                                state.visible_tasks)

    return MergeResult(read_only(theta_pre + state.tau_seq, np.float64), tuple(steps))
