"""Reference helpers that the tests compare the library against."""
import numpy as np

from calmkit.calm import (
    RealMask,
    StepArtifact,
    _row_pool,
    _row_weights,
    binarize,
    consensus_objective,
)
from calmkit.nn import ContractError, _loss_and_dlogits, check_labels
from calmkit.tasks import (
    Checkpoints,
    TaskData,
    TaskFamily,
    TrainConfig,
    finetune_all,
    generate_family,
    model_spec,
    pretrain,
)


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-stabilized softmax of a vector or of each row of a matrix, for the oracles
    that compute p outside the library's loss kernel."""
    z = np.asarray(logits, dtype=np.float64)
    e = np.exp(z - np.max(z, axis=-1, keepdims=True))
    return e / np.sum(e, axis=-1, keepdims=True)


def cross_entropy(logits: np.ndarray, labels: np.ndarray) -> float:
    """Mean over the batch of -log softmax(logits)[label], by the library's loss kernel."""
    z = np.asarray(logits, dtype=np.float64)
    if z.ndim == 1:
        z = z[None, :]
    labels = check_labels(np.asarray(labels, dtype=np.int64).reshape(-1), z.shape[1])
    if labels.shape[0] != z.shape[0]:
        raise ContractError(f"{labels.shape[0]} labels for {z.shape[0]} logit rows")
    if not np.all(np.isfinite(z)):
        raise ContractError("cross_entropy requires finite logits")
    return float(np.mean(_loss_and_dlogits(z.T, labels)[0]))


def loss_and_dlogits(logits: np.ndarray, labels: np.ndarray | None
                     ) -> tuple[np.ndarray, np.ndarray]:
    """The class-first loss kernel as it was before its cross-entropy branch stopped
    building the full log-softmax and the sparse index grid; `nn._loss_and_dlogits`
    must match it bit for bit."""
    shifted = logits - logits.max(axis=-2, keepdims=True)
    e = np.exp(shifted)
    total = e.sum(axis=-2, keepdims=True)
    p = e / total
    logp = shifted - np.log(total)
    if labels is None:
        losses = -np.sum(p * logp, axis=-2, keepdims=True)
        p *= logp + losses
        np.negative(p, out=p)
        return losses[..., 0, :], p
    *tasks, cols = np.indices(labels.shape, sparse=True)
    at = (*tasks, labels, cols)
    p[at] -= 1.0
    return -logp[at], p


def sigmoid(x: np.ndarray) -> np.ndarray:
    """The boolean-mask sigmoid that `calm.sigmoid` must match bit for bit."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def build_checkpoints(family: TaskFamily, config: TrainConfig = TrainConfig(),
                      tasks: list[TaskData] | None = None) -> tuple[list[TaskData], Checkpoints]:
    """Full data + training pipeline; verifies each fine-tuned model's own-task floor."""
    if tasks is None:
        tasks = generate_family(family)
    spec = model_spec(family, config)
    theta_pre = pretrain(spec, tasks, config.pretrain_epochs, config.pretrain_lr,
                         config.batch_size, family.seed)
    return tasks, finetune_all(spec, theta_pre, tasks, config, family.seed)


def optimize_mask(spec, theta_pre, state, tau_j, task_data, init, plan, rng,
                  objective="cross_entropy") -> StepArtifact:
    """`calm.optimize_mask` as a loop that builds every iteration's batches anew: one
    list of drawn batches per task, merged with the undrawn whole sets, concatenated
    into the gather's row index, a `RealMask` check of r before every objective call,
    and a new r per step. The library's in-place iterations must match it bit for bit,
    the generator's final state included."""
    inputs, labels, spans = _row_pool(state.visible_tasks, task_data, objective)
    if labels is not None:
        check_labels(labels, spec.num_classes)
    k, per_task = plan.batch_size, plan.batches_per_task
    weights = _row_weights([[min(n, k)] * per_task for _, n in spans.values()])
    whole = {t: [first + np.arange(n)] * per_task
             for t, (first, n) in spans.items() if n <= k}
    orders = {n: np.broadcast_to(np.arange(n), (per_task, n)) for _, n in spans.values() if n > k}
    r = init.r.copy()
    objective_trace = np.zeros(plan.iterations_per_task)
    density_trace = np.zeros(plan.iterations_per_task + 1)
    density_trace[0] = np.mean(r >= 0.0)
    for it in range(plan.iterations_per_task):
        batches = {t: list(first + rng.permuted(orders[n], axis=1)[:, :k])
                   for t, (first, n) in spans.items() if n > k}
        task_batches = {**whole, **batches}
        rows = np.concatenate([idx for t in state.visible_tasks for idx in task_batches[t]])
        loss, grad_r = consensus_objective(
            spec, theta_pre, state, tau_j, RealMask(r).r, task_batches, plan.l1_weight,
            plan.strategy, objective, (inputs, labels, weights, rows),
        )
        objective_trace[it] = loss
        r = r - plan.mask_lr * grad_r
        density_trace[it + 1] = np.mean(r >= 0.0)
    real = RealMask(r)
    return StepArtifact(tau_j.task_id, binarize(real), real, objective_trace, density_trace,
                        state.tau_seq.values)
