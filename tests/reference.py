"""Reference helpers that the tests compare the library against, and the helpers with
which they force and count the helper thread's pairs."""
import numpy as np

from calmkit import nn
from calmkit.calm import (
    StepArtifact,
    _bind_pool,
    _row_pool,
    binarize,
    consensus_objective,
)
from calmkit.nn import (ROW_BLOCK, ContractError, ModelSpec, _loss_and_dlogits, check_labels,
                        layer_views)
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
    z = np.ascontiguousarray(logits, dtype=np.float64)
    if z.ndim == 1:
        z = z[None, :]
    labels = check_labels(np.asarray(labels, dtype=np.int64).reshape(-1), z.shape[1])
    if labels.shape[0] != z.shape[0]:
        raise ContractError(f"{labels.shape[0]} labels for {z.shape[0]} logit rows")
    if not np.all(np.isfinite(z)):
        raise ContractError("cross_entropy requires finite logits")
    at = z.shape[1] * np.arange(len(z)) + labels  # each label's flat position in z
    return float(np.mean(nn._loss_and_dlogits(z.T, at)[0]))


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


# The kernels as they were before each loop bound its activation and backward buffers,
# verbatim with the helpers they call: the library's kernels must match them bit for bit.
def _activate(spec: ModelSpec, z: np.ndarray):
    """The hidden activation, in place."""
    if spec.activation == "relu":
        np.maximum(z, 0.0, out=z)
    else:
        np.tanh(z, out=z)


def _activation_grad(spec: ModelSpec, dz: np.ndarray, a: np.ndarray):
    """dz times the activation's derivative at output a, in place."""
    if spec.activation == "relu":
        dz *= a > 0.0
    else:
        dz *= 1.0 - a * a


def _forward_acts(spec: ModelSpec, layers: list, inputs: np.ndarray) -> list[np.ndarray]:
    """Per-layer post-activation values through the `layer_views` of the parameters;
    acts[0] is the input, acts[-1] the logits.

    The bias and the activation are applied in place on the product, so each
    layer allocates one array; the values are those of `act(a @ w + b)`.
    """
    acts = [inputs]
    for idx, (w, b) in enumerate(layers):
        z = acts[-1] @ w
        z += b[..., None, :]
        if idx < len(layers) - 1:
            _activate(spec, z)
        acts.append(z)
    return acts


def bind_training(spec: ModelSpec, values: np.ndarray, batch_shapes) -> tuple:
    """What a training loop binds once for `loss_and_grad`: the layer views of the (P,)
    or (T, P) `values` it updates in place, one gradient buffer and its views, and per
    batch shape, (rows,) or (T, rows), each row's flat offset in the row-major logits."""
    grad = np.empty(values.shape)
    offsets = {shape: spec.num_classes * np.arange(np.prod(shape, dtype=int)).reshape(shape)
               for shape in batch_shapes}
    return layer_views(spec, values), grad, layer_views(spec, grad), offsets


def loss_and_grad(spec: ModelSpec, bound: tuple, inputs: np.ndarray, labels: np.ndarray
                  ) -> tuple[float | np.ndarray, np.ndarray]:
    """Mean cross-entropy of the row-major pass and its exact gradient with respect to
    the flat parameters of `spec` that `bound`, from `bind_training`, views; a (T, P)
    stack with (T, rows, features) inputs and (T, rows) labels gives T losses and a
    (T, P) gradient. The gradient is the bound buffer, which the next call overwrites.

    The training step's kernel checks nothing: its loop checks the inputs and labels
    once, and the parameters' finiteness after its last step.
    """
    layers, grad, grads, offsets = bound
    acts = _forward_acts(spec, layers, inputs)
    losses, dz = _loss_and_dlogits(acts[-1].swapaxes(-1, -2), offsets[labels.shape] + labels)
    dz = dz.swapaxes(-1, -2)
    # the mean, not a 1/n row weight: `dz / n` and `dz * (1 / n)` differ in the last bit
    dz /= labels.shape[-1]
    for idx in range(len(layers) - 1, -1, -1):  # every entry of the gradient is overwritten
        (w, _), (grad_w, grad_b) = layers[idx], grads[idx]
        np.matmul(acts[idx].swapaxes(-1, -2), dz, out=grad_w)
        dz.sum(axis=-2, out=grad_b)
        if idx > 0:
            dz = dz @ w.swapaxes(-1, -2)
            _activation_grad(spec, dz, acts[idx])
    # np.mean's bits without its overhead; one model's loss is a np.float64, a float
    return losses.sum(axis=-1) / labels.shape[-1], grad


def weighted_loss_and_grad(spec: ModelSpec, layers: list, inputs: np.ndarray,
                           labels: np.ndarray | None, weights: np.ndarray
                           ) -> tuple[float, np.ndarray]:
    """sum(weights * per-row loss) over (rows, features) inputs, and its exact
    gradient with respect to the flat parameters of `spec` that `layers`, the
    `layer_views` of the loop's parameter buffer, view.

    The loss is cross-entropy with labels and the prediction entropy with
    `labels=None`. The pass is the feature-major one of the module docstring;
    its sums run in another order than a row-major per-batch loop, so its
    results differ from one in the last bits.

    The mask objective's kernel checks nothing: `calm.optimize_mask` checks the
    labels of its row pool once per step.
    """
    columns = inputs.T  # (features, rows), a view
    loss = 0.0
    grad = np.zeros(spec.parameter_count)  # += from zeros: a written first block keeps -0.0
    grads = layer_views(spec, grad)
    for start in range(0, columns.shape[1], ROW_BLOCK):
        cols = slice(start, start + ROW_BLOCK)
        acts = [columns[:, cols]]
        for idx, (w, b) in enumerate(layers):
            z = w.T @ acts[-1]
            z += b[:, None]
            if idx < len(layers) - 1:
                _activate(spec, z)
            acts.append(z)
        # column j's label sits at label * width + j of the C-contiguous (classes, width) z
        at = None if labels is None else labels[cols] * z.shape[1] + np.arange(z.shape[1])
        losses, dz = _loss_and_dlogits(acts[-1], at)
        loss += float(losses @ weights[cols])
        dz *= weights[cols]
        for idx in range(len(layers) - 1, -1, -1):
            (w, _), (grad_w, grad_b) = layers[idx], grads[idx]
            grad_w += acts[idx] @ dz.T
            grad_b += dz.sum(axis=1)
            if idx > 0:
                dz = w @ dz
                _activation_grad(spec, dz, acts[idx])
    return loss, grad


def sgd_step(values: np.ndarray, grad: np.ndarray, learning_rate: float) -> None:
    """One plain gradient step, in place: values -= learning_rate * grad."""
    if grad.shape != values.shape:
        raise ContractError(f"gradient shape {grad.shape} does not match parameters {values.shape}")
    values -= learning_rate * grad


def onehot_loss_and_dlogits(logits: np.ndarray, labels: np.ndarray | None
                            ) -> tuple[np.ndarray, np.ndarray]:
    """Per-column loss and its gradient with respect to that column's logits.

    Logits are class-first, (classes, rows) or (T, classes, rows) with labels
    (rows,) or (T, rows), and every reduction runs over axis -2. With labels the
    loss is cross-entropy, -log p[label], with gradient p - onehot(label); with
    `labels=None` it is the prediction entropy H = -sum p log p, with gradient
    -p * (log p + H). The softmax is computed once, shifted by the column maximum.
    A row-major caller passes `z.swapaxes(-1, -2)`, a view, so each reduction runs
    along one of z's contiguous rows. Callers scale the gradient columns by their
    reduction (a mean, or weights).

    Cross-entropy reads log p only at the labels, through a one-hot mask that works
    on every layout, so the write into p stays in place on a view: -(shifted[label]
    - log(total)) and p - onehot are the bits of -log p[label] and p[label] - 1.
    """
    shifted = logits - logits.max(axis=-2, keepdims=True)
    e = np.exp(shifted)
    total = e.sum(axis=-2, keepdims=True)
    p = e / total
    if labels is None:
        logp = shifted - np.log(total)
        losses = -np.sum(p * logp, axis=-2, keepdims=True)
        p *= logp + losses
        np.negative(p, out=p)
        return losses[..., 0, :], p
    onehot = labels[..., None, :] == np.arange(p.shape[-2])[:, None]
    p -= onehot
    # the label's entry plus exact zeros; np.where keeps an infinite logit elsewhere out
    losses = np.where(onehot, shifted, 0.0).sum(axis=-2)
    losses -= np.log(total)[..., 0, :]
    return np.negative(losses, out=losses), p


def _backward(spec: ModelSpec, acts: list[np.ndarray], values: np.ndarray,
              dlogits: np.ndarray) -> np.ndarray:
    """Reverse-mode gradient of a scalar loss given dL/dlogits; a stack gives (T, P)."""
    layers = layer_views(spec, values)
    grad = np.zeros(values.shape)
    grads = layer_views(spec, grad)
    dz = dlogits
    for idx in range(len(layers) - 1, -1, -1):
        (w, _), (grad_w, grad_b) = layers[idx], grads[idx]
        np.matmul(acts[idx].swapaxes(-1, -2), dz, out=grad_w)
        dz.sum(axis=-2, out=grad_b)
        if idx > 0:
            dz = dz @ w.swapaxes(-1, -2)
            _activation_grad(spec, dz, acts[idx])
    return grad


def _sgd_train(spec: ModelSpec, values: np.ndarray, inputs: np.ndarray, labels: np.ndarray,
               epochs: int, lr: float, batch_size: int, rngs: list[np.random.Generator],
               freeze_head: bool = False):
    """Minibatch SGD on `values` in place: (P,) values on (n, d) inputs and (n,) labels in
    the row order of rngs[0], or a (T, P) stack on (T, n, d) and (T, n), model t in the
    order of rngs[t]. Each step binds the parameters anew for one `loss_and_grad` call
    and makes one `sgd_step` per model."""
    if inputs.shape[-1] != spec.input_dim:
        raise ContractError(f"inputs have {inputs.shape[-1]} features, not {spec.input_dim}")
    check_labels(labels, spec.num_classes)
    n = inputs.shape[-2]
    # rows are drawn as indices into the flattened stack: one plain row gather per step
    flat_inputs, flat_labels = inputs.reshape(-1, spec.input_dim), labels.reshape(-1)
    models = values.reshape(-1, spec.parameter_count)  # row views of values
    head_start = spec.layer_offsets()[-1][0]
    # numpy's overflow warnings are silenced: a step that goes non-finite leaves every
    # later one non-finite, so one check after the last step reports the divergence
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(epochs):
            order = np.stack([rng.permutation(n) + t * n for t, rng in enumerate(rngs)])
            order = order.reshape(labels.shape)
            for lo in range(0, n, batch_size):
                rows = order[..., lo : lo + batch_size]
                _, grad = loss_and_grad(spec, bind_training(spec, values, {rows.shape}),
                                        flat_inputs[rows], flat_labels[rows])
                if freeze_head:
                    grad[..., head_start:] = 0.0
                for model, model_grad in zip(models, grad.reshape(models.shape)):
                    sgd_step(model, model_grad, lr)
    if not np.all(np.isfinite(values)):
        raise ContractError(f"training diverged at learning rate {lr}: the parameters "
                            "are no longer finite; lower the learning rate")


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


def finite(r: np.ndarray) -> np.ndarray:
    if not np.all(np.isfinite(r)):
        raise ContractError("mask logits r must be finite")
    return r


def optimize_mask(spec, theta_pre, state, tau_j, task_data, init, plan, rng,
                  objective="cross_entropy") -> tuple[StepArtifact, np.ndarray]:
    """`calm.optimize_mask` as a loop that builds every iteration's batches anew: one
    list of drawn batches per task, merged with the undrawn whole sets, concatenated
    into the gather's row index, a finiteness check of r before every objective call,
    and a new r per step; returns the step's artifact and its final r. The library's
    in-place iterations must match it bit for bit, the generator's final state included."""
    inputs, labels, spans = _row_pool(state.visible_tasks, task_data, objective)
    if labels is not None:
        check_labels(labels, spec.num_classes)
    k, per_task = plan.batch_size, plan.batches_per_task
    batch_rows = [[min(n, k)] * per_task for _, n in spans.values()]
    whole = {t: [first + np.arange(n)] * per_task
             for t, (first, n) in spans.items() if n <= k}
    orders = {n: np.broadcast_to(np.arange(n), (per_task, n)) for _, n in spans.values() if n > k}
    r = init.copy()
    objective_trace = np.zeros(plan.iterations_per_task)
    density_trace = np.zeros(plan.iterations_per_task + 1)
    density_trace[0] = np.mean(r >= 0.0)
    for it in range(plan.iterations_per_task):
        batches = {t: list(first + rng.permuted(orders[n], axis=1)[:, :k])
                   for t, (first, n) in spans.items() if n > k}
        task_batches = {**whole, **batches}
        rows = np.concatenate([idx for t in state.visible_tasks for idx in task_batches[t]])
        loss, grad_r = consensus_objective(
            spec, theta_pre, state, tau_j, finite(r), task_batches, plan.l1_weight,
            plan.strategy, objective,
            _bind_pool(spec, inputs, labels, batch_rows, rows),
        )
        objective_trace[it] = loss
        r = r - plan.mask_lr * grad_r
        density_trace[it + 1] = np.mean(r >= 0.0)
    return StepArtifact(state.visible_tasks[-1], binarize(finite(r)), objective_trace,
                        density_trace), r


def force_helper(monkeypatch, on: bool):
    """Replace `nn.helper_slots`, which `nn.bind_pass` and `finetune_all` ask: two slots for
    every pass that has a second part, a block of the weighted pass or a stack's second
    half, or one slot for every pass."""
    monkeypatch.setattr(nn, "helper_slots", lambda spec, rows: 2 if on and rows > 0 else 1)


def counted_pairs(monkeypatch) -> list:
    """One entry per pair of jobs that `nn._run_beside` runs, from now on."""
    ran, run_beside = [], nn._run_beside

    def counting(first, second):
        ran.append(2)
        return run_beside(first, second)

    monkeypatch.setattr(nn, "_run_beside", counting)
    return ran
