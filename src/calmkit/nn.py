"""Minimal dense classifier with exact reverse-mode gradients.

A model is a read-only (P,) float64 array, P the `parameter_count` of the
:class:`ModelSpec` passed beside it, which gives each layer's span, so merging code
can treat checkpoints as points in R^P. Every routine here but the in-place `sgd_step`
is a pure function of its inputs: same spec, parameters, and data give bit-identical
logits, losses, and gradients.

Every forward and backward pass is one kernel, `_forward_acts` and `_backward`,
row-major on (rows, features) batches with an optional task axis, on which
`loss_and_grad` trains T models at once: (T, rows, features) stacks against (T, P)
parameters, one np.matmul per layer. `weighted_loss_and_grad`, the mask
objective's data term, runs it on blocks of ROW_BLOCK rows through feature-major
buffers, the transposed views of C-contiguous (features, rows) arrays: the layers
are 5 to 32 features wide at the default size, and numpy's per-call cost on rows
that narrow, in the bias add, the activation and the loss kernel, outweighed their
arithmetic; feature-major, each of those calls spans a block's rows, and numpy
writes a product into such a view by the BLAS call of the transposed product. Each
loop binds once (`bind_pass`) the `layer_views` of the parameters it updates or
refills in place, a gradient buffer, and layer-output buffers, each dz written over
the activation it consumed, with views per batch shape, which every product is
written into: at a width of 256, glibc trimmed the arrays that each step allocated
when freed, and faulted them in again. Each call overwrites its gradient and views;
a caller that keeps them must copy them.

The weighted pass's blocks are independent, so a binding may hold a second slot of
layer-output and scratch buffers, and the pass then runs every second block on one
helper thread while the caller runs the block before it; numpy's BLAS calls and
loops release the GIL. The helper is one daemon thread, started on first use; it
holds no job between jobs, and an exception in its job is raised in the caller.
Each block writes its own gradient buffer, and the caller sums the blocks' losses
and gradients in block order, so the results are the bits of the one-thread pass. A
stack's models are as independent: `loss_and_grad` runs a two-slot binding's second half
of them on the helper, each model's products keeping their shapes, strides and bits.
"""
from __future__ import annotations

import os
import threading
from dataclasses import dataclass
from functools import partial

import numpy as np

ACTIVATIONS = ("relu", "tanh")
# Rows per block of weighted_loss_and_grad. sequential_merge medians of 5 alternating
# repeats at 128/384/640/1,024 rows, one BLAS thread: 709 params 0.364/0.248/0.224/
# 0.222 s, 71k params 6.16/5.77/5.86/5.60 s; at 1.07M params one objective call on
# 1,792 rows took 0.39 s at 384 rows and 0.33-0.37 s at 1,024.
ROW_BLOCK = 1024
# The least forward multiply-adds, rows * sum(fan_in * fan_out), of a pass's second part
# at which `helper_slots` gives it a second slot: a weighted pass's second block, 768 rows
# at step 0 of a default-config sequential_merge and 1,024 at step 1, or a training stack's
# second half, 4 models' 64-row batches in a fine-tune of the default 8 tasks. Slot on
# against off, % of the time per run; medians of 7-9 alternating repeats, one BLAS thread,
# 2-vCPU Xeon VM; from (96, 96) to (192, 192) each row's last run is BENCH_24.json's. Runs
# gained when the host left the second CPU free. The fine-tune gained in every run from
# 10.5M and the merge from 14.6M, and below both lost or were mixed: the floor is the
# fine-tune's. The default's parts take at most 0.69M and (256, 256)'s at least 18.2M.
#   hidden     params  2nd block   merge                    half   finetune
#   (32,)         709  0.52/0.69M  +9 +16                   0.17M  +40 +20 +49
#   (64,)       1,413  1.03/1.38M  +13 +10                  0.34M  +1 +35 +27
#   (128,)      2,821  2.06/2.75M  +3 -1 -22                0.69M  +26 +19 +27
#   (64, 64)    5,573  4.18/5.57M  -1 -1 +2 -27             1.39M  +14 +22 +22 +23
#   (96, 96)   11,429  8.63/11.5M  -1 +8 -35 -14 -1 -23     2.88M  -2 +6 +18
#   (112, 112) 15,125  11.4/15.3M  -1 -26                   3.81M  +26 +14
#   (128, 128) 19,333  14.6/19.5M  -23 -38 -31 -39 -35 -32  4.88M  +3 +11 -13 +4 +11 +6 -9 -16 -3
#   (144, 144) 24,053                                       6.08M  +2 +11
#   (160, 160) 29,285  22.2/29.7M  -40 -33 -31              7.41M  0 -25 -4 +6 -13 -16 -24
#   (176, 176) 35,029                                       8.88M  -26 +5 +2
#   (192, 192) 41,285  31.4/41.9M  -26 -37 -31              10.5M  -22 -28 -27 -21 -25 -24
#   (256, 256) 71,429  54.5/72.6M  -40                      18.2M  -35 -32 -30 -33
HELPER_MACS = 10_000_000


def helper_slots(spec: ModelSpec, rows: int) -> int:
    """2, a pass's second part on the helper, when the process may run on two CPUs (by
    `os.sched_getaffinity`, where the platform has it) and the `rows` rows of that part
    take at least HELPER_MACS forward multiply-adds; else 1."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    macs = rows * sum(fi * fo for fi, fo in spec.layer_dims)
    return 2 if macs >= HELPER_MACS and cpus >= 2 else 1


class ContractError(ValueError):
    """An argument violated a documented precondition."""


def read_only(values, dtype) -> np.ndarray:
    """`values` as a C-contiguous array of `dtype` that cannot be written to."""
    arr = np.ascontiguousarray(values, dtype=dtype)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class ModelSpec:
    """Feedforward architecture: input_dim -> hidden_dims -> num_classes.

    Each layer owns a contiguous span of the flat parameter vector laid out as
    the weight matrix (fan_in x fan_out, row-major) followed by the bias, for
    a span length of (fan_in + 1) * fan_out.
    """

    input_dim: int
    hidden_dims: tuple[int, ...]
    num_classes: int
    activation: str = "relu"

    def __post_init__(self):
        object.__setattr__(self, "hidden_dims", tuple(int(h) for h in self.hidden_dims))
        if self.input_dim < 1:
            raise ContractError(f"input_dim must be positive, got {self.input_dim}")
        if any(h < 1 for h in self.hidden_dims):
            raise ContractError(f"hidden_dims must all be positive, got {self.hidden_dims}")
        if self.num_classes < 2:
            raise ContractError(f"num_classes must be >= 2, got {self.num_classes}")
        if self.activation not in ACTIVATIONS:
            raise ContractError(f"activation must be one of {ACTIVATIONS}, got {self.activation!r}")
        # derived once: the training loop and the merge read these on every step
        widths = (self.input_dim, *self.hidden_dims, self.num_classes)
        dims = tuple(zip(widths[:-1], widths[1:]))
        lengths = [(fi + 1) * fo for fi, fo in dims]
        starts = [sum(lengths[:i]) for i in range(len(lengths))]
        object.__setattr__(self, "_derived", (dims, tuple(zip(starts, lengths)), sum(lengths)))

    @property
    def layer_dims(self) -> tuple[tuple[int, int], ...]:
        """(fan_in, fan_out) per linear layer, input to output."""
        return self._derived[0]

    @property
    def parameter_count(self) -> int:
        return self._derived[2]

    def layer_offsets(self) -> tuple[tuple[int, int], ...]:
        """(start, length) span of each layer in the flat parameter vector."""
        return self._derived[1]


def init_params(spec: ModelSpec, seed) -> np.ndarray:
    """Seeded uniform init in +-sqrt(6/(fan_in+fan_out)) per layer; biases zero."""
    rng = np.random.default_rng(seed)
    values = np.zeros(spec.parameter_count)
    for (start, _), (fi, fo) in zip(spec.layer_offsets(), spec.layer_dims):
        limit = np.sqrt(6.0 / (fi + fo))
        values[start : start + fi * fo] = rng.uniform(-limit, limit, size=fi * fo)
    return read_only(values, np.float64)


def layer_views(spec: ModelSpec, values: np.ndarray):
    """Views of (W, b) per layer, W (fan_in, fan_out); a (T, P) stack gives (T, ...) views."""
    return [(values[..., start : start + fi * fo].reshape(*values.shape[:-1], fi, fo),
             values[..., start + fi * fo : start + size])
            for (start, size), (fi, fo) in zip(spec.layer_offsets(), spec.layer_dims)]


def _activate(spec: ModelSpec, z: np.ndarray):
    """The hidden activation, in place."""
    if spec.activation == "relu":
        np.maximum(z, 0.0, out=z)
    else:
        np.tanh(z, out=z)


def _forward_acts(spec: ModelSpec, layers: list, inputs: np.ndarray, outs=None) -> list:
    """Per-layer post-activation values through the `layer_views` of the parameters;
    acts[0] is the input, acts[-1] the logits.

    The bias and the activation are applied in place on the product, which each
    layer writes into its view in `outs` or, without, allocates; the values are
    those of `act(a @ w + b)`.
    """
    acts = [inputs]
    for idx, (w, b) in enumerate(layers):
        z = np.matmul(acts[-1], w, out=None if outs is None else outs[idx])
        z += b[..., None, :]
        if idx < len(layers) - 1:
            _activate(spec, z)
        acts.append(z)
    return acts


def forward(spec: ModelSpec, params: np.ndarray, inputs: np.ndarray) -> np.ndarray:
    """Raw logits (B x num_classes) of the (P,) `params` of `spec`; no softmax applied."""
    inputs = np.asarray(inputs, dtype=np.float64)
    if inputs.ndim != 2:
        raise ContractError(f"inputs must be 2-D (batch, features), got shape {inputs.shape}")
    if inputs.shape[1] != spec.input_dim:
        raise ContractError(
            f"inputs axis 1 has {inputs.shape[1]} features, spec.input_dim is {spec.input_dim}"
        )
    return _forward_acts(spec, layer_views(spec, params), inputs)[-1]


def check_labels(labels: np.ndarray, num_classes: int) -> np.ndarray:
    """`labels`, after checking that every entry lies in [0, num_classes)."""
    if labels.size and (labels.min() < 0 or labels.max() >= num_classes):
        raise ContractError(
            f"labels must lie in [0, {num_classes}), got range [{labels.min()}, {labels.max()}]"
        )
    return labels


def prediction_entropy(logits: np.ndarray):
    """Shannon entropy (nats) of the softmax of each row of logits, by the loss kernel's
    entropy branch; a scalar for a logit vector, values in [0, ln C]."""
    z = np.asarray(logits, dtype=np.float64)
    h = _loss_and_dlogits(np.atleast_2d(z).swapaxes(-1, -2), None)[0]
    return float(h[0]) if z.ndim == 1 else h


def _loss_and_dlogits(logits: np.ndarray, at: np.ndarray | None
                      ) -> tuple[np.ndarray, np.ndarray]:
    """Per-column loss and its gradient with respect to that column's logits.

    Logits are class-first, (classes, rows) or (T, classes, rows), and every
    reduction runs over axis -2. With `at`, (rows,) or (T, rows), each column's flat
    position of its label in the logits' memory, the loss is cross-entropy, -log
    p[label], with gradient p - onehot(label); with `at=None` it is the prediction
    entropy H = -sum p log p, with gradient -p * (log p + H). The softmax is
    computed once, shifted by the column maximum, and p keeps the logits' layout.
    The kernel passes `z.swapaxes(-1, -2)` of its (*shape, classes) logits z, a view:
    row-major, each reduction runs along one of z's contiguous rows. Callers scale the
    gradient columns by their reduction (a mean, or weights).

    Cross-entropy reads only the label entries, so an infinite logit elsewhere stays
    out: -(shifted[label] - log(total)) and p[label] -= 1 on a flat view of p are the
    bits of -log p[label] and p - onehot.
    """
    shifted = logits - logits.max(axis=-2, keepdims=True)
    e = np.exp(shifted)
    total = e.sum(axis=-2, keepdims=True)
    p = e / total
    if at is None:
        logp = shifted - np.log(total)
        losses = -np.sum(p * logp, axis=-2, keepdims=True)
        p *= logp + losses
        np.negative(p, out=p)
        return losses[..., 0, :], p
    p.ravel("K")[at] -= 1.0
    losses = np.take(shifted.ravel("K"), at)
    losses -= np.log(total)[..., 0, :]
    return np.negative(losses, out=losses), p


def _backward(spec: ModelSpec, layers: list, grads: list, acts: list, dz: np.ndarray,
              scratch: list):
    """The exact gradient with respect to the parameters that `layers` view, written over
    every entry of their gradient views `grads`, from `_forward_acts`'s acts and dz,
    dL/dlogits in the logits' view. Once a layer's weight gradient has read its input
    activation a, and a's derivative, `a > 0.0` or `1.0 - a * a`, is in the layer's view
    in `scratch` (bool for relu), the earlier dz is written over a, read by nothing else."""
    for idx in range(len(layers) - 1, -1, -1):
        (w, _), (grad_w, grad_b), a = layers[idx], grads[idx], acts[idx]
        np.matmul(a.swapaxes(-1, -2), dz, out=grad_w)
        dz.sum(axis=-2, out=grad_b)
        if idx > 0:
            derivative = (np.greater(a, 0.0, out=scratch[idx]) if spec.activation == "relu"
                          else np.subtract(1.0, np.multiply(a, a, out=scratch[idx]),
                                           out=scratch[idx]))
            dz = np.matmul(dz, w.swapaxes(-1, -2), out=a)
            dz *= derivative


def bind_pass(spec: ModelSpec, values: np.ndarray, shapes, feature_major: bool) -> tuple:
    """What a loop binds once for its kernel: the layer views of the (P,) or (T, P) `values`
    it updates or refills in place, gradient buffers and their views, and per shape an
    entry of views of one set of buffers sized for the largest.

    Shapes are the batch shapes of `loss_and_grad`, (rows,) or (T, rows), or feature-major
    the (rows,) of `weighted_loss_and_grad`, which binds its blocks of at most ROW_BLOCK
    rows. An entry holds each row's flat position of class 0 in the logits' memory and
    the step between classes, each layer's output, and per layer after the first the
    scratch of `_backward`, which writes each dz over a hidden layer's output:
    (*shape, features) views, C-contiguous or feature-major.

    The binding takes the slots that `helper_slots` gives the pass's second part: the
    floor(T / 2) models of the largest row-major (T, rows) shape after the first half, or
    the feature-major pass's second block. Row-major: (layers, gradient, its views,
    entries, halves), with two slots the bindings and slices of the first ceil(T / 2)
    models and of the rest. Feature-major: (layers, gradients, one entries per slot), the
    gradient buffers and their views: the first block's, then the spares of the blocks
    after it, one per slot but none beyond those blocks, and at least one.
    """
    if feature_major:
        most = max((rows for rows, in shapes), default=0)
        blocks, second = -(-most // ROW_BLOCK), min(ROW_BLOCK, most - ROW_BLOCK)
        shapes = {(min(ROW_BLOCK, rows - lo),) for rows, in shapes
                  for lo in range(0, rows, ROW_BLOCK)}
    else:
        second = max((shape[0] // 2 * shape[1] for shape in shapes if len(shape) == 2), default=0)
    slots = helper_slots(spec, second)
    size = max((int(np.prod(shape)) for shape in shapes), default=0)

    def view(buf: np.ndarray, shape: tuple, width: int) -> np.ndarray:
        lead = buf[: int(np.prod(shape)) * width]
        return lead.reshape(width, *shape).T if feature_major else lead.reshape(*shape, width)

    def entries() -> dict:
        outs = [np.empty(size * fo) for _, fo in spec.layer_dims]
        scratch = np.empty(size * max(spec.hidden_dims, default=0),
                           bool if spec.activation == "relu" else np.float64)

        def entry(shape: tuple) -> tuple:
            views = [view(out, shape, fo) for out, (_, fo) in zip(outs, spec.layer_dims)]
            *lead, step = (stride // 8 for stride in views[-1].strides)  # float64 entries
            return (sum(i * s for i, s in zip(np.indices(shape, sparse=True), lead)), step,
                    views, [None] + [view(scratch, shape, fi) for fi, _ in spec.layer_dims[1:]])

        return {s: entry(s) for s in shapes}

    def gradient() -> tuple:
        grad = np.empty(values.shape)
        return grad, layer_views(spec, grad)

    def models(bound: tuple, part: slice) -> tuple:  # part's views of bound, as a binding
        grad = bound[1][part]
        return (layer_views(spec, values[part]), grad, layer_views(spec, grad),
                {(len(grad), *shape[1:]): (offsets[: len(grad)], step, [o[part] for o in outs],
                                           [None] + [s[part] for s in scratch[1:]])
                 for shape, (offsets, step, outs, scratch) in bound[3].items()}, ()), part

    if not feature_major:
        bound = layer_views(spec, values), *gradient(), entries(), ()
        half = slice(-(-len(values) // 2))  # the first ceil(T / 2) models: the caller's
        return bound if slots == 1 else (
            *bound[:4], [models(bound, part) for part in (half, slice(half.stop, None))])
    grads = [gradient() for _ in range(1 + max(1, min(slots, blocks - 1)))]
    return layer_views(spec, values), grads, [entries() for _ in range(slots)]


class _Helper(threading.Thread):
    """The helper thread: runs the job it is handed under the numpy error state handed with
    it, and hands back its result or its exception, one job at a time. It drops the job
    before it signals: between jobs it holds nothing of a job, nor of the buffers it wrote."""

    def __init__(self):
        super().__init__(name="calmkit-block-helper", daemon=True)
        self.job = self.result = None
        # locks used as signals: `handed` is released when a job is handed over, `done`
        # when it has run
        self.handed, self.done = threading.Lock(), threading.Lock()
        self.handed.acquire()
        self.done.acquire()

    def run(self):
        while True:
            self.handed.acquire()
            try:
                with np.errstate(**self.job[1]):  # the caller's: each thread holds its own
                    self.result = self.job[0](), None
            except BaseException as error:  # raised again in the caller
                self.result = None, error
            self.job = None
            self.done.release()


_HELPER: list[_Helper] = []  # the one helper, once started
_HELPER_LOCK = threading.Lock()  # held for each pair: the helper takes one job at a time
_PAIRED: set[int] = set()  # the idents of the two threads that run the current pair


def _run_beside(first, second) -> list:
    """[first(), second()]: `second` runs on the helper, one daemon thread started here on
    first use (and again in a forked child, where it does not run), while `first` runs
    on the calling thread, both under its numpy error state. An exception in either is
    raised here, once both have ended. A job of a pair that calls this runs both itself."""
    if threading.get_ident() in _PAIRED:
        return [first(), second()]
    with _HELPER_LOCK:
        if not _HELPER or not _HELPER[0].is_alive():
            _HELPER[:] = [_Helper()]
            _HELPER[0].start()
        helper = _HELPER[0]
        _PAIRED.update((threading.get_ident(), helper.ident))
        helper.job = second, np.geterr()
        helper.handed.release()
        try:
            result = first()
        finally:
            helper.done.acquire()
            _PAIRED.clear()
            (other, error), helper.result = helper.result, None
    if error is not None:
        raise error
    return [result, other]


def loss_and_grad(spec: ModelSpec, bound: tuple, inputs: np.ndarray, labels: np.ndarray
                  ) -> tuple[float | np.ndarray, np.ndarray]:
    """Mean cross-entropy of the row-major pass and its exact gradient with respect to
    the flat parameters of `spec` that `bound`, from `bind_pass`, views; a (T, P)
    stack with (T, rows, features) inputs and (T, rows) labels gives T losses and a
    (T, P) gradient. The gradient is the bound buffer, which the next call overwrites.

    The training step's kernel checks nothing: its loop checks the inputs and labels
    once, and the parameters' finiteness after its last step.
    """
    layers, grad, grads, entries, halves = bound
    if halves:
        parts = _run_beside(*(partial(loss_and_grad, spec, half, inputs[part], labels[part])
                              for half, part in halves))
        return np.concatenate([losses for losses, _ in parts]), grad
    offsets, step, outs, scratch = entries[labels.shape]
    acts = _forward_acts(spec, layers, inputs, outs)
    losses, dz = _loss_and_dlogits(acts[-1].swapaxes(-1, -2), offsets + step * labels)
    # the mean, not a 1/n row weight: `dz / n` and `dz * (1 / n)` differ in the last bit
    dz /= labels.shape[-1]
    _backward(spec, layers, grads, acts, dz.swapaxes(-1, -2), scratch)
    # np.mean's bits without its overhead; one model's loss is a np.float64, a float
    return losses.sum(axis=-1) / labels.shape[-1], grad


def weighted_loss_and_grad(spec: ModelSpec, bound: tuple, inputs: np.ndarray,
                           labels: np.ndarray | None, weights: np.ndarray
                           ) -> tuple[float, np.ndarray]:
    """sum(weights * per-row loss) over (rows, features) inputs, and its exact gradient
    with respect to the flat parameters of `spec` that `bound`, a feature-major
    `bind_pass` for as many rows, views. The loss is cross-entropy with labels and the
    prediction entropy with `labels=None`. Its sums run in another order than a row-major
    per-batch loop, so its results differ from one in the last bits. The gradient is the
    binding's first gradient buffer, which the next call overwrites.

    Block 0 writes its gradient into that buffer, and each later block into the binding's
    spares in turn; with two slots, blocks run in pairs, the second of a pair on the
    helper thread. Losses and gradients are summed in block order, the gradient from
    0.0 + block 0's: a -0.0 of it sums to +0.0.

    The mask objective's kernel checks nothing: `calm.optimize_mask` checks the
    labels of its row pool once per step.
    """
    layers, grads, slots = bound
    blocks = -(-len(inputs) // ROW_BLOCK)
    targets = grads[:1] + [grads[1 + b % (len(grads) - 1)] for b in range(blocks - 1)]

    def block(b: int, slot: int) -> float:
        rows = slice(b * ROW_BLOCK, (b + 1) * ROW_BLOCK)
        offsets, step, outs, scratch = slots[slot][weights[rows].shape]
        acts = _forward_acts(spec, layers, inputs[rows], outs)
        at = None if labels is None else offsets + step * labels[rows]
        losses, dz = _loss_and_dlogits(acts[-1].swapaxes(-1, -2), at)
        part = float(losses @ weights[rows])
        dz *= weights[rows]
        _backward(spec, layers, targets[b][1], acts, dz.swapaxes(-1, -2), scratch)
        return part

    loss, total = 0.0, grads[0][0]
    for first in range(0, blocks, len(slots)):
        if len(slots) == 2 and first + 1 < blocks:
            parts = _run_beside(partial(block, first, 0), partial(block, first + 1, 1))
        else:
            parts = [block(first, 0)]
        for b, part in enumerate(parts, first):
            loss += part
            total += targets[b][0] if b else 0.0
    return loss, total


def sgd_step(values: np.ndarray, grad: np.ndarray, learning_rate: float) -> None:
    """One plain gradient step, in place: the bits of values -= learning_rate * grad, with
    no temporary, as grad *= learning_rate consumes the gradient."""
    if grad.shape != values.shape:
        raise ContractError(f"gradient shape {grad.shape} does not match parameters {values.shape}")
    grad *= learning_rate
    values -= grad
