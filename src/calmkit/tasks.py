"""Synthetic multi-task benchmark and the training loop that produces checkpoints.

Each task is a Gaussian-cluster classification problem living in its own
region of input space: task t is offset by t * task_offset along a seeded
random direction (the constellation is centered about the origin to keep
input magnitudes uniform across tasks), and its classes sit on an orthonormal
frame scaled so every pair of class means is exactly cluster_sep apart. Class
frames live in the complement of the offset direction and interpolate between
one family-wide frame and independent per-task frames via frame_align, which
controls how much skill transfers across tasks: aligned frames admit a single
shared classifier, independent frames force task-specific solutions. All
tasks share the same label set, so a single classifier head serves every task
and the whole parameter vector participates in merging.

The pipeline generate -> pretrain -> finetune is a deterministic function of
(TaskFamily, TrainConfig). Fine-tuning is one stacked loop: the tasks share their shapes
and batch boundaries, so each step is one `loss_and_grad` call for all T models, each
keeping its own seeded row order and the bits of training it alone. STACK_PARAMS bounds
the stack, as a stack of wide models outgrows the cache and the memory that training one
of them needs. Each run binds its buffers once (`nn.bind_pass`), each dz written over
the output it consumed; each step overwrites them, and `sgd_step` its gradient. Where the
binding takes two slots, `loss_and_grad` trains a stack's second half on the helper
thread, the loop and every `sgd_step` staying on the calling thread.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import nn
from .nn import ContractError, ModelSpec, forward, loss_and_grad, read_only, sgd_step
from .seeding import STAGE_DATA, STAGE_FINETUNE, STAGE_INIT, STAGE_PRETRAIN, rng_for

# Most parameters in one fine-tuning stack, or in each half of one that binds two slots
# (`nn.helper_slots`): finetune_all trains its tasks in groups of T with T * parameter_count
# <= STACK_PARAMS per half, so all 8 default tasks share one stack at 709 and 71k
# parameters, and at 1.07M two tasks train beside each other. At 1.07M, one BLAS thread,
# alternating runs: one 8-task stack fine-tuned in 34.1/39.1 s with a 259 MB peak RSS, one
# task per stack in 27.3/32.0 s with 131 MB; in BENCH_23.json (medians of 5) two tasks
# beside each other took 14.5 s with a 280 MB worker peak, one task per stack 22.9 s, 265 MB.
STACK_PARAMS = 2**20


@dataclass(frozen=True)
class TaskFamily:
    """Parameters of the synthetic task generator."""

    num_tasks: int = 8
    classes_per_task: int = 5
    input_dim: int = 16
    cluster_sep: float = 1.6
    task_offset: float = 3.2
    noise_sigma: float = 0.25
    frame_align: float = 0.5
    train_per_task: int = 400
    unlabeled_per_task: int = 400
    test_per_task: int = 400
    seed: int = 0

    def __post_init__(self):
        if self.num_tasks < 1:
            raise ContractError(f"num_tasks must be >= 1, got {self.num_tasks}")
        if not 0.0 <= self.frame_align <= 1.0:
            raise ContractError(f"frame_align must lie in [0, 1], got {self.frame_align}")
        if self.classes_per_task < 2:
            raise ContractError(f"classes_per_task must be >= 2, got {self.classes_per_task}")
        if self.classes_per_task > self.input_dim:
            raise ContractError(
                "input_dim must be >= classes_per_task to place orthonormal class directions"
            )
        if not np.all(np.isfinite((self.cluster_sep, self.noise_sigma, self.task_offset))):
            raise ContractError("cluster_sep, noise_sigma and task_offset must be finite")
        if self.cluster_sep <= 0.0 or self.noise_sigma <= 0.0:
            raise ContractError("cluster_sep and noise_sigma must be positive")
        floor = self.cluster_sep + 6.0 * self.noise_sigma
        if self.task_offset < floor:
            raise ContractError(
                f"task_offset {self.task_offset} violates 3-sigma disjointness; need >= {floor}"
            )
        if min(self.train_per_task, self.unlabeled_per_task, self.test_per_task) < 1:
            raise ContractError("every split needs at least one sample per task")


@dataclass(frozen=True)
class TaskData:
    """One task's labeled train/test splits plus its unlabeled pool, as read-only arrays.

    Generated and loaded tasks alike are checked here, once: every split's inputs
    are finite (rows, features) matrices with one label per row. `audit_labels` are
    the withheld truth for the unlabeled pool: reports audit against them, and only
    the `supervised` mask objective trains on them; sampling never reads them.
    """

    task_id: int
    train_inputs: np.ndarray
    train_labels: np.ndarray
    test_inputs: np.ndarray
    test_labels: np.ndarray
    unlabeled_inputs: np.ndarray
    audit_labels: np.ndarray

    def __post_init__(self):
        for split, labels_name in (("train", "train_labels"), ("test", "test_labels"),
                                   ("unlabeled", "audit_labels")):
            inputs = read_only(getattr(self, f"{split}_inputs"), np.float64)
            labels = read_only(getattr(self, labels_name), np.int64)
            if inputs.ndim != 2 or not np.all(np.isfinite(inputs)):
                raise ContractError(f"task {self.task_id} {split} inputs must be a finite "
                                    f"2-D matrix, got shape {inputs.shape}")
            if labels.shape != inputs.shape[:1]:
                raise ContractError(f"task {self.task_id} has {labels.shape} {labels_name} "
                                    f"for {len(inputs)} {split} rows")
            object.__setattr__(self, f"{split}_inputs", inputs)
            object.__setattr__(self, labels_name, labels)


@dataclass(frozen=True)
class TrainConfig:
    """Architecture and training schedule shared by pretraining and fine-tuning."""

    hidden_dims: tuple[int, ...] = (32,)
    activation: str = "relu"
    pretrain_epochs: int = 30
    pretrain_lr: float = 0.05
    finetune_epochs: int = 40
    finetune_lr: float = 0.05
    batch_size: int = 64
    head_mode: str = "shared"
    accuracy_floor: float = 0.90

    def __post_init__(self):
        object.__setattr__(self, "hidden_dims", tuple(int(h) for h in self.hidden_dims))
        if self.head_mode not in ("shared", "per_task"):
            raise ContractError(f"head_mode must be 'shared' or 'per_task', got {self.head_mode!r}")
        if self.batch_size < 1:
            raise ContractError("batch_size must be >= 1")
        for name, lr in (("pretrain_lr", self.pretrain_lr), ("finetune_lr", self.finetune_lr)):
            if not 0.0 < lr < np.inf:
                raise ContractError(f"{name} must be positive and finite, got {lr}")
        if min(self.pretrain_epochs, self.finetune_epochs) < 0:
            raise ContractError("pretrain_epochs and finetune_epochs must be >= 0")
        if not 0.0 <= self.accuracy_floor <= 1.0:
            raise ContractError(f"accuracy_floor must lie in [0, 1], got {self.accuracy_floor}")


@dataclass(frozen=True)
class Checkpoints:
    """The shared pretrained model and one fine-tuned model per task, each a read-only
    (P,) array of `spec`: a fine-tuned row is a view of its fine-tune stack, or the array
    the loader made."""

    spec: ModelSpec
    pretrained: np.ndarray
    finetuned: tuple[np.ndarray, ...]

    @property
    def num_tasks(self) -> int:
        return len(self.finetuned)


def _split_counts(total: int, classes: int) -> list[int]:
    base, extra = divmod(total, classes)
    return [base + (1 if c < extra else 0) for c in range(classes)]


def generate_family(family: TaskFamily) -> list[TaskData]:
    """Draw every task's train/test/unlabeled splits; deterministic given the seed."""
    rng = rng_for(family.seed, STAGE_DATA)
    d, classes = family.input_dim, family.classes_per_task
    direction = rng.standard_normal(d)
    direction /= np.linalg.norm(direction)
    anchor = -0.5 * (family.num_tasks - 1) * family.task_offset * direction

    def complement_frame() -> np.ndarray:
        raw = rng.standard_normal((d, classes))
        raw -= np.outer(direction, direction @ raw)
        frame, _ = np.linalg.qr(raw)
        return frame

    shared_frame = complement_frame()
    counts = {name: _split_counts(getattr(family, f"{name}_per_task"), classes)
              for name in ("train", "unlabeled", "test")}
    tasks = []
    for t in range(family.num_tasks):
        center = anchor + t * family.task_offset * direction
        own_frame = complement_frame()
        mix = family.frame_align * shared_frame + (1.0 - family.frame_align) * own_frame
        frame, _ = np.linalg.qr(mix)
        # orthonormal columns: every pair of means is exactly cluster_sep apart
        means = center + (family.cluster_sep / np.sqrt(2.0)) * frame.T

        splits: dict[str, tuple[list[np.ndarray], list[np.ndarray]]] = {
            name: ([], []) for name in counts
        }
        for c in range(classes):
            per_class = sum(counts[name][c] for name in counts)
            draws = means[c] + family.noise_sigma * rng.standard_normal((per_class, d))
            pos = 0
            for name in counts:
                k = counts[name][c]
                splits[name][0].append(draws[pos : pos + k])
                splits[name][1].append(np.full(k, c, dtype=np.int64))
                pos += k

        shuffled = {}
        for name in counts:
            inputs = np.concatenate(splits[name][0])
            labels = np.concatenate(splits[name][1])
            perm = rng.permutation(inputs.shape[0])
            shuffled[name] = (inputs[perm], labels[perm])

        tasks.append(TaskData(t, *shuffled["train"], *shuffled["test"], *shuffled["unlabeled"]))
    return tasks


def accuracy(spec: ModelSpec, params: np.ndarray, inputs: np.ndarray,
             labels: np.ndarray) -> float:
    """Fraction of argmax predictions on the inputs' rows that match their labels."""
    predicted = np.argmax(forward(spec, params, inputs), axis=1)
    return float(np.mean(predicted == labels))


def _sgd_train(spec: ModelSpec, values: np.ndarray, inputs: np.ndarray, labels: np.ndarray,
               epochs: int, lr: float, batch_size: int, rngs: list[np.random.Generator],
               freeze_head: bool = False):
    """Minibatch SGD on `values` in place: (P,) values on (n, d) inputs and (n,) labels in
    the row order of rngs[0], or a (T, P) stack on (T, n, d) and (T, n), model t in the
    order of rngs[t]. Each step is one `loss_and_grad` call and one `sgd_step` per model,
    through views bound once per run: `nn.bind_pass`'s and each model's gradient row,
    which its `sgd_step` consumes."""
    if inputs.shape[-1] != spec.input_dim:
        raise ContractError(f"inputs have {inputs.shape[-1]} features, not {spec.input_dim}")
    nn.check_labels(labels, spec.num_classes)
    n = inputs.shape[-2]
    # rows are drawn as indices into the flattened stack: one plain row gather per step
    flat_inputs, flat_labels = inputs.reshape(-1, spec.input_dim), labels.reshape(-1)
    bound = nn.bind_pass(spec, values, {(*labels.shape[:-1], min(batch_size, n - lo))
                                        for lo in range(0, n, batch_size)}, False)
    models = list(zip(values.reshape(len(rngs), -1), bound[1].reshape(len(rngs), -1)))
    head = bound[1][..., spec.layer_offsets()[-1][0] :]
    # numpy's overflow warnings are silenced: a step that goes non-finite leaves every
    # later one non-finite, so one check after the last step reports the divergence
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(epochs):
            order = np.stack([rng.permutation(n) + t * n for t, rng in enumerate(rngs)])
            order = order.reshape(labels.shape)
            for lo in range(0, n, batch_size):
                rows = order[..., lo : lo + batch_size]
                loss_and_grad(spec, bound, flat_inputs[rows], flat_labels[rows])  # into bound[1]
                if freeze_head:
                    head.fill(0.0)
                for model, model_grad in models:
                    sgd_step(model, model_grad, lr)
    if not np.all(np.isfinite(values)):
        raise ContractError(f"training diverged at learning rate {lr}: the parameters "
                            "are no longer finite; lower the learning rate")


def pretrain(spec: ModelSpec, tasks: list[TaskData], epochs: int,
             lr: float = 0.1, batch_size: int = 64, seed: int = 0) -> np.ndarray:
    """Train a fresh seeded init on the pooled train splits of every task.

    A zero epoch budget returns the initialization unchanged.
    """
    values = np.array(nn.init_params(spec, rng_for(seed, STAGE_INIT)))
    _sgd_train(spec, values, np.concatenate([t.train_inputs for t in tasks]),
               np.concatenate([t.train_labels for t in tasks]), epochs, lr, batch_size,
               [rng_for(seed, STAGE_PRETRAIN)])
    return read_only(values, np.float64)


def finetune(spec: ModelSpec, theta_pre: np.ndarray, tasks: list[TaskData], epochs: int,
             lr: float = 0.1, batch_size: int = 64, seed: int = 0,
             head_mode: str = "shared") -> list[np.ndarray]:
    """Continue training theta_pre on each task's train split, all in one stack; each
    model is a read-only row of it.

    head_mode 'per_task' freezes the classifier head so the task vector only
    touches the backbone, mimicking setups whose heads never fine-tune.
    """
    values = np.tile(theta_pre, (len(tasks), 1))
    _sgd_train(spec, values, np.stack([t.train_inputs for t in tasks]),
               np.stack([t.train_labels for t in tasks]), epochs, lr, batch_size,
               [rng_for(seed, STAGE_FINETUNE, t.task_id) for t in tasks],
               freeze_head=(head_mode == "per_task"))
    return list(read_only(values, np.float64))


def model_spec(family: TaskFamily, config: TrainConfig) -> ModelSpec:
    """The MLP that `config` trains on the tasks of `family`."""
    return ModelSpec(family.input_dim, config.hidden_dims, family.classes_per_task,
                     config.activation)


def finetune_all(spec: ModelSpec, theta_pre: np.ndarray, tasks: list[TaskData],
                 config: TrainConfig, seed: int) -> Checkpoints:
    """Fine-tune theta_pre on every task, in stacks of at most STACK_PARAMS parameters;
    each model must reach the accuracy floor on its own test split, checked in task order."""
    finetuned = []
    group = max(1, STACK_PARAMS // spec.parameter_count)
    rows = min([config.batch_size] + [len(task.train_inputs) for task in tasks])
    group *= nn.helper_slots(spec, group * rows)
    for lo in range(0, len(tasks), group):
        stack = tasks[lo : lo + group]
        trained = finetune(spec, theta_pre, stack, config.finetune_epochs, config.finetune_lr,
                           config.batch_size, seed, config.head_mode)
        for task, theta_ft in zip(stack, trained):
            own = accuracy(spec, theta_ft, task.test_inputs, task.test_labels)
            if own < config.accuracy_floor:
                raise ContractError(f"task {task.task_id} fine-tuned accuracy {own:.3f} is below "
                                    f"the floor {config.accuracy_floor}; adjust the training "
                                    "config")
            finetuned.append(theta_ft)
    return Checkpoints(spec=spec, pretrained=theta_pre, finetuned=tuple(finetuned))

