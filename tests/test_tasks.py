import threading

import numpy as np
import pytest

from calmkit import tasks as tasks_module
from calmkit.nn import ContractError, ModelSpec, bind_pass, loss_and_grad
from calmkit.seeding import STAGE_FINETUNE, rng_for
from calmkit.tasks import (
    TaskData,
    TaskFamily,
    TrainConfig,
    accuracy,
    finetune,
    finetune_all,
    generate_family,
    model_spec,
    pretrain,
)
from reference import _sgd_train as reference_sgd_train
from reference import bind_training, build_checkpoints, counted_pairs, force_helper
from reference import loss_and_grad as reference_loss_and_grad


def held_out(spec, params, task):
    """A model's accuracy on a task's test split."""
    return accuracy(spec, params, task.test_inputs, task.test_labels)


SMALL = TaskFamily(num_tasks=3, train_per_task=90, unlabeled_per_task=90,
                   test_per_task=90, seed=5)


@pytest.fixture(scope="module")
def default_pipeline():
    family = TaskFamily(seed=0)
    tasks, ckpt = build_checkpoints(family, TrainConfig())
    return family, tasks, ckpt


class TestFamilyValidation:
    def test_disjointness_floor(self):
        with pytest.raises(ContractError, match="disjoint"):
            TaskFamily(cluster_sep=2.0, noise_sigma=1.0, task_offset=7.9)

    def test_positive_geometry(self):
        with pytest.raises(ContractError):
            TaskFamily(cluster_sep=0.0)
        with pytest.raises(ContractError):
            TaskFamily(noise_sigma=-1.0)

    def test_classes_need_room(self):
        with pytest.raises(ContractError, match="input_dim"):
            TaskFamily(input_dim=3, classes_per_task=5)

    def test_frame_align_range(self):
        with pytest.raises(ContractError):
            TaskFamily(frame_align=1.5)


def task_data(**splits):
    """A valid three-row TaskData with `splits` replacing some of its arrays."""
    arrays = {f"{split}_inputs": np.zeros((3, 2)) for split in ("train", "test", "unlabeled")}
    arrays.update(train_labels=np.zeros(3), test_labels=np.zeros(3), audit_labels=np.zeros(3))
    return TaskData(task_id=0, **{**arrays, **splits})


class TestTaskData:
    def test_splits_are_read_only_arrays_of_their_dtypes(self):
        task = task_data()
        assert task.train_inputs.dtype == np.float64 and task.audit_labels.dtype == np.int64
        with pytest.raises(ValueError):
            task.test_inputs[0, 0] = 1.0

    @pytest.mark.parametrize("split", ["train", "test", "unlabeled"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_inputs_are_rejected(self, split, value):
        inputs = np.zeros((3, 2))
        inputs[1, 0] = value
        with pytest.raises(ContractError, match=f"{split} inputs must be a finite 2-D"):
            task_data(**{f"{split}_inputs": inputs})

    @pytest.mark.parametrize("split", ["train", "test", "unlabeled"])
    def test_one_dimensional_inputs_are_rejected(self, split):
        with pytest.raises(ContractError, match=r"got shape \(3,\)"):
            task_data(**{f"{split}_inputs": np.zeros(3)})

    @pytest.mark.parametrize("labels", ["train_labels", "test_labels", "audit_labels"])
    def test_one_label_per_row(self, labels):
        with pytest.raises(ContractError, match=f"{labels} for 3"):
            task_data(**{labels: np.zeros(2)})


class TestGenerateFamily:
    def test_single_easy_task_is_linearly_separable(self):
        family = TaskFamily(num_tasks=1, classes_per_task=2, input_dim=4,
                            cluster_sep=30.0, noise_sigma=1.0, task_offset=36.0,
                            train_per_task=60, unlabeled_per_task=10, test_per_task=60,
                            seed=2)
        tasks = generate_family(family)
        spec = ModelSpec(4, (), 2)
        theta = pretrain(spec, tasks, epochs=30, lr=0.05, seed=2)
        assert held_out(spec, theta, tasks[0]) == 1.0

    def test_same_seed_bit_identical(self):
        a = generate_family(SMALL)
        b = generate_family(SMALL)
        for ta, tb in zip(a, b):
            assert np.array_equal(ta.train_inputs, tb.train_inputs)
            assert np.array_equal(ta.train_labels, tb.train_labels)
            assert np.array_equal(ta.unlabeled_inputs, tb.unlabeled_inputs)
            assert np.array_equal(ta.audit_labels, tb.audit_labels)

    def test_extreme_noise_approaches_chance(self):
        # noise >> separation: the Bayes rate collapses to 1/C
        family = TaskFamily(num_tasks=1, classes_per_task=4, input_dim=8,
                            cluster_sep=0.05, noise_sigma=40.0, task_offset=241.0,
                            train_per_task=400, unlabeled_per_task=10,
                            test_per_task=2000, seed=3)
        tasks = generate_family(family)
        rng = np.random.default_rng(3)
        # Monte-Carlo Bayes oracle: classify by nearest class mean (optimal for
        # equal spherical Gaussians) using means estimated from the train split
        means = np.stack([tasks[0].train_inputs[tasks[0].train_labels == c].mean(axis=0)
                          for c in range(4)])
        test = tasks[0]
        nearest = np.argmin(
            ((test.test_inputs[:, None, :] - means[None, :, :]) ** 2).sum(axis=2), axis=1)
        bayes_acc = float(np.mean(nearest == test.test_labels))
        assert abs(bayes_acc - 0.25) < 0.05
        spec = ModelSpec(8, (8,), 4)
        theta = pretrain(spec, tasks, epochs=5, lr=0.001, seed=3)
        assert abs(held_out(spec, theta, test) - 0.25) < 0.05

    def test_split_sizes_and_disjoint_roles(self):
        tasks = generate_family(SMALL)
        for t in tasks:
            assert t.train_inputs.shape == (90, SMALL.input_dim)
            assert t.test_inputs.shape == (90, SMALL.input_dim)
            assert t.unlabeled_inputs.shape == (90, SMALL.input_dim)
            assert t.audit_labels.shape == (90,)
            # separate draws: no row appears in two splits
            rows = {"train": t.train_inputs, "test": t.test_inputs,
                    "unlabeled": t.unlabeled_inputs}
            for a in rows:
                for b in rows:
                    if a < b:
                        common = set(map(tuple, rows[a])) & set(map(tuple, rows[b]))
                        assert not common

    def test_class_mean_spacing(self):
        family = TaskFamily(num_tasks=2, classes_per_task=3, input_dim=8,
                            cluster_sep=6.0, noise_sigma=0.01, task_offset=20.0,
                            train_per_task=300, unlabeled_per_task=3, test_per_task=3,
                            seed=7)
        tasks = generate_family(family)
        for t in tasks:
            means = np.stack([t.train_inputs[t.train_labels == c].mean(axis=0)
                              for c in range(3)])
            for i in range(3):
                for j in range(i + 1, 3):
                    assert abs(np.linalg.norm(means[i] - means[j]) - 6.0) < 0.05


class TestPretrain:
    def test_zero_budget_returns_init(self):
        tasks = generate_family(SMALL)
        spec = ModelSpec(SMALL.input_dim, (8,), SMALL.classes_per_task)
        a = pretrain(spec, tasks, epochs=0, seed=5)
        b = pretrain(spec, tasks, epochs=0, seed=5)
        assert np.array_equal(a, b)
        from calmkit.nn import init_params
        from calmkit.seeding import STAGE_INIT, rng_for
        reference = init_params(spec, rng_for(5, STAGE_INIT))
        assert np.array_equal(a, reference)

    def test_default_budget_above_chance_everywhere(self, default_pipeline):
        family, tasks, ckpt = default_pipeline
        chance = 1.0 / family.classes_per_task
        for t in tasks:
            assert held_out(ckpt.spec, ckpt.pretrained, t) > chance

    def test_pretrain_below_individual_on_each_task(self, default_pipeline):
        family, tasks, ckpt = default_pipeline
        for t in tasks:
            pre = held_out(ckpt.spec, ckpt.pretrained, t)
            own = held_out(ckpt.spec, ckpt.finetuned[t.task_id], t)
            assert pre < own


class TestFinetune:
    def test_zero_epochs_gives_zero_task_vector(self):
        tasks = generate_family(SMALL)
        spec = ModelSpec(SMALL.input_dim, (8,), SMALL.classes_per_task)
        theta_pre = pretrain(spec, tasks, epochs=2, seed=5)
        for theta_ft in finetune(spec, theta_pre, tasks, epochs=0, seed=5):
            assert theta_ft.tobytes() == theta_pre.tobytes()

    def test_own_task_accuracy_floor(self, default_pipeline):
        family, tasks, ckpt = default_pipeline
        for t in tasks:
            assert held_out(ckpt.spec, ckpt.finetuned[t.task_id], t) >= 0.90

    def test_no_large_cross_task_gains(self, default_pipeline):
        # fine-tuning must stay task-specific: on every other task it may not
        # beat the pretrained model by more than 5 points
        family, tasks, ckpt = default_pipeline
        pre = [held_out(ckpt.spec, ckpt.pretrained, t) for t in tasks]
        for t in range(family.num_tasks):
            for u in range(family.num_tasks):
                if u == t:
                    continue
                cross = held_out(ckpt.spec, ckpt.finetuned[t], tasks[u])
                assert cross <= pre[u] + 0.05

    def test_nontrivial_task_vectors(self, default_pipeline):
        family, tasks, ckpt = default_pipeline
        for ft in ckpt.finetuned:
            assert np.linalg.norm(ft - ckpt.pretrained) > 0.0

    def test_per_task_head_mode_freezes_head(self):
        tasks = generate_family(SMALL)
        spec = ModelSpec(SMALL.input_dim, (8,), SMALL.classes_per_task)
        theta_pre = pretrain(spec, tasks, epochs=2, seed=5)
        theta_ft, = finetune(spec, theta_pre, tasks[:1], epochs=5, seed=5,
                             head_mode="per_task")
        head_start = spec.layer_offsets()[-1][0]
        assert np.array_equal(theta_ft[head_start:], theta_pre[head_start:])
        assert not np.array_equal(theta_ft[:head_start], theta_pre[:head_start])


def per_task_finetune(spec, theta_pre, task, epochs, lr, batch_size, seed, head_mode):
    """The reference: fine-tune one task alone, with a gathered batch, a gradient of the
    reference kernel bound anew and an out-of-place step per batch."""
    values = theta_pre
    rng = rng_for(seed, STAGE_FINETUNE, task.task_id)
    head_start = spec.layer_offsets()[-1][0]
    n = len(task.train_inputs)
    for _ in range(epochs):
        perm = rng.permutation(n)
        for lo in range(0, n, batch_size):
            idx = perm[lo : lo + batch_size]
            _, grad = reference_loss_and_grad(spec, bind_training(spec, values, {idx.shape}),
                                              task.train_inputs[idx], task.train_labels[idx])
            if head_mode == "per_task":
                grad[head_start:] = 0.0
            values = values - lr * grad
    return values


def _stack_case(num_tasks, classes, activation="relu", head_mode="shared"):
    # 100 rows in batches of 64: every epoch ends on a short batch of 36
    family = TaskFamily(num_tasks=num_tasks, classes_per_task=classes, train_per_task=100,
                        unlabeled_per_task=10, test_per_task=40, seed=13)
    config = TrainConfig(hidden_dims=(8,), activation=activation, finetune_epochs=3,
                         head_mode=head_mode, accuracy_floor=0.0)
    tasks = generate_family(family)
    spec = model_spec(family, config)
    return tasks, spec, config, pretrain(spec, tasks, epochs=1, seed=13)


class TestStackedFinetune:
    @pytest.mark.parametrize("num_tasks,classes,activation,head_mode", [
        (3, 5, "relu", "shared"),
        (3, 5, "tanh", "shared"),
        (3, 5, "relu", "per_task"),
        (3, 12, "relu", "shared"),
        (3, 12, "tanh", "per_task"),
        (1, 5, "relu", "shared"),
        (1, 12, "tanh", "per_task"),
    ])
    def test_stack_keeps_the_bits_of_each_task_alone(self, num_tasks, classes, activation,
                                                     head_mode):
        tasks, spec, config, theta_pre = _stack_case(num_tasks, classes, activation, head_mode)
        stacked = finetune(spec, theta_pre, tasks, config.finetune_epochs, 0.05,
                           config.batch_size, 13, head_mode)
        assert len(stacked) == num_tasks
        for task, theta_ft in zip(tasks, stacked):
            reference = per_task_finetune(spec, theta_pre, task, config.finetune_epochs, 0.05,
                                          config.batch_size, 13, head_mode)
            assert theta_ft.tobytes() == reference.tobytes()

    def test_bounded_stacks_split_the_tasks_and_keep_the_bits(self, monkeypatch):
        tasks, spec, config, theta_pre = _stack_case(3, 5)
        monkeypatch.setattr(tasks_module, "STACK_PARAMS", 2 * spec.parameter_count + 1)
        groups = []

        def recorded(spec, theta_pre, stack, *args):
            groups.append([t.task_id for t in stack])
            return finetune(spec, theta_pre, stack, *args)

        monkeypatch.setattr(tasks_module, "finetune", recorded)
        ckpt = finetune_all(spec, theta_pre, tasks, config, 13)
        assert groups == [[0, 1], [2]]
        for task, theta_ft in zip(tasks, ckpt.finetuned):
            reference = per_task_finetune(spec, theta_pre, task, config.finetune_epochs,
                                          config.finetune_lr, config.batch_size, 13, "shared")
            assert theta_ft.tobytes() == reference.tobytes()

    @pytest.mark.parametrize("num_tasks", [None, 1, 3])
    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    @pytest.mark.parametrize("freeze_head", [False, True])
    def test_a_training_run_keeps_the_bits_of_the_unbound_loop(self, num_tasks, activation,
                                                             freeze_head):
        # num_tasks None: one (P,) model on (n, d) rows, as pretraining trains
        tasks, spec, config, theta_pre = _stack_case(num_tasks or 1, 5, activation)
        stack = np.stack if num_tasks else np.concatenate
        inputs, labels = (stack([t.train_inputs for t in tasks]),
                          stack([t.train_labels for t in tasks]))
        values = np.tile(theta_pre, (num_tasks, 1)) if num_tasks else theta_pre
        ours, theirs = values.copy(), values.copy()
        for side, train in ((ours, tasks_module._sgd_train), (theirs, reference_sgd_train)):
            train(spec, side, inputs, labels, 3, 0.05, config.batch_size,
                  [rng_for(13, STAGE_FINETUNE, t.task_id) for t in tasks], freeze_head)
        assert not np.array_equal(ours, values)
        assert ours.tobytes() == theirs.tobytes()

    def test_a_diverging_learning_rate_raises(self):
        tasks, spec, config, theta_pre = _stack_case(3, 5)
        with pytest.raises(ContractError, match="training diverged"):
            finetune(spec, theta_pre, tasks, 2, 1e300, 64, 13)

    def test_the_floor_error_names_the_lowest_failing_task(self):
        tasks, spec, config, theta_pre = _stack_case(3, 5)
        # zero epochs: every model is theta_pre; the floor fails the two weakest tasks
        own = [held_out(spec, theta_pre, t) for t in tasks]
        floor = sorted(own)[1] + 1e-9
        failing = [t for t, acc in enumerate(own) if acc < floor]
        assert len(failing) == 2
        config = TrainConfig(hidden_dims=(8,), finetune_epochs=0, accuracy_floor=floor)
        with pytest.raises(ContractError, match=f"task {failing[0]} fine-tuned accuracy"):
            finetune_all(spec, theta_pre, tasks, config, 13)


def recorded_steps(monkeypatch) -> list:
    """(losses bytes, thread ident) of each `loss_and_grad` call and (None, thread ident) of
    each `sgd_step` call that the training loop makes, from now on."""
    steps, kernel, step = [], tasks_module.loss_and_grad, tasks_module.sgd_step

    def recording_kernel(*args):
        losses, grad = kernel(*args)
        steps.append((np.asarray(losses).tobytes(), threading.get_ident()))
        return losses, grad

    def recording_step(*args):
        steps.append((None, threading.get_ident()))
        return step(*args)

    monkeypatch.setattr(tasks_module, "loss_and_grad", recording_kernel)
    monkeypatch.setattr(tasks_module, "sgd_step", recording_step)
    return steps


def off_and_on(monkeypatch, train) -> list:
    """(result, recorded steps, pairs run) of train() with the second slot forced off,
    then on."""
    runs, steps, pairs = [], recorded_steps(monkeypatch), counted_pairs(monkeypatch)
    for on in (False, True):
        force_helper(monkeypatch, on)
        runs.append((train(), steps[:], len(pairs)))
        del steps[:], pairs[:]
    return runs


class TestTwoSlots:
    """Forced on and off, a stack trained in two halves, the second on the helper thread,
    gives byte-equal checkpoints and losses."""

    @pytest.mark.parametrize("num_tasks,activation,head_mode", [
        (2, "relu", "shared"),
        (3, "relu", "shared"),
        (3, "tanh", "shared"),
        (3, "relu", "per_task"),
        (8, "tanh", "shared"),
        (8, "relu", "per_task"),
    ])
    def test_halves_keep_every_bit(self, num_tasks, activation, head_mode, monkeypatch):
        tasks, spec, config, theta_pre = _stack_case(num_tasks, 5, activation, head_mode)
        (off, off_steps, off_pairs), (on, on_steps, on_pairs) = off_and_on(
            monkeypatch, lambda: finetune(spec, theta_pre, tasks, config.finetune_epochs,
                                          0.05, config.batch_size, 13, head_mode))
        # 3 epochs of two batches: one pair a step
        assert (off_pairs, on_pairs) == (0, 6)
        assert [ft.tobytes() for ft in off] == [ft.tobytes() for ft in on]
        assert off_steps == on_steps and len(off_steps) == 6 * (1 + num_tasks)

    def test_several_stacks_bound_each_half(self, monkeypatch):
        tasks, spec, config, theta_pre = _stack_case(5, 5)
        monkeypatch.setattr(tasks_module, "STACK_PARAMS", 2 * spec.parameter_count + 1)
        groups, fine_tune = [], tasks_module.finetune

        def recorded(spec, theta_pre, stack, *args):
            groups.append([t.task_id for t in stack])
            return fine_tune(spec, theta_pre, stack, *args)

        monkeypatch.setattr(tasks_module, "finetune", recorded)
        (off, off_steps, _), (on, on_steps, on_pairs) = off_and_on(
            monkeypatch, lambda: finetune_all(spec, theta_pre, tasks, config, 13))
        # with two slots STACK_PARAMS bounds each half: two models a half, and the last
        # model trains alone on the calling thread
        assert groups == [[0, 1], [2, 3], [4], [0, 1, 2, 3], [4]]
        assert on_pairs == 6
        assert ([ft.tobytes() for ft in off.finetuned]
                == [ft.tobytes() for ft in on.finetuned])
        # the same losses, stacked in other groups
        off_losses, on_losses = (np.sort(np.frombuffer(b"".join(loss for loss, _ in steps if loss)))
                                 for steps in (off_steps, on_steps))
        assert off_losses.size == 5 * 6 and off_losses.tobytes() == on_losses.tobytes()

    def test_the_hooked_kernels_run_on_the_calling_thread(self, monkeypatch):
        tasks, spec, config, theta_pre = _stack_case(8, 5)
        force_helper(monkeypatch, True)
        steps, pairs = recorded_steps(monkeypatch), counted_pairs(monkeypatch)
        finetune(spec, theta_pre, tasks, config.finetune_epochs, 0.05, config.batch_size, 13)
        assert pairs and {ident for _, ident in steps} == {threading.get_ident()}

    def test_an_exception_in_the_helpers_half_reaches_the_caller(self, monkeypatch):
        # a label far outside the logits of the last model, in the helper's half: the loss
        # kernel's label lookup raises IndexError
        tasks, spec, config, theta_pre = _stack_case(3, 5)
        inputs = np.stack([t.train_inputs[:64] for t in tasks])
        labels = np.stack([t.train_labels[:64] for t in tasks])
        values = np.tile(theta_pre, (3, 1))
        force_helper(monkeypatch, True)
        bound = bind_pass(spec, values, {labels.shape}, feature_major=False)
        bad = labels.copy()
        bad[-1, -1] = 10**9
        pairs = counted_pairs(monkeypatch)
        with pytest.raises(IndexError):
            loss_and_grad(spec, bound, inputs, bad)
        # the next call runs a pair of its own, which gives the one-slot bits
        losses, grad = loss_and_grad(spec, bound, inputs, labels)
        force_helper(monkeypatch, False)
        ref_losses, ref_grad = loss_and_grad(
            spec, bind_pass(spec, values, {labels.shape}, feature_major=False), inputs, labels)
        assert pairs == [2, 2]
        assert losses.tobytes() == ref_losses.tobytes() and grad.tobytes() == ref_grad.tobytes()

    @pytest.mark.filterwarnings("error")
    def test_a_diverging_learning_rate_raises(self, monkeypatch):
        # and the helper's half runs under the loop's numpy error state: no overflow
        # warning, which this test raises, leaves either thread
        tasks, spec, config, theta_pre = _stack_case(3, 5)
        force_helper(monkeypatch, True)
        pairs = counted_pairs(monkeypatch)
        with pytest.raises(ContractError, match="training diverged"):
            finetune(spec, theta_pre, tasks, 2, 1e300, 64, 13)
        assert pairs

    def test_pretraining_runs_no_pair(self, monkeypatch):
        # one model: no second half to run beside it
        tasks, spec, config, _ = _stack_case(3, 5)
        force_helper(monkeypatch, True)
        pairs = counted_pairs(monkeypatch)
        pretrain(spec, tasks, epochs=2, seed=13)
        assert pairs == []


class TestPipelineReproducibility:
    def test_checkpoints_bit_identical_across_runs(self):
        family = TaskFamily(num_tasks=2, train_per_task=60, unlabeled_per_task=60,
                            test_per_task=60, seed=11)
        config = TrainConfig(hidden_dims=(8,), pretrain_epochs=4, finetune_epochs=40,
                             accuracy_floor=0.3)
        _, a = build_checkpoints(family, config)
        _, b = build_checkpoints(family, config)
        assert np.array_equal(a.pretrained, b.pretrained)
        for fa, fb in zip(a.finetuned, b.finetuned):
            assert np.array_equal(fa, fb)

    def test_floor_violation_reported(self):
        family = TaskFamily(num_tasks=2, train_per_task=60, unlabeled_per_task=60,
                            test_per_task=60, seed=11)
        config = TrainConfig(hidden_dims=(8,), pretrain_epochs=0, finetune_epochs=0)
        with pytest.raises(ContractError, match="below the floor"):
            build_checkpoints(family, config)
