import os
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from calmkit import calm, nn
from calmkit.calm import MergePlan, SequentialState, init_mask
from calmkit.nn import (
    ROW_BLOCK,
    ContractError,
    ModelSpec,
    _loss_and_dlogits,
    bind_pass,
    forward,
    helper_slots,
    init_params,
    layer_views,
    loss_and_grad,
    prediction_entropy,
    sgd_step,
    weighted_loss_and_grad,
)
import reference
from reference import cross_entropy, loss_and_dlogits, softmax


def forward_oracle(spec, values, inputs):
    """Straight-line re-implementation of the forward pass with explicit loops."""
    out = []
    for row in inputs:
        h = list(row)
        pos = 0
        for layer_idx, (fi, fo) in enumerate(spec.layer_dims):
            z = []
            for j in range(fo):
                acc = values[pos + fi * fo + j]  # bias
                for i in range(fi):
                    acc += h[i] * values[pos + i * fo + j]
                z.append(acc)
            pos += (fi + 1) * fo
            if layer_idx < len(spec.layer_dims) - 1:
                if spec.activation == "relu":
                    h = [max(v, 0.0) for v in z]
                else:
                    h = [np.tanh(v) for v in z]
            else:
                h = z
        out.append(h)
    return np.array(out)


def mean_reduction_loss_and_grad(spec, values, inputs, labels):
    """The training loss as the mean of -log softmax[label], and its gradient
    as softmax - onehot, divided by n, through an out-of-place forward and
    backward pass."""
    layers, pos = [], 0
    for fi, fo in spec.layer_dims:
        layers.append((values[pos : pos + fi * fo].reshape(fi, fo),
                       values[pos + fi * fo : pos + (fi + 1) * fo]))
        pos += (fi + 1) * fo
    acts = [inputs]
    for idx, (w, b) in enumerate(layers):
        z = acts[-1] @ w + b
        if idx < len(layers) - 1:
            z = np.maximum(z, 0.0) if spec.activation == "relu" else np.tanh(z)
        acts.append(z)
    n = len(inputs)
    shifted = acts[-1] - np.max(acts[-1], axis=1, keepdims=True)
    logp = shifted - np.log(np.sum(np.exp(shifted), axis=1, keepdims=True))
    loss = float(-np.mean(logp[np.arange(n), labels]))
    dz = softmax(acts[-1])
    dz[np.arange(n), labels] -= 1.0
    dz /= n
    grads = []
    for idx in range(len(layers) - 1, -1, -1):
        grads[:0] = [(acts[idx].T @ dz).reshape(-1), dz.sum(axis=0)]
        if idx > 0:
            da = dz @ layers[idx][0].T
            a = acts[idx]
            dz = da * (a > 0.0) if spec.activation == "relu" else da * (1.0 - a * a)
    return loss, np.concatenate(grads)


def bound_loss_and_grad(spec, values, inputs, labels):
    """`loss_and_grad` through a binding of `values` made as the training loop makes one."""
    return loss_and_grad(spec, bind_pass(spec, values, {labels.shape}, feature_major=False),
                         inputs, labels)


def label_positions(logits, labels):
    """Each column's flat position of its label in the memory of class-first logits."""
    steps = [stride // logits.itemsize for stride in logits.strides]
    *tasks, cols = np.indices(labels.shape, sparse=True)
    return labels * steps[-2] + cols * steps[-1] + sum(i * s for i, s in zip(tasks, steps[:-2]))


def zero_params(spec):
    return np.zeros(spec.parameter_count)


def finite_diff(f, x, h=1e-4):
    g = np.zeros_like(x)
    for i in range(x.size):
        xp = x.copy()
        xp[i] += h
        xm = x.copy()
        xm[i] -= h
        g[i] = (f(xp) - f(xm)) / (2.0 * h)
    return g


class TestSpecAndParams:
    def test_parameter_count(self):
        spec = ModelSpec(16, (32,), 5)
        assert spec.parameter_count == 17 * 32 + 33 * 5

    def test_layer_offsets_partition(self):
        spec = ModelSpec(4, (3, 2), 5, activation="tanh")
        offsets = spec.layer_offsets()
        assert offsets[0] == (0, 5 * 3)
        assert offsets[-1][0] + offsets[-1][1] == spec.parameter_count

    def test_invalid_specs(self):
        with pytest.raises(ContractError):
            ModelSpec(0, (4,), 3)
        with pytest.raises(ContractError):
            ModelSpec(4, (4,), 1)
        with pytest.raises(ContractError):
            ModelSpec(4, (4,), 3, activation="gelu")


class TestForward:
    def test_zero_weights_give_zero_logits(self):
        spec = ModelSpec(3, (4,), 2)
        logits = forward(spec, zero_params(spec), np.ones((5, 3)))
        assert np.array_equal(logits, np.zeros((5, 2)))

    def test_single_linear_layer_by_hand(self):
        # W = [[1, -1]] (one input, two classes), zero bias, input [2] -> [2, -2]
        spec = ModelSpec(1, (), 2)
        params = np.array([1.0, -1.0, 0.0, 0.0])
        logits = forward(spec, params, np.array([[2.0]]))
        assert np.array_equal(logits, np.array([[2.0, -2.0]]))

    def test_matches_straight_line_oracle(self):
        spec = ModelSpec(6, (5, 4), 3)
        params = init_params(spec, 7)
        inputs = np.ones((2, 6))
        expected = forward_oracle(spec, params, inputs)
        assert np.allclose(forward(spec, params, inputs), expected, rtol=0, atol=1e-12)

    def test_dimension_mismatch_names_axis(self):
        spec = ModelSpec(3, (), 2)
        with pytest.raises(ContractError, match="axis 1"):
            forward(spec, zero_params(spec), np.ones((2, 4)))

    def test_deterministic(self):
        spec = ModelSpec(4, (6,), 3, activation="tanh")
        params = init_params(spec, 11)
        x = np.random.default_rng(0).standard_normal((8, 4))
        assert np.array_equal(forward(spec, params, x), forward(spec, params, x))


class TestCrossEntropy:
    def test_huge_margin_loss_near_zero(self):
        logits = np.array([[100.0, 0.0, 0.0]])
        assert cross_entropy(logits, np.array([0])) < 1e-12

    def test_uniform_logits_is_log_c(self):
        logits = np.zeros((3, 4))
        assert np.isclose(cross_entropy(logits, np.array([0, 1, 3])), np.log(4.0),
                          rtol=0, atol=1e-15)

    def test_two_class_closed_form(self):
        # -log softmax([1, 2])[0] = log(e + e^2) - 1 = log(1 + e)
        loss = cross_entropy(np.array([[1.0, 2.0]]), np.array([0]))
        assert np.isclose(loss, np.log(1.0 + np.e), rtol=0, atol=1e-15)
        assert np.isclose(loss, 1.3132616875182228, rtol=0, atol=1e-12)

    def test_label_out_of_range(self):
        with pytest.raises(ContractError, match="labels"):
            cross_entropy(np.zeros((1, 3)), np.array([3]))

    def test_nonnegative(self):
        rng = np.random.default_rng(9)
        z = rng.standard_normal((20, 5)) * 5.0
        y = rng.integers(0, 5, size=20)
        assert cross_entropy(z, y) >= 0.0


class TestPredictionEntropy:
    def test_uniform_is_log_c(self):
        assert np.isclose(prediction_entropy(np.zeros(4)), np.log(4.0), rtol=0, atol=1e-12)

    def test_one_hot_limit(self):
        assert prediction_entropy(np.array([50.0, 0.0, 0.0])) < 1e-9

    def test_direct_summation_oracle(self):
        # logits = log p reproduce p = (0.5, 0.25, 0.25); H = 1.5 ln 2
        logits = np.log(np.array([0.5, 0.25, 0.25]))
        p = softmax(logits)
        oracle = -sum(pi * np.log(pi) for pi in p)
        h = prediction_entropy(logits)
        assert np.isclose(h, oracle, rtol=0, atol=1e-15)
        assert np.isclose(h, 1.5 * np.log(2.0), rtol=0, atol=1e-12)
        assert np.isclose(h, 1.0397207708399179, rtol=0, atol=1e-12)

    def test_bounds_on_random_logits(self):
        rng = np.random.default_rng(17)
        for _ in range(300):
            c = int(rng.integers(2, 8))
            z = rng.standard_normal(c) * float(rng.uniform(0.1, 300.0))
            h = prediction_entropy(z)
            assert 0.0 <= h <= np.log(c) + 1e-12

    def test_shift_invariance_exact_on_dyadic_inputs(self):
        # entries and shifts on a 2^-10 grid are exactly representable, so the
        # stabilized computation sees identical differences and must match bitwise
        rng = np.random.default_rng(5)
        for _ in range(200):
            z = rng.integers(-8192, 8192, size=(3, 6)) / 1024.0
            c = rng.integers(-1024000, 1024000) / 1024.0
            assert np.array_equal(prediction_entropy(z), prediction_entropy(z + c))

    def test_maximal_iff_constant(self):
        assert abs(prediction_entropy(np.full(5, 3.25)) - np.log(5.0)) <= 1e-12
        assert prediction_entropy(np.array([3.25, 3.25, 3.0])) < np.log(3.0) - 1e-6


class TestLossAndGrad:
    def test_zero_gradient_at_symmetric_minimum(self):
        # bias-only toy: zero inputs, the two labels balance exactly
        spec = ModelSpec(1, (), 2)
        inputs, labels = np.zeros((2, 1)), np.array([0, 1])
        _, grad = bound_loss_and_grad(spec, zero_params(spec), inputs, labels)
        assert np.allclose(grad, 0.0, rtol=0, atol=1e-15)

    def test_matches_finite_differences_tanh(self):
        spec = ModelSpec(5, (6,), 4, activation="tanh")
        rng = np.random.default_rng(23)
        params = init_params(spec, 23)
        inputs, labels = rng.standard_normal((8, 5)), rng.integers(0, 4, size=8)
        _, analytic = bound_loss_and_grad(spec, params, inputs, labels)

        def f(values):
            return cross_entropy(forward(spec, values, inputs), labels)

        numeric = finite_diff(f, params.copy())
        rel = np.abs(analytic - numeric) / np.maximum(np.abs(numeric), 1e-6)
        assert rel.max() < 1e-4

    def test_loss_decreases_along_negative_gradient(self):
        spec = ModelSpec(3, (4,), 3, activation="tanh")
        rng = np.random.default_rng(29)
        params = init_params(spec, 29)
        inputs, labels = rng.standard_normal((16, 3)), rng.integers(0, 3, size=16)
        loss, grad = bound_loss_and_grad(spec, params, inputs, labels)
        assert grad @ grad > 0.0
        stepped = params.copy()
        sgd_step(stepped, grad, 1e-3)
        new_loss = cross_entropy(forward(spec, stepped, inputs), labels)
        assert new_loss < loss

    def test_loss_equals_forward_cross_entropy(self):
        spec = ModelSpec(4, (5,), 3)
        rng = np.random.default_rng(31)
        params = init_params(spec, 31)
        inputs, labels = rng.standard_normal((10, 4)), rng.integers(0, 3, size=10)
        loss, _ = bound_loss_and_grad(spec, params, inputs, labels)
        direct = cross_entropy(forward(spec, params, inputs), labels)
        assert loss == direct

    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    def test_gradient_bits_match_the_mean_reduction(self, activation):
        # 10 rows: dz / n and dz * (1 / n) round differently when n is not a power of two
        spec = ModelSpec(4, (6, 5), 3, activation=activation)
        rng = np.random.default_rng(41)
        params = init_params(spec, 41)
        inputs, labels = rng.standard_normal((10, 4)), rng.integers(0, 3, size=10)
        got_loss, got_grad = bound_loss_and_grad(spec, params, inputs, labels)
        loss, grad = mean_reduction_loss_and_grad(spec, params, inputs, labels)
        assert got_loss == loss
        assert got_grad.tobytes() == grad.tobytes()

    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    @pytest.mark.parametrize("classes", [8, 17])
    @pytest.mark.parametrize("rows", [10, 200])
    def test_class_first_kernel_keeps_the_bits_at_many_classes(self, activation, classes, rows):
        # from 8 classes numpy sums a contiguous row pairwise, not left to right, so
        # the kernel must reduce along the same memory as the row-wise oracle
        spec = ModelSpec(4, (6, 5), classes, activation=activation)
        rng = np.random.default_rng(classes + rows)
        params = init_params(spec, 7)
        inputs = 3.0 * rng.standard_normal((rows, 4))
        labels = rng.integers(0, classes, size=rows)
        got_loss, got_grad = bound_loss_and_grad(spec, params, inputs, labels)
        loss, grad = mean_reduction_loss_and_grad(spec, params, inputs, labels)
        assert got_loss == loss
        assert got_grad.tobytes() == grad.tobytes()
        assert got_loss == cross_entropy(forward(spec, params, inputs), labels)

    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    @pytest.mark.parametrize("classes", [3, 12])
    def test_a_stack_gives_each_model_the_bits_of_its_own_pass(self, activation, classes):
        spec = ModelSpec(4, (6, 5), classes, activation=activation)
        rng = np.random.default_rng(classes)
        values = np.stack([init_params(spec, seed) for seed in range(3)])
        inputs = rng.standard_normal((3, 10, 4))
        labels = rng.integers(0, classes, size=(3, 10))
        losses, grads = bound_loss_and_grad(spec, values, inputs, labels)
        assert losses.shape == (3,) and grads.shape == values.shape
        for t in range(3):
            loss, grad = bound_loss_and_grad(spec, values[t], inputs[t], labels[t])
            assert losses[t] == loss
            assert grads[t].tobytes() == grad.tobytes()

    def test_deterministic(self):
        spec = ModelSpec(4, (5,), 3, activation="tanh")
        rng = np.random.default_rng(37)
        params = init_params(spec, 37)
        inputs, labels = rng.standard_normal((6, 4)), rng.integers(0, 3, size=6)
        loss_a, grad_a = bound_loss_and_grad(spec, params, inputs, labels)
        loss_b, grad_b = bound_loss_and_grad(spec, params, inputs, labels)
        assert loss_a == loss_b
        assert np.array_equal(grad_a, grad_b)


def kernel_layouts(classes, scale):
    """The logit layouts callers hand the class-first kernel: the mask objective's
    C-contiguous (classes, rows) block, training's swapaxes view of (rows, classes)
    logits, and its (T, classes, rows) stack, a view of (T, rows, classes) logits."""
    rng = np.random.default_rng(classes)
    rows, stack = 300, (4, 300)
    return {
        "class_first": (scale * rng.standard_normal((classes, rows)),
                        rng.integers(0, classes, size=rows)),
        "row_major_view": (scale * rng.standard_normal((rows, classes)).swapaxes(-1, -2),
                           rng.integers(0, classes, size=rows)),
        "task_stack": (scale * rng.standard_normal((*stack, classes)).swapaxes(-1, -2),
                       rng.integers(0, classes, size=stack)),
    }


class TestLossKernel:
    @pytest.mark.parametrize("layout", ["class_first", "row_major_view", "task_stack"])
    @pytest.mark.parametrize("classes", [3, 5, 17])
    @pytest.mark.parametrize("scale", [1.0, 40.0])  # 40: most probabilities underflow
    @pytest.mark.parametrize("objective", ["cross_entropy", "entropy"])
    def test_matches_the_reference_kernel_bit_for_bit(self, layout, classes, scale, objective):
        logits, labels = kernel_layouts(classes, scale)[layout]
        labels = labels if objective == "cross_entropy" else None
        before = logits.copy()
        at = None if labels is None else label_positions(logits, labels)
        losses, dlogits = _loss_and_dlogits(logits, at)
        assert np.array_equal(logits, before)
        # the sparse-index kernel and the one-hot kernel that the label positions replaced
        for ref_losses, ref_dlogits in (loss_and_dlogits(logits, labels),
                                        reference.onehot_loss_and_dlogits(logits, labels)):
            assert losses.shape == ref_losses.shape and dlogits.shape == ref_dlogits.shape
            # the gradient keeps the logits' layout: training swaps it back to row-major
            assert dlogits.strides == ref_dlogits.strides
            assert losses.tobytes() == ref_losses.tobytes()
            assert dlogits.tobytes() == ref_dlogits.tobytes()

    def test_an_infinite_logit_off_the_label_keeps_the_loss_finite(self):
        logits = np.array([[0.5, -np.inf], [-1.0, 2.0], [3.0, -0.5]])
        labels = np.array([2, 1])
        losses, dlogits = _loss_and_dlogits(logits, label_positions(logits, labels))
        assert np.all(np.isfinite(losses))
        for ref_losses, ref_dlogits in (loss_and_dlogits(logits, labels),
                                        reference.onehot_loss_and_dlogits(logits, labels)):
            assert losses.tobytes() == ref_losses.tobytes()
            assert dlogits.tobytes() == ref_dlogits.tobytes()


def step_case(stack, activation, classes, rows=50):
    """Parameters, (rows, 4) inputs and labels of one model, or of a stack of models."""
    spec = ModelSpec(4, (6, 5), classes, activation=activation)
    rng = np.random.default_rng(classes + rows)
    lead = () if stack is None else (stack,)
    values = np.stack([init_params(spec, seed) for seed in range(stack or 1)])
    return (spec, values.reshape(*lead, -1), 2.0 * rng.standard_normal((*lead, rows, 4)),
            rng.integers(0, classes, size=(*lead, rows)))


class TestBoundKernels:
    """The kernels that write through buffers bound once per loop against the ones that
    allocated every step, copied into the reference module, bit for bit."""

    @pytest.mark.parametrize("stack", [None, 1, 3])
    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    @pytest.mark.parametrize("classes", [2, 5, 17])
    def test_training_steps_match_the_allocating_kernel(self, stack, activation, classes):
        # 50 rows in batches of 16: the binding covers two batch shapes
        spec, values, inputs, labels = step_case(stack, activation, classes)
        theirs = values.copy()
        lead = labels.shape[:-1]
        bound = bind_pass(spec, values, {(*lead, 16), (*lead, 2)}, feature_major=False)
        ref_bound = reference.bind_training(spec, theirs, {(*lead, 16), (*lead, 2)})
        for epoch in range(2):
            for lo in range(0, 50, 16):
                rows = slice(lo, lo + 16)
                loss, grad = loss_and_grad(spec, bound, inputs[..., rows, :], labels[..., rows])
                ref_loss, ref_grad = reference.loss_and_grad(spec, ref_bound,
                                                             inputs[..., rows, :],
                                                             labels[..., rows])
                assert grad is bound[1] and type(loss) is type(ref_loss)
                assert np.asarray(loss).tobytes() == np.asarray(ref_loss).tobytes()
                assert grad.tobytes() == ref_grad.tobytes()
                sgd_step(values, grad, 0.1)
                reference.sgd_step(theirs, ref_grad, 0.1)
                assert values.tobytes() == theirs.tobytes()

    @pytest.mark.parametrize("rows", [1, ROW_BLOCK - 1, ROW_BLOCK, ROW_BLOCK + 1,
                                      2 * ROW_BLOCK + 1])
    @pytest.mark.parametrize("objective", ["cross_entropy", "entropy"])
    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    @pytest.mark.parametrize("classes", [2, 5, 17])
    def test_the_mask_pass_matches_the_allocating_kernel(self, rows, objective, activation,
                                                         classes):
        spec, values, inputs, labels = step_case(2, activation, classes, rows)
        labels = labels[0] if objective == "cross_entropy" else None
        weights = np.random.default_rng(rows).uniform(0.0, 1.0 / rows, size=rows)
        # as the mask step binds it: a parameter buffer, refilled in place
        theta = np.empty(spec.parameter_count)
        bound = bind_pass(spec, theta, {(rows,)}, feature_major=True)
        for model in values:
            np.copyto(theta, model)
            loss, grad = weighted_loss_and_grad(spec, bound, inputs[0], labels, weights)
            ref_loss, ref_grad = reference.weighted_loss_and_grad(
                spec, layer_views(spec, model), inputs[0], labels, weights)
            assert grad is bound[1][0][0]
            assert loss == ref_loss and grad.tobytes() == ref_grad.tobytes()

    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    @pytest.mark.parametrize("hidden", [(), (6,), (6, 7, 5)])
    def test_each_depth_matches_the_allocating_kernels(self, hidden, activation):
        # with no hidden layer no dz is written over an activation; with three, each
        # dz is written over the hidden output that the layer before it consumed
        spec = ModelSpec(4, hidden, 3, activation)
        rng = np.random.default_rng(len(hidden))
        values = init_params(spec, 9).copy()
        inputs, labels = rng.standard_normal((40, 4)), rng.integers(0, 3, size=40)
        loss, grad = bound_loss_and_grad(spec, values, inputs, labels)
        ref_loss, ref_grad = reference.loss_and_grad(
            spec, reference.bind_training(spec, values, {labels.shape}), inputs, labels)
        assert loss == ref_loss and grad.tobytes() == ref_grad.tobytes()
        weights = rng.uniform(0.0, 1.0 / 40, size=40)
        loss, grad = weighted_loss_and_grad(spec, bind_pass(spec, values, {(40,)}, True),
                                            inputs, labels, weights)
        ref_loss, ref_grad = reference.weighted_loss_and_grad(spec, layer_views(spec, values),
                                                              inputs, labels, weights)
        assert loss == ref_loss and grad.tobytes() == ref_grad.tobytes()

    def test_an_infinite_logit_off_the_label_stays_out_of_both_kernels(self):
        # an infinite output bias on the one class that no row is labeled with
        spec, values, inputs, labels = step_case(None, "tanh", 3, rows=40)
        values[-1], labels = -np.inf, labels % 2
        loss, grad = bound_loss_and_grad(spec, values, inputs, labels)
        ref_loss, ref_grad = reference.loss_and_grad(
            spec, reference.bind_training(spec, values, {labels.shape}), inputs, labels)
        assert np.isfinite(loss) and loss == ref_loss and grad.tobytes() == ref_grad.tobytes()
        weights = np.full(40, 1.0 / 40)
        loss, grad = weighted_loss_and_grad(spec, bind_pass(spec, values, {(40,)}, True),
                                            inputs, labels, weights)
        ref_loss, ref_grad = reference.weighted_loss_and_grad(spec, layer_views(spec, values),
                                                              inputs, labels, weights)
        assert np.isfinite(loss) and loss == ref_loss and grad.tobytes() == ref_grad.tobytes()


class TestHelperThread:
    """A binding with a second block slot runs every second block of the weighted pass on
    the helper thread, with the bits of the one-slot pass."""

    @pytest.mark.parametrize("rows", [1, ROW_BLOCK + 1, 2 * ROW_BLOCK + 1, 4 * ROW_BLOCK + 3])
    @pytest.mark.parametrize("objective", ["cross_entropy", "entropy"])
    def test_two_slots_give_the_bits_of_one(self, rows, objective, monkeypatch):
        spec, values, inputs, labels = step_case(None, "tanh", 5, rows)
        labels = labels if objective == "cross_entropy" else None
        weights = np.random.default_rng(rows).uniform(0.0, 1.0 / rows, size=rows)
        ran = reference.counted_pairs(monkeypatch)
        results = []
        for on in (False, True):
            reference.force_helper(monkeypatch, on)
            bound = bind_pass(spec, values, {(rows,)}, feature_major=True)
            loss, grad = weighted_loss_and_grad(spec, bound, inputs, labels, weights)
            results.append((loss, grad.tobytes()))
        assert results[0] == results[1]
        assert ran == [2] * (-(-rows // ROW_BLOCK) // 2)

    @pytest.mark.parametrize("where", ["caller", "helper"])
    def test_an_exception_in_either_block_reaches_the_caller(self, where, monkeypatch):
        # a label far outside the logits of the first row (the caller's block) or of the
        # last (the helper's): the loss kernel's label lookup raises IndexError
        rows = ROW_BLOCK + 10
        spec, values, inputs, labels = step_case(None, "relu", 5, rows)
        weights = np.full(rows, 1.0 / rows)
        reference.force_helper(monkeypatch, True)
        bound = bind_pass(spec, values, {(rows,)}, feature_major=True)
        bad = labels.copy()
        bad[0 if where == "caller" else -1] = 10**9
        ran = reference.counted_pairs(monkeypatch)
        with pytest.raises(IndexError):
            weighted_loss_and_grad(spec, bound, inputs, bad, weights)
        # the helper serves the next call, which gives the one-slot bits
        loss, grad = weighted_loss_and_grad(spec, bound, inputs, labels, weights)
        reference.force_helper(monkeypatch, False)
        ref_loss, ref_grad = weighted_loss_and_grad(
            spec, bind_pass(spec, values, {(rows,)}, True), inputs, labels, weights)
        assert loss == ref_loss and grad.tobytes() == ref_grad.tobytes()
        assert ran == [2, 2]

    def test_callers_on_several_threads_share_the_helper(self, monkeypatch):
        # four threads, more than the host's cores, each with its own two-slot binding,
        # at a switch interval that interleaves them often: every call keeps its bits
        rows = ROW_BLOCK + 100
        spec, values, inputs, labels = step_case(None, "relu", 5, rows)
        weights = np.full(rows, 1.0 / rows)
        reference.force_helper(monkeypatch, False)
        ref_loss, ref_grad = weighted_loss_and_grad(
            spec, bind_pass(spec, values, {(rows,)}, True), inputs, labels, weights)
        reference.force_helper(monkeypatch, True)
        bounds = [bind_pass(spec, values, {(rows,)}, feature_major=True) for _ in range(4)]
        same = []

        def caller(bound):
            for _ in range(20):
                loss, grad = weighted_loss_and_grad(spec, bound, inputs, labels, weights)
                same.append(loss == ref_loss and grad.tobytes() == ref_grad.tobytes())

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=caller, args=(bound,)) for bound in bounds]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert same == [True] * 80

    def test_two_slots_take_two_cpus_and_the_floor(self, monkeypatch):
        # the benchmark's sizes at both sides of the floor: the default (32,) MLP's largest
        # second part, a mask pass's second block of 1,024 rows at 672 multiply-adds a row
        # (0.69M), stays below it; (256, 256)'s smallest, a fine-tune half of 4 models'
        # 64-row batches at 70,912 (18.2M), reaches it, on two CPUs only
        small, wide = ModelSpec(16, (32,), 5), ModelSpec(16, (256, 256), 5)
        floor_rows = -(-nn.HELPER_MACS // sum(fi * fo for fi, fo in small.layer_dims))
        for cpus, expected in (({0, 1}, [1, 1, 2, 2]), ({0}, [1, 1, 1, 1])):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
            assert [helper_slots(small, ROW_BLOCK), helper_slots(small, floor_rows - 1),
                    helper_slots(small, floor_rows), helper_slots(wide, 4 * 64)] == expected
        monkeypatch.delattr(os, "sched_getaffinity")
        assert helper_slots(wide, 4 * 64) == 1

    @pytest.mark.parametrize("cpus", [{0, 1}, {0}])
    def test_a_binding_takes_two_slots_exactly_where_helper_slots_gives_them(self, cpus,
                                                                             monkeypatch):
        # feature-major the second block's rows, min(ROW_BLOCK, rows - ROW_BLOCK), and
        # row-major a stack's second half, floor(T / 2) models of its largest batch; one
        # slot with no second block or at T = 1
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
        floor_rows = -(-nn.HELPER_MACS // sum(fi * fo for fi, fo in WIDE.layer_dims))
        assert floor_rows < ROW_BLOCK
        taken = []
        for rows in (1, ROW_BLOCK, ROW_BLOCK + floor_rows - 1, ROW_BLOCK + floor_rows,
                     3 * ROW_BLOCK + 5):
            bound = bind_pass(WIDE, np.empty(WIDE.parameter_count), {(rows,)}, True)
            second = min(ROW_BLOCK, rows - ROW_BLOCK)
            assert len(bound[2]) == (helper_slots(WIDE, second) if rows > ROW_BLOCK else 1)
            taken.append(len(bound[2]))
        for models in (1, 2, 3, 5):
            values = np.empty((models, WIDE.parameter_count))
            for rows in (floor_rows // (models // 2 or 1) - 1, floor_rows):
                bound = bind_pass(WIDE, values, {(models, rows), (models, 3)}, False)
                two = models > 1 and helper_slots(WIDE, models // 2 * rows) == 2
                assert len(bound[4]) == (2 if two else 0)
                taken.append(2 if two else 1)
        assert taken == ([1, 1, 1, 2, 2] + [1, 1] + [1, 2] * 3 if len(cpus) == 2
                         else [1] * 13)
        bound = bind_pass(WIDE, np.empty(WIDE.parameter_count), {(floor_rows,)}, False)
        assert bound[4] == ()

    @pytest.mark.parametrize("where", ["caller", "helper"])
    def test_a_job_that_runs_a_pair_runs_it_itself(self, where):
        # the helper takes one pair at a time: a pair run from a job of a pair, on the
        # calling thread or on the helper, must not wait for the pair that runs it
        ran = []

        def job(name):
            ran.append((name, threading.get_ident()))
            return name

        def pair():
            ran.append(("pair", threading.get_ident()))
            return nn._run_beside(lambda: job("a"), lambda: job("b"))

        jobs = (pair, lambda: "other") if where == "caller" else (lambda: "other", pair)
        results = []
        thread = threading.Thread(target=lambda: results.append(nn._run_beside(*jobs)),
                                  daemon=True)
        thread.start()
        thread.join(timeout=30)
        assert not thread.is_alive()
        nested = ["a", "b"]
        assert results == [[nested, "other"] if where == "caller" else ["other", nested]]
        (_, runner), *inner = ran
        assert [name for name, _ in inner] == ["a", "b"]
        assert {ident for _, ident in inner} == {runner}
        assert (runner == thread.ident) == (where == "caller")

    def test_the_helper_is_one_daemon_thread(self, monkeypatch):
        rows = ROW_BLOCK + 10
        spec, values, inputs, labels = step_case(None, "relu", 5, rows)
        reference.force_helper(monkeypatch, True)
        bound = bind_pass(spec, values, {(rows,)}, feature_major=True)
        for _ in range(3):
            weighted_loss_and_grad(spec, bound, inputs, labels, np.full(rows, 1.0 / rows))
        helpers = [t for t in threading.enumerate() if isinstance(t, nn._Helper)]
        assert helpers == nn._HELPER and len(helpers) == 1 and helpers[0].daemon


# one (256, ROW_BLOCK) float64 block: what a width-256 layer's output over a block takes
BLOCK_BYTES = 256 * ROW_BLOCK * 8
WIDE = ModelSpec(4, (256, 256), 3)


class TestAllocationFreeSteps:
    """After its first step, a loop writes every activation and backward array through
    what it bound: tracemalloc's peak over later steps stays below one block, which the
    kernels that allocated every step reached several times over."""

    @pytest.mark.parametrize("slots", [1, 2])
    def test_a_training_step_allocates_no_block(self, slots, monkeypatch):
        rng = np.random.default_rng(3)
        values = np.stack([init_params(WIDE, seed) for seed in range(2)])
        # a stack of two 512-row batches: each layer's output spans ROW_BLOCK rows; with
        # two slots each model is a half, one on the helper thread
        inputs, labels = rng.standard_normal((2, 512, 4)), rng.integers(0, 3, size=(2, 512))
        reference.force_helper(monkeypatch, slots == 2)
        bound = bind_pass(WIDE, values, {labels.shape}, feature_major=False)

        def step():
            _, grad = loss_and_grad(WIDE, bound, inputs, labels)
            for model, model_grad in zip(values, grad):
                sgd_step(model, model_grad, 0.01)

        step()
        tracemalloc.start()
        try:
            step()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < BLOCK_BYTES

    def test_a_mask_iteration_allocates_no_block(self, monkeypatch):
        rng = np.random.default_rng(5)
        size = WIDE.parameter_count
        theta_pre = init_params(WIDE, 5)
        state = SequentialState(0.01 * rng.standard_normal(size), (0,))
        tau_j = 0.01 * rng.standard_normal(size)
        # two drawn 600-row batches a step: a block of ROW_BLOCK rows and one of 176
        data = {0: (rng.standard_normal((1500, 4)), rng.integers(0, 3, size=1500))}
        plan = MergePlan((0,), iterations_per_task=3, batches_per_task=2, batch_size=600)
        calls, peaks = [], []

        def objective(*args, **kwargs):
            calls.append(len(calls))
            if len(calls) == 3:  # the second iteration ran traced
                peaks.append(tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()
            result = consensus_objective(*args, **kwargs)
            if len(calls) == 1:
                tracemalloc.start()
            return result

        consensus_objective = calm.consensus_objective
        monkeypatch.setattr(calm, "consensus_objective", objective)
        try:
            calm.optimize_mask(WIDE, theta_pre, state, tau_j, data,
                               init_mask(size, 1e-5, np.random.default_rng(0)), plan,
                               np.random.default_rng(1))
        finally:
            tracemalloc.stop()
        assert len(calls) == 3 and peaks[0] < BLOCK_BYTES

    def test_a_wide_binding_holds_only_outputs_scratch_and_gradient(self, monkeypatch):
        # feature-major over two blocks, ROW_BLOCK rows and 476, in one slot: sized for the
        # larger, with the pass's gradient and one spare; the backward pass writes each dz
        # over an output, so no dz buffer is bound
        reference.force_helper(monkeypatch, False)
        theta = np.empty(WIDE.parameter_count)
        tracemalloc.start()
        try:
            bind_pass(WIDE, theta, {(ROW_BLOCK + 476,)}, feature_major=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        outputs = ROW_BLOCK * sum(fo for _, fo in WIDE.layer_dims) * 8
        scratch = ROW_BLOCK * max(WIDE.hidden_dims)  # bool, for relu
        # the views and each entry's row offsets take a few tens of KB
        gradients = 2 * theta.nbytes
        assert outputs + scratch + gradients <= peak < outputs + scratch + gradients + 2**16


class TestSgdStep:
    def test_zero_learning_rate(self):
        values = np.zeros(4)
        sgd_step(values, np.ones(4), 0.0)
        assert np.array_equal(values, np.zeros(4))

    def test_componentwise_arithmetic(self):
        values = np.array([1.0, 1.0, 1.0, 1.0])
        sgd_step(values, np.array([1.0, -1.0, 0.0, 0.0]), 0.5)
        assert np.array_equal(values, np.array([0.5, 1.5, 1.0, 1.0]))

    def test_converges_on_convex_quadratic(self):
        # f(x) = 0.5 (x - m)^T A (x - m) with known minimizer m
        rng = np.random.default_rng(41)
        target = rng.standard_normal(4)
        a_diag = rng.uniform(0.5, 2.0, size=4)
        values = np.zeros(4)
        for _ in range(500):
            sgd_step(values, a_diag * (values - target), 0.2)
        assert np.allclose(values, target, rtol=0, atol=1e-10)

    def test_length_mismatch(self):
        with pytest.raises(ContractError):
            sgd_step(np.zeros(4), np.ones(1), 0.1)


class TestGradientExactnessSweep:
    def test_random_instances(self):
        # broad sweep kept smaller here; the acceptance suite runs the full 100
        rng = np.random.default_rng(101)
        worst = 0.0
        for trial in range(25):
            hidden = tuple(rng.integers(2, 7, size=rng.integers(0, 3)))
            spec = ModelSpec(int(rng.integers(2, 6)), hidden, int(rng.integers(2, 5)),
                             activation="tanh")
            if spec.parameter_count > 200:
                continue
            params = init_params(spec, int(rng.integers(0, 10_000)))
            inputs = rng.standard_normal((5, spec.input_dim))
            labels = rng.integers(0, spec.num_classes, size=5)
            _, analytic = bound_loss_and_grad(spec, params, inputs, labels)

            def f(values, spec=spec, inputs=inputs, labels=labels):
                return cross_entropy(forward(spec, values, inputs), labels)

            numeric = finite_diff(f, params.copy())
            rel = np.abs(analytic - numeric) / np.maximum(np.abs(numeric), 1e-6)
            worst = max(worst, rel.max())
        assert worst < 1e-4
