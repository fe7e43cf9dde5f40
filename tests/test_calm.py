import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from calmkit import calm
from calmkit.baselines import task_arithmetic, task_vector
from calmkit.calm import (
    MergePlan,
    SequentialState,
    _bind_pool,
    _row_pool,
    binarize,
    consensus_objective,
    efficient_merge,
    init_mask,
    masked_merge,
    optimize_mask,
    partition,
    sequential_merge,
    sigmoid,
)
from calmkit.nn import (
    ROW_BLOCK,
    ContractError,
    ModelSpec,
    forward,
    init_params,
    layer_views,
)
from calmkit.sampling import score_pool, select_cb_ems
from calmkit.tasks import Checkpoints, TaskFamily, TrainConfig
from reference import (_backward, _forward_acts, build_checkpoints, counted_pairs, cross_entropy,
                       force_helper, softmax)
from reference import optimize_mask as reference_optimize_mask
from reference import sigmoid as reference_sigmoid


SPEC = ModelSpec(3, (4,), 3, activation="tanh")  # n = 16 + 15 = 31
N = SPEC.parameter_count
GENERATORS = (np.random.PCG64, np.random.MT19937, np.random.Philox)


def same_state(a: np.random.Generator, b: np.random.Generator) -> bool:
    """Whether two generators' bit generators are in the same state, arrays included."""
    def equal(x, y):
        if isinstance(x, dict):
            return x.keys() == y.keys() and all(equal(x[key], y[key]) for key in x)
        return np.array_equal(x, y)
    return equal(a.bit_generator.state, b.bit_generator.state)


def seeded_mask(seed: int) -> np.ndarray:
    """The initial logits r over SPEC's parameters at a tenth active, from `seed`."""
    return init_mask(N, 0.1, np.random.default_rng(seed))


def first_rows(sizes: dict) -> dict:
    """Each task's first row in the step's pool, for sets of `sizes` rows stacked in
    the order of the dict."""
    return dict(zip(sizes, np.cumsum([0, *sizes.values()]).tolist()))


def recorded_batches(sizes: dict, plan: MergePlan, rng: np.random.Generator) -> list:
    """The row-index batches optimize_mask hands the objective, one {task: [batch, ...]}
    per iteration, for credible sets of `sizes` rows visible in the order of the dict.
    The objective is replaced by a stub that records them and returns a zero gradient."""
    task_data = {t: (np.zeros((n, 3)), np.zeros(n, dtype=np.int64)) for t, n in sizes.items()}
    state = SequentialState(np.zeros(N), tuple(sizes))
    drawn = []

    def recording(*args):
        drawn.append({t: [idx.copy() for idx in args[5][t]] for t in state.visible_tasks})
        return 0.0, np.zeros(N)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(calm, "consensus_objective", recording)
        optimize_mask(SPEC, init_params(SPEC, 0), state, np.ones(N),
                      task_data, seeded_mask(0), plan, rng)
    return drawn


def small_setup(seed=0):
    rng = np.random.default_rng(seed)
    theta_pre = init_params(SPEC, seed)
    tau_seq = rng.standard_normal(N) * 0.3
    tau_j = rng.standard_normal(N) * 0.3
    batches = {
        0: [(rng.standard_normal((6, 3)), rng.integers(0, 3, size=6))],
        1: [(rng.standard_normal((6, 3)), rng.integers(0, 3, size=6)),
            (rng.standard_normal((5, 3)), rng.integers(0, 3, size=5))],
    }
    state = SequentialState(tau_seq, (0, 1))
    return theta_pre, state, tau_j, batches


def objective_on_batches(spec, theta_pre, state, tau_j, r, batches, l1_weight,
                         strategy="both", objective="cross_entropy"):
    """consensus_objective on (inputs, labels) batches: each task's batches are stacked
    into the step's row pool, in order, so the flat row index is arange(rows), and each
    batch becomes the view of its rows' indices there."""
    data = {t: (np.concatenate([x for x, _ in bs]),
                None if bs[0][1] is None else np.concatenate([y for _, y in bs]))
            for t, bs in batches.items()}
    inputs, labels, spans = _row_pool(state.visible_tasks, data, objective)
    rows = np.arange(len(inputs))
    index = {t: np.split(rows[first:first + n], np.cumsum([len(x) for x, _ in batches[t]])[:-1])
             for t, (first, n) in spans.items()}
    pool = _bind_pool(spec, inputs, labels, [[len(x) for x, _ in batches[t]] for t in spans],
                      rows)
    return consensus_objective(spec, theta_pre, state, tau_j, r, index, l1_weight,
                               strategy, objective, pool)


def per_batch_objective(spec, theta_pre, state, tau_j, r, task_batches, l1_weight,
                        strategy, objective):
    """The objective as a loop of one forward/backward pass per batch, each
    batch's mean loss averaged over its task's batches and summed over tasks."""
    m = sigmoid(r)
    tau_seq = state.tau_seq
    if strategy == "both":
        theta = theta_pre + (1.0 - m) * tau_seq + m * tau_j
        direction = tau_j - tau_seq
    elif strategy == "only_mask":
        theta = theta_pre + tau_seq + m * tau_j
        direction = tau_j
    else:
        theta = theta_pre + (1.0 - m) * tau_seq + tau_j
        direction = -tau_seq
    data_loss, dtheta = 0.0, np.zeros(theta.size)
    for t in state.visible_tasks:
        batches = task_batches[t]
        for inputs, labels in batches:
            acts = _forward_acts(spec, layer_views(spec, theta), inputs)
            n = len(inputs)
            p = softmax(acts[-1])
            if objective == "cross_entropy":
                loss = cross_entropy(acts[-1], labels)
                dz = p.copy()
                dz[np.arange(n), labels] -= 1.0
                dz /= n
            else:
                logp = np.where(p > 0.0, np.log(np.where(p > 0.0, p, 1.0)), 0.0)
                per_row = -np.sum(p * logp, axis=1)
                loss = float(np.mean(per_row))
                dz = -p * (logp + per_row[:, None]) / n
            data_loss += loss / len(batches)
            dtheta += _backward(spec, acts, theta, dz) / len(batches)
    sig_grad = m * (1.0 - m)
    loss = data_loss + l1_weight * float(np.mean(m))
    return loss, dtheta * direction * sig_grad + (l1_weight / theta.size) * sig_grad


# rows per batch of each visible task; the totals straddle one row block
QUARTER = ROW_BLOCK // 4
ROW_CASES = {
    # whole credible sets smaller than batch_size, unequal across tasks
    "under_one_block": {0: [50, 50], 1: [30, 30]},
    "one_block": {0: [QUARTER, QUARTER], 1: [ROW_BLOCK - 3 * QUARTER, QUARTER]},
    "one_block_plus_one_row": {0: [QUARTER, QUARTER], 1: [ROW_BLOCK - 3 * QUARTER + 1, QUARTER]},
    "several_blocks": {0: [ROW_BLOCK // 3] * 2, 1: [ROW_BLOCK // 3] * 2,
                       2: [ROW_BLOCK // 3] * 2, 3: [97, 97]},
}


@pytest.fixture(scope="module")
def mini_pipeline():
    family = TaskFamily(num_tasks=3, train_per_task=100, unlabeled_per_task=100,
                        test_per_task=100, seed=1)
    tasks, ckpt = build_checkpoints(family, TrainConfig(hidden_dims=(12,), pretrain_epochs=10,
                                                        finetune_epochs=40,
                                                        accuracy_floor=0.8))
    credible = {}
    for t in tasks:
        scores = score_pool(ckpt.spec, ckpt.finetuned[t.task_id], t.unlabeled_inputs)
        cs = select_cb_ems(scores, 0.9, family.classes_per_task, task_id=t.task_id)
        credible[t.task_id] = (t.unlabeled_inputs[cs.indices], cs.pseudo_labels)
    return family, tasks, ckpt, credible


class TestPartition:
    def test_empty_sequential(self):
        plan = partition(range(5), 0, seed=3)
        assert plan.sequential_set == ()
        assert plan.bulk_set(5) == (0, 1, 2, 3, 4)

    def test_all_sequential(self):
        plan = partition(range(4), 4, seed=3)
        assert plan.bulk_set(4) == ()
        assert sorted(plan.sequential_set) == [0, 1, 2, 3]

    def test_deterministic(self):
        a = partition(range(8), 2, seed=7)
        b = partition(range(8), 2, seed=7)
        assert a.sequential_set == b.sequential_set
        assert a.bulk_set(8) == tuple(t for t in range(8) if t not in a.sequential_set)

    def test_too_many_sequential(self):
        with pytest.raises(ContractError):
            partition(range(3), 4, seed=0)

    @pytest.mark.parametrize("sequence", [(1, 1), (3,), (-1,), (0, 2, 0)])
    def test_sequential_tasks_must_be_distinct_ids_in_range(self, sequence):
        with pytest.raises(ContractError, match="distinct task ids in \\[0, 3\\)"):
            MergePlan(sequence).bulk_set(3)

    def test_plan_invariants(self):
        with pytest.raises(ContractError):
            MergePlan((1,), l1_weight=-0.1)
        with pytest.raises(ContractError):
            MergePlan((1,), iterations_per_task=0)
        with pytest.raises(ContractError):
            MergePlan((1,), init_active_fraction=1.0)
        with pytest.raises(ContractError):
            MergePlan((1,), strategy="neither")

    def test_default_hyperparameters(self):
        plan = partition(range(4), 1, seed=0)
        assert plan.lambda_efficient == 0.3
        assert plan.l1_weight == 1.0
        assert plan.iterations_per_task == 100
        assert plan.batches_per_task == 2
        assert plan.batch_size == 128
        assert plan.init_active_fraction == 1e-5


class TestEfficientMerge:
    def test_empty_bulk_gives_zero_vector(self):
        theta_pre = init_params(SPEC, 0)
        tau = efficient_merge(theta_pre, [], scale=0.3)
        assert np.array_equal(tau, np.zeros(N))
        assert not tau.flags.writeable

    def test_single_vector_scale_one(self):
        theta_pre = init_params(SPEC, 0)
        tau = np.arange(N, dtype=float)
        assert np.array_equal(efficient_merge(theta_pre, [tau], scale=1.0), tau)

    def test_scaled_sum(self):
        theta_pre = init_params(SPEC, 0)
        taus = [np.full(N, 1.0), np.full(N, 3.0)]
        assert np.allclose(efficient_merge(theta_pre, taus, scale=0.3), 1.2, rtol=0, atol=1e-15)


class TestMaskedMerge:
    def test_zero_mask_keeps_current(self):
        a = np.array([1.0, 2.0, 3.0])
        b = np.array([4.0, 5.0, 6.0])
        merged = masked_merge(a, b, np.zeros(3, bool), "both")
        assert np.array_equal(merged, a)
        assert not merged.flags.writeable

    def test_one_mask_takes_incoming(self):
        a = np.array([1.0, 2.0, 3.0])
        b = np.array([4.0, 5.0, 6.0])
        assert np.array_equal(masked_merge(a, b, np.ones(3, bool), "both"), b)

    def test_componentwise_selection(self):
        a = np.array([1.0, 2.0])
        b = np.array([3.0, 4.0])
        merged = masked_merge(a, b, np.array([False, True]), "both")
        assert np.array_equal(merged, np.array([1.0, 4.0]))

    def test_only_mask_strategy(self):
        a = np.array([1.0, 2.0])
        b = np.array([3.0, 4.0])
        merged = masked_merge(a, b, np.array([False, True]), "only_mask")
        assert np.array_equal(merged, np.array([1.0, 6.0]))

    def test_only_complement_strategy(self):
        a = np.array([1.0, 2.0])
        b = np.array([3.0, 4.0])
        merged = masked_merge(a, b, np.array([False, True]), "only_complement")
        assert np.array_equal(merged, np.array([4.0, 4.0]))

    def test_length_mismatch(self):
        with pytest.raises(ContractError, match="do not match"):
            masked_merge(np.zeros(2), np.zeros(3), np.zeros(2, bool), "both")

    def test_mask_length_mismatch(self):
        with pytest.raises(ContractError, match="do not match"):
            masked_merge(np.zeros(2), np.zeros(2), np.zeros(3, bool), "both")

    @pytest.mark.parametrize("strategy", ["only_mask", "only_complement"])
    def test_a_bool_mask_keeps_the_bits_of_a_float_one(self, strategy):
        # the masked terms multiply by the mask, so a False entry must give -0.0 times a
        # negative coordinate, as the float 0.0 does
        rng = np.random.default_rng(29)
        a, b = rng.standard_normal((2, 200))
        m = np.where(rng.random(200) < 0.5, 1.0, 0.0)
        expected = a + m * b if strategy == "only_mask" else (1.0 - m) * a + b
        assert masked_merge(a, b, m == 1.0, strategy).tobytes() == expected.tobytes()

    def test_conflict_free_fuzz(self):
        rng = np.random.default_rng(13)
        for _ in range(300):
            n = int(rng.integers(1, 40))
            a = rng.standard_normal(n)
            b = rng.standard_normal(n)
            m = rng.random(n) < 0.5
            merged = masked_merge(a, b, m, "both")
            for i in range(n):
                assert merged[i] == (b[i] if m[i] else a[i])


class TestConsensusObjective:
    def test_identical_vectors_leave_pure_l1_gradient(self):
        theta_pre, state, _, batches = small_setup()
        state = SequentialState(state.tau_seq, state.visible_tasks)
        mask = seeded_mask(5)
        loss, grad = objective_on_batches(SPEC, theta_pre, state, state.tau_seq, mask,
                                          batches, l1_weight=1.0)
        m = sigmoid(mask)
        assert np.array_equal(grad, (1.0 / N) * (m * (1.0 - m)))

    @pytest.mark.parametrize("strategy", ["both", "only_mask", "only_complement"])
    @pytest.mark.parametrize("objective", ["cross_entropy", "entropy"])
    def test_gradient_matches_finite_differences(self, strategy, objective):
        theta_pre, state, tau_j, batches = small_setup(seed=3)
        if objective == "entropy":
            batches = {t: [(x, None) for x, _ in bs] for t, bs in batches.items()}
        rng = np.random.default_rng(17)
        r0 = rng.uniform(-2.0, 2.0, size=N)
        _, grad = objective_on_batches(SPEC, theta_pre, state, tau_j, r0,
                                       batches, 1.0, strategy, objective)

        def f(r):
            loss, _ = objective_on_batches(SPEC, theta_pre, state, tau_j, r,
                                           batches, 1.0, strategy, objective)
            return loss

        h = 1e-4
        numeric = np.zeros(N)
        for i in range(N):
            rp, rm = r0.copy(), r0.copy()
            rp[i] += h
            rm[i] -= h
            numeric[i] = (f(rp) - f(rm)) / (2.0 * h)
        rel = np.abs(grad - numeric) / np.maximum(np.abs(numeric), 1e-6)
        assert rel.max() < 1e-4

    @pytest.mark.parametrize("case", sorted(ROW_CASES))
    @pytest.mark.parametrize("strategy", ["both", "only_mask", "only_complement"])
    @pytest.mark.parametrize("objective", ["cross_entropy", "entropy"])
    def test_stacked_pass_matches_the_per_batch_loop(self, case, strategy, objective):
        spec = ModelSpec(3, (8, 6), 3, activation="relu")
        rng = np.random.default_rng(43)
        theta_pre = init_params(spec, 43)
        n = spec.parameter_count
        tau_j = rng.standard_normal(n) * 0.3
        sizes = ROW_CASES[case]
        batches = {t: [(rng.standard_normal((rows, 3)),
                        rng.integers(0, 3, size=rows) if objective == "cross_entropy" else None)
                       for rows in per_batch]
                   for t, per_batch in sizes.items()}
        state = SequentialState(rng.standard_normal(n) * 0.3, tuple(sizes))
        mask = rng.uniform(-2.0, 2.0, size=n)
        loss, grad = objective_on_batches(spec, theta_pre, state, tau_j, mask, batches, 1.0,
                                          strategy, objective)
        ref_loss, ref_grad = per_batch_objective(spec, theta_pre, state, tau_j, mask,
                                                 batches, 1.0, strategy, objective)
        np.testing.assert_allclose(loss, ref_loss, rtol=1e-12)
        np.testing.assert_allclose(grad, ref_grad, rtol=1e-12)

    @pytest.mark.parametrize("objective", ["cross_entropy", "entropy"])
    @pytest.mark.parametrize("classes", [8, 12])
    def test_feature_major_pass_matches_the_per_batch_loop_at_many_classes(self, classes,
                                                                          objective):
        # from 8 classes the per-batch loop sums each row's classes pairwise, the
        # feature-major pass left to right; both must give the same objective
        spec = ModelSpec(12, (16, 10), classes, activation="relu")
        rng = np.random.default_rng(classes)
        theta_pre = init_params(spec, classes)
        n = spec.parameter_count
        tau_j = rng.standard_normal(n) * 0.3
        sizes = ROW_CASES["several_blocks"]
        batches = {t: [(2.0 * rng.standard_normal((rows, 12)),
                        rng.integers(0, classes, size=rows)
                        if objective == "cross_entropy" else None)
                       for rows in per_batch]
                   for t, per_batch in sizes.items()}
        state = SequentialState(rng.standard_normal(n) * 0.3, tuple(sizes))
        mask = rng.uniform(-2.0, 2.0, size=n)
        loss, grad = objective_on_batches(spec, theta_pre, state, tau_j, mask, batches, 1.0,
                                          "both", objective)
        ref_loss, ref_grad = per_batch_objective(spec, theta_pre, state, tau_j, mask,
                                                 batches, 1.0, "both", objective)
        np.testing.assert_allclose(loss, ref_loss, rtol=1e-12)
        # a coordinate near zero is a sum of cancelling terms: its rounding error is
        # measured against the gradient's scale, not against its own size
        np.testing.assert_allclose(grad, ref_grad, rtol=1e-12,
                                   atol=1e-12 * np.abs(ref_grad).max())

    def test_row_cases_straddle_one_block(self):
        totals = {case: sum(map(sum, sizes.values())) for case, sizes in ROW_CASES.items()}
        assert totals["under_one_block"] < ROW_BLOCK
        assert totals["one_block"] == ROW_BLOCK
        assert totals["one_block_plus_one_row"] == ROW_BLOCK + 1
        assert totals["several_blocks"] > 2 * ROW_BLOCK

    def test_missing_task_named_in_error(self):
        theta_pre, state, tau_j, batches = small_setup()
        del batches[1]
        with pytest.raises(ContractError, match="task 1"):
            objective_on_batches(SPEC, theta_pre, state, tau_j, seeded_mask(0),
                                 batches, 1.0)

    def test_row_weights_must_cover_the_gathered_rows(self):
        theta_pre, state, tau_j, batches = small_setup()
        data = {t: (np.concatenate([x for x, _ in bs]), np.concatenate([y for _, y in bs]))
                for t, bs in batches.items()}
        inputs, labels, spans = _row_pool(state.visible_tasks, data, "cross_entropy")
        # checked once per step, where the pool is bound, not on every objective call
        with pytest.raises(ContractError, match="row weights"):
            _bind_pool(SPEC, inputs, labels, [[n - 1] for _, n in spans.values()],
                       np.arange(len(inputs)))

    def test_loss_includes_normalized_l1(self):
        theta_pre, state, tau_j, batches = small_setup()
        mask = seeded_mask(5)
        loss1, _ = objective_on_batches(SPEC, theta_pre, state, tau_j, mask, batches, 0.0)
        loss2, _ = objective_on_batches(SPEC, theta_pre, state, tau_j, mask, batches, 2.0)
        assert np.isclose(loss2 - loss1, 2.0 * np.mean(sigmoid(mask)), rtol=0, atol=1e-12)


class TestOptimizeMask:
    def test_zero_learning_rate_keeps_init(self):
        theta_pre, state, tau_j, batches = small_setup()
        task_data = {t: bs[0] for t, bs in batches.items()}
        init = seeded_mask(9)
        plan = MergePlan((1,), iterations_per_task=5, batch_size=64)
        object.__setattr__(plan, "mask_lr", 0.0)  # MergePlan rejects it; optimize_mask does not
        r = init.copy()  # writeable: the step updates it in place
        optimize_mask(SPEC, theta_pre, state, tau_j, task_data, r, plan,
                      np.random.default_rng(0))
        assert np.array_equal(r, init)

    def test_full_batch_objective_non_increasing(self):
        theta_pre, state, tau_j, batches = small_setup(seed=5)
        task_data = {t: bs[0] for t, bs in batches.items()}
        init = seeded_mask(9)
        plan = MergePlan((1,), mask_lr=0.5, iterations_per_task=40,
                         batches_per_task=1, batch_size=1000)
        result = optimize_mask(SPEC, theta_pre, state, tau_j, task_data, init, plan,
                               np.random.default_rng(0))
        diffs = np.diff(result.objective_trace)
        assert np.all(diffs <= 1e-12)

    def test_l1_pressure_strictly_shrinks_soft_mask(self):
        theta_pre, state, _, batches = small_setup()
        tau_j = state.tau_seq  # data term vanishes
        r = seeded_mask(9)
        prev = np.sum(sigmoid(r))
        for _ in range(10):
            _, grad = objective_on_batches(SPEC, theta_pre, state, tau_j, r, batches, 1.0)
            r = r - 5.0 * grad
            now = np.sum(sigmoid(r))
            assert now < prev
            prev = now

    def test_density_trace_shape_and_range(self):
        theta_pre, state, tau_j, batches = small_setup()
        task_data = {t: bs[0] for t, bs in batches.items()}
        plan = MergePlan((1,), iterations_per_task=7, batch_size=64)
        result = optimize_mask(SPEC, theta_pre, state, tau_j, task_data,
                               seeded_mask(0), plan, np.random.default_rng(0))
        assert result.density_trace.shape == (8,)
        assert result.objective_trace.shape == (7,)
        assert np.all((result.density_trace >= 0.0) & (result.density_trace <= 1.0))
        assert np.all(np.isfinite(result.objective_trace))

    @pytest.mark.parametrize("generator", GENERATORS)
    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), seed=st.integers(0, 2**32), batches_per_task=st.integers(1, 3),
           iterations=st.integers(1, 5))
    def test_draws_follow_the_per_batch_permutation_stream(self, generator, data, seed,
                                                           batches_per_task, iterations):
        # sets at, just above and well above the batch size, visible in reverse id order
        k = data.draw(st.sampled_from([1, 2, 5, 64]))
        size = st.one_of(st.just(k), st.just(k + 1), st.integers(1, 3 * k + 4))
        sizes = dict(reversed(list(enumerate(data.draw(st.lists(size, min_size=1,
                                                                max_size=4))))))
        plan = MergePlan((len(sizes),), iterations_per_task=iterations,
                         batches_per_task=batches_per_task, batch_size=k)
        ours, theirs = np.random.Generator(generator(seed)), np.random.Generator(generator(seed))
        drawn, firsts = recorded_batches(sizes, plan, ours), first_rows(sizes)
        assert len(drawn) == iterations
        for batches in drawn:
            for t, n in sizes.items():
                assert len(batches[t]) == batches_per_task
                for idx in batches[t]:
                    ref = np.arange(n) if n <= k else theirs.permutation(n)[:k]
                    assert np.array_equal(idx, firsts[t] + ref)
        assert same_state(ours, theirs)

    @pytest.mark.parametrize("generator", GENERATORS)
    @settings(max_examples=30, deadline=None)
    @given(data=st.data(), seed=st.integers(0, 2**32), batches_per_task=st.integers(1, 3),
           iterations=st.integers(1, 4), strategy=st.sampled_from(calm.STRATEGIES),
           objective=st.sampled_from(calm.OBJECTIVES), mask_lr=st.sampled_from([1.0, 1e3]))
    def test_step_equals_the_per_iteration_reference_bit_for_bit(
            self, generator, data, seed, batches_per_task, iterations, strategy, objective,
            mask_lr):
        # sets under, at, just above and well above the batch size, visible out of id order
        # in runs of 1 to 4 consecutive tasks whose sets have the same size
        k = data.draw(st.sampled_from([1, 2, 5, 16]))
        runs = data.draw(st.lists(st.tuples(st.sampled_from([max(1, k - 1), k, k + 1, 8 * k + 3]),
                                            st.integers(1, 4)), min_size=1, max_size=3))
        in_visible_order = [n for n, length in runs for _ in range(length)]
        visible = tuple(data.draw(st.permutations(range(len(in_visible_order)))))
        sizes = [n for _, n in sorted(zip(visible, in_visible_order))]
        values = np.random.default_rng(seed)
        task_data = {t: (values.standard_normal((n, 3)),
                         None if objective == "entropy" else values.integers(0, 3, n))
                     for t, n in enumerate(sizes)}
        state = SequentialState(values.standard_normal(N) * 0.3, visible)
        tau_j = values.standard_normal(N) * 0.3
        init = init_mask(N, 0.1, values)
        plan = MergePlan((len(sizes),), iterations_per_task=iterations,
                         batches_per_task=batches_per_task, batch_size=k, mask_lr=mask_lr,
                         strategy=strategy)
        ours, theirs = np.random.Generator(generator(seed)), np.random.Generator(generator(seed))
        args = (SPEC, init_params(SPEC, 0), state, tau_j, task_data)
        r = init.copy()  # writeable: the step updates it in place
        step = optimize_mask(*args, r, plan, ours, objective)
        ref, ref_r = reference_optimize_mask(*args, init, plan, theirs, objective)
        assert step.task_id == ref.task_id
        for a, b in [(step.mask, ref.mask), (r, ref_r),
                     (step.objective_trace, ref.objective_trace),
                     (step.density_trace, ref.density_trace)]:
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
        assert same_state(ours, theirs)

    @pytest.mark.parametrize("k", [1, 8])
    def test_every_batch_holds_distinct_rows_of_its_task(self, k):
        # sets under, at, just above and well above a batch of 8, and above a batch of
        # 1, visible out of id order
        sizes = {3: 40, 0: 5, 2: 9, 1: 8}
        plan = MergePlan((4,), iterations_per_task=6, batches_per_task=3, batch_size=k)
        drawn = recorded_batches(sizes, plan, np.random.default_rng(7))
        firsts = first_rows(sizes)
        for batches in drawn:
            for t, n in sizes.items():
                for idx in batches[t]:
                    assert len(idx) == min(n, k) == len(np.unique(idx))
                    assert np.all((idx >= firsts[t]) & (idx < firsts[t] + n))
        again = recorded_batches(sizes, plan, np.random.default_rng(7))
        assert all(np.array_equal(a, b) for x, y in zip(drawn, again)
                   for t in sizes for a, b in zip(x[t], y[t]))

    def test_rows_and_positions_are_uniform(self):
        # 2,000 batches of 4 from 10 rows. For uniformly random ordered samples, each
        # position's row counts are chi-square with 9 degrees of freedom, and so are the
        # rows' inclusion counts once scaled by their variance without replacement,
        # B k (n - k) / (n (n - 1)); 27.877 is the 0.999 quantile of chi-square(9)
        n, k, critical = 10, 4, 27.877
        plan = MergePlan((1,), iterations_per_task=400, batches_per_task=5, batch_size=k)
        drawn = recorded_batches({1: 3, 0: n}, plan, np.random.default_rng(2024))
        rows = np.array([idx for batches in drawn for idx in batches[0]]) - 3
        b = len(rows)
        counts = np.stack([np.bincount(position, minlength=n) for position in rows.T])
        position_stats = ((counts - b / n) ** 2).sum(axis=1) / (b / n)
        included = counts.sum(axis=0)
        inclusion_stat = (((included - b * k / n) ** 2).sum()
                          * n * (n - 1) / (b * k * (n - k)))
        assert b == 2000 and included.sum() == b * k
        assert np.all(position_stats < critical), position_stats
        assert inclusion_stat < critical

    def test_out_of_range_label_fails_before_the_first_iteration(self, monkeypatch):
        # one set of 30 rows, drawn once 8 at a time; the bad label is on a row that
        # batch does not draw
        theta_pre, state, tau_j, _ = small_setup()
        state = SequentialState(state.tau_seq, (0,))
        undrawn = np.random.default_rng(3).permutation(30)[8]
        labels = np.zeros(30, dtype=np.int64)
        labels[undrawn] = SPEC.num_classes
        plan = MergePlan((1,), iterations_per_task=1, batches_per_task=1, batch_size=8)

        def never(*args):
            raise AssertionError("the objective ran")

        monkeypatch.setattr(calm, "consensus_objective", never)
        rng = np.random.default_rng(3)
        with pytest.raises(ContractError, match="labels must lie"):
            optimize_mask(SPEC, theta_pre, state, tau_j, {0: (np.zeros((30, 3)), labels)},
                          seeded_mask(0), plan, rng)
        assert same_state(rng, np.random.default_rng(3))

    def test_a_bad_objective_fails_before_the_first_draw(self):
        # one set of 30 rows, drawn 8 at a time; the step is checked once, before it draws
        theta_pre, state, tau_j, _ = small_setup()
        state = SequentialState(state.tau_seq, (0,))
        plan = MergePlan((1,), iterations_per_task=1, batches_per_task=1, batch_size=8)
        rng = np.random.default_rng(3)
        with pytest.raises(ContractError, match="objective must be one of"):
            optimize_mask(SPEC, theta_pre, state, tau_j,
                          {0: (np.zeros((30, 3)), np.zeros(30, dtype=np.int64))},
                          seeded_mask(0), plan, rng, "hinge")
        assert same_state(rng, np.random.default_rng(3))

    def test_missing_visible_task_is_named(self):
        theta_pre, state, tau_j, batches = small_setup()
        plan = MergePlan((1,), iterations_per_task=2)
        with pytest.raises(ContractError, match="task 1"):
            optimize_mask(SPEC, theta_pre, state, tau_j, {0: batches[0][0]},
                          seeded_mask(0), plan, np.random.default_rng(0))

    def test_empty_credible_set_is_an_error(self):
        theta_pre, state, tau_j, batches = small_setup()
        task_data = {0: batches[0][0], 1: (np.zeros((0, 3)), np.zeros(0, dtype=np.int64))}
        plan = MergePlan((1,), iterations_per_task=2)
        with pytest.raises(ContractError, match="task 1 has an empty"):
            optimize_mask(SPEC, theta_pre, state, tau_j, task_data, seeded_mask(0),
                          plan, np.random.default_rng(0))

    def test_cross_entropy_needs_labels(self):
        theta_pre, state, tau_j, batches = small_setup()
        task_data = {0: batches[0][0], 1: (batches[1][0][0], None)}
        plan = MergePlan((1,), iterations_per_task=2)
        with pytest.raises(ContractError, match="needs labels"):
            optimize_mask(SPEC, theta_pre, state, tau_j, task_data, seeded_mask(0),
                          plan, np.random.default_rng(0))

    def test_overflowing_mask_is_an_error(self):
        # a 1e3-scaled task vector makes |grad r| ~ 20, so the first step overflows r
        theta_pre, state, tau_j, batches = small_setup()
        tau_j = tau_j * 1e3
        task_data = {t: bs[0] for t, bs in batches.items()}
        plan = MergePlan((1,), mask_lr=1e308, iterations_per_task=3)
        with np.errstate(over="ignore"), pytest.raises(ContractError, match="finite"):
            optimize_mask(SPEC, theta_pre, state, tau_j, task_data, seeded_mask(0),
                          plan, np.random.default_rng(0))


class TestBinarize:
    def test_positive_rounds_to_one(self):
        assert binarize(np.array([3.0]))[0]

    def test_negative_rounds_to_zero(self):
        assert not binarize(np.array([-3.0]))[0]

    def test_half_point_rounds_up(self):
        assert binarize(np.array([0.0]))[0]

    def test_matches_sigmoid_threshold(self):
        rng = np.random.default_rng(19)
        r = rng.standard_normal(200) * 3.0
        hard = binarize(r)
        assert hard.dtype == bool and not hard.flags.writeable
        assert np.array_equal(hard, sigmoid(r) >= 0.5)


class TestInitMask:
    def test_floor_of_one_active(self):
        mask = init_mask(1000, 1e-5, np.random.default_rng(0))
        assert np.sum(mask > 0) == 1
        assert not mask.flags.writeable

    def test_sigmoid_levels(self):
        mask = init_mask(10, 0.5, np.random.default_rng(0))
        m = sigmoid(mask)
        assert np.all(np.abs(m[mask > 0] - 0.99) < 1e-3)
        assert np.all(np.abs(m[mask < 0] - 0.01) < 1e-3)

    def test_same_seed_same_active_set(self):
        a = init_mask(500, 0.01, np.random.default_rng(21))
        b = init_mask(500, 0.01, np.random.default_rng(21))
        assert np.array_equal(a, b)

    def test_fraction_counts(self):
        mask = init_mask(200, 0.1, np.random.default_rng(2))
        assert np.sum(mask > 0) == 20


class TestSequentialMerge:
    def test_no_sequential_tasks_equals_task_arithmetic(self, mini_pipeline):
        family, tasks, ckpt, credible = mini_pipeline
        plan = partition(range(family.num_tasks), 0, seed=2)
        result = sequential_merge(ckpt, plan, credible)
        taus = [task_vector(ckpt.finetuned[t], ckpt.pretrained) for t in range(family.num_tasks)]
        reference = task_arithmetic(ckpt.pretrained, taus, plan.lambda_efficient)
        assert np.array_equal(result.merged, reference)
        assert result.steps == ()

    def test_every_coordinate_comes_from_a_source(self, mini_pipeline):
        family, tasks, ckpt, credible = mini_pipeline
        plan = replace(partition(range(family.num_tasks), 2, seed=2),
                         iterations_per_task=10)
        result = sequential_merge(ckpt, plan, credible)
        taus = {t: task_vector(ckpt.finetuned[t], ckpt.pretrained)
                for t in range(family.num_tasks)}
        tau = efficient_merge(ckpt.pretrained, [taus[t] for t in plan.bulk_set(len(taus))],
                              plan.lambda_efficient)
        for step, j in zip(result.steps, plan.sequential_set):
            assert step.task_id == j
            after = masked_merge(tau, taus[j], step.mask, "both")
            assert np.all((after == tau) | (after == taus[j]))
            tau = after
        assert np.array_equal(result.merged, ckpt.pretrained + tau)

    def test_bit_reproducible(self, mini_pipeline):
        family, tasks, ckpt, credible = mini_pipeline
        plan = replace(partition(range(family.num_tasks), 1, seed=4),
                         iterations_per_task=8)
        a = sequential_merge(ckpt, plan, credible)
        b = sequential_merge(ckpt, plan, credible)
        assert np.array_equal(a.merged, b.merged)
        for sa, sb in zip(a.steps, b.steps):
            assert np.array_equal(sa.mask, sb.mask)
            assert np.array_equal(sa.objective_trace, sb.objective_trace)

    def test_missing_credible_set_is_an_error(self, mini_pipeline):
        family, tasks, ckpt, credible = mini_pipeline
        plan = replace(partition(range(family.num_tasks), 1, seed=4),
                         iterations_per_task=2)
        partial = dict(credible)
        del partial[plan.sequential_set[0]]
        with pytest.raises(ContractError, match=f"task {plan.sequential_set[0]}"):
            sequential_merge(ckpt, plan, partial)

    def test_one_objective_call_per_iteration(self, mini_pipeline, monkeypatch):
        # the call and batch counts a tracer reads from (state, task_batches): positional
        # arguments 2 and 5, or keyword
        family, tasks, ckpt, credible = mini_pipeline
        plan = replace(partition(range(family.num_tasks), 2, seed=4), iterations_per_task=3,
                       batches_per_task=3)
        counts = []

        def counting(*args, **kwargs):
            state = args[2] if len(args) > 2 else kwargs["state"]
            task_batches = args[5] if len(args) > 5 else kwargs["task_batches"]
            counts.append([len(task_batches[t]) for t in state.visible_tasks])
            return consensus_objective(*args, **kwargs)

        monkeypatch.setattr(calm, "consensus_objective", counting)
        sequential_merge(ckpt, plan, credible)
        bulk = len(plan.bulk_set(family.num_tasks))
        visible = [bulk + 1] * 3 + [bulk + 2] * 3
        assert counts == [[3] * v for v in visible]

    def test_plan_must_cover_checkpoint_tasks(self, mini_pipeline):
        family, tasks, ckpt, credible = mini_pipeline
        plan = MergePlan((family.num_tasks,))
        with pytest.raises(ContractError, match="distinct task ids"):
            sequential_merge(ckpt, plan, credible)

    def test_density_traces_within_unit_interval(self, mini_pipeline):
        family, tasks, ckpt, credible = mini_pipeline
        plan = replace(partition(range(family.num_tasks), 2, seed=5),
                         iterations_per_task=12)
        result = sequential_merge(ckpt, plan, credible)
        for step in result.steps:
            assert np.all((step.density_trace >= 0.0) & (step.density_trace <= 1.0))
            assert np.all(np.isfinite(step.density_trace))

    def test_carry_over_mask_flag(self, mini_pipeline):
        family, tasks, ckpt, credible = mini_pipeline
        base = replace(partition(range(family.num_tasks), 2, seed=6),
                         iterations_per_task=5)
        carried = replace(base, reinit_mask_per_task=False)
        a = sequential_merge(ckpt, base, credible)
        b = sequential_merge(ckpt, carried, credible)
        # second step starts from the first step's final mask instead of a fresh init
        assert np.array_equal(a.steps[0].mask, b.steps[0].mask)
        assert b.steps[1].density_trace[0] == b.steps[0].density_trace[-1]
        assert a.steps[1].density_trace[0] == a.steps[0].density_trace[0]
        assert not np.array_equal(a.steps[1].objective_trace, b.steps[1].objective_trace)

    def test_task_vectors_are_built_where_they_are_used(self):
        # 8 tasks of a (256, 256) model, 7 in the bulk and one sequential step: beside its
        # step's pool and the step's mask-length vectors (the initial r, r and the bool
        # rounded mask), the merge holds at most 3 task vectors at once (the bulk sum and
        # the step's tau_j, or the bulk sum and two summands), not all 8
        wide = ModelSpec(4, (256, 256), 3)
        rng = np.random.default_rng(11)
        pre = init_params(wide, 0)
        ckpt = Checkpoints(wide, pre, tuple(
            pre + 0.01 * rng.standard_normal(wide.parameter_count)
            for _ in range(8)))
        data = {t: (rng.standard_normal((40, 4)), rng.integers(0, 3, size=40)) for t in range(8)}
        plan = MergePlan((3,), iterations_per_task=2, batch_size=16)
        inputs, labels, _ = _row_pool(range(8), data, "cross_entropy")
        state = SequentialState(np.zeros(wide.parameter_count), tuple(range(8)))
        peaks = []
        for call in (
                lambda: _bind_pool(wide, inputs, labels, [[16, 16]] * 8, np.zeros(256, int)),
                lambda: sequential_merge(ckpt, plan, data)):
            tracemalloc.start()
            try:
                call()
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        pool, merge = peaks
        assert merge < pool + (3 + 3) * pre.nbytes


@pytest.fixture(scope="module")
def three_tasks():
    """Checkpoints of three tasks and 1,000 labeled rows per task, more than any batch."""
    spec = ModelSpec(4, (6,), 3)
    rng = np.random.default_rng(21)
    pre = init_params(spec, 0)
    ckpt = Checkpoints(spec, pre, tuple(
        pre + 0.3 * rng.standard_normal(spec.parameter_count)
        for _ in range(3)))
    return ckpt, {t: (rng.standard_normal((1000, 4)), rng.integers(0, 3, size=1000))
                  for t in range(3)}


# (batches_per_task, batch_size) whose pools, of two then three visible tasks, make
# one block at each step, two, and three then four
BLOCK_PLANS = {1: (2, 128), 2: (2, 300), 3: (3, 400)}


class TestHelperThread:
    """Forced on and off, the second block slot gives byte-equal merges."""

    @pytest.mark.parametrize("blocks", sorted(BLOCK_PLANS))
    @pytest.mark.parametrize("strategy", calm.STRATEGIES)
    @pytest.mark.parametrize("objective", calm.OBJECTIVES)
    def test_the_helper_keeps_every_bit(self, three_tasks, blocks, strategy, objective,
                                        monkeypatch):
        ckpt, data = three_tasks
        if objective == "entropy":
            data = {t: (x, None) for t, (x, _) in data.items()}
        per_task, k = BLOCK_PLANS[blocks]
        plan = MergePlan((1, 2), iterations_per_task=3, batches_per_task=per_task,
                         batch_size=k, strategy=strategy, mask_lr=1e4)
        results, pairs = [], []
        for on in (False, True):
            force_helper(monkeypatch, on)
            ran = counted_pairs(monkeypatch)
            results.append(sequential_merge(ckpt, plan, data, objective))
            pairs.append(len(ran))
        off, on = results
        # 3 iterations at each of two steps whose pools make 1 and 1, 2 and 2, or 3 and
        # 4 blocks: 0 and 0, 1 and 1, or 1 and 2 pairs a call
        assert pairs == [0, {1: 0, 2: 6, 3: 9}[blocks]]
        assert off.merged.tobytes() == on.merged.tobytes()
        for a, b in zip(off.steps, on.steps, strict=True):
            for x, y in [(a.mask, b.mask), (a.objective_trace, b.objective_trace),
                         (a.density_trace, b.density_trace)]:
                assert x.tobytes() == y.tobytes()

    def test_a_steps_buffers_die_when_the_step_returns(self, three_tasks, monkeypatch):
        ckpt, data = three_tasks
        force_helper(monkeypatch, True)
        refs, alive = [], []
        objective, optimize = calm.consensus_objective, calm.optimize_mask

        def keeping(*args):
            # theta, total, the spare and the second slot's first layer output
            pool = args[-1]
            outs = next(iter(pool[5][2][1].values()))[2]
            refs[:] = map(weakref.ref, (pool[4], *pool[7][1:3], outs[0].base))
            return objective(*args)

        def checked(*args, **kwargs):
            step = optimize(*args, **kwargs)
            alive.append([ref() is not None for ref in refs])
            return step

        monkeypatch.setattr(calm, "consensus_objective", keeping)
        monkeypatch.setattr(calm, "optimize_mask", checked)
        ran = counted_pairs(monkeypatch)
        sequential_merge(ckpt, MergePlan((1, 2), iterations_per_task=2, batch_size=300),
                         data)
        assert ran and alive == [[False] * 4] * 2

    def test_merge_memory_does_not_grow_with_the_sequential_steps(self):
        # 8 tasks of a (256, 256) model: the last step sees every task at 2 sequential steps
        # and at 7, so each step's pool is as large; the merge keeps each step's bool mask
        # and traces, an eighth of a vector, and neither its r nor the merged vector it
        # started from
        wide = ModelSpec(4, (256, 256), 3)
        rng = np.random.default_rng(12)
        pre = init_params(wide, 0)
        ckpt = Checkpoints(wide, pre, tuple(
            pre + 0.01 * rng.standard_normal(wide.parameter_count)
            for _ in range(8)))
        data = {t: (rng.standard_normal((40, 4)), rng.integers(0, 3, size=40)) for t in range(8)}
        peaks = {}
        for steps in (2, 7):
            plan = replace(partition(range(8), steps, seed=0), iterations_per_task=2,
                           batch_size=16)
            tracemalloc.start()
            try:
                sequential_merge(ckpt, plan, data)
                peaks[steps] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[7] - peaks[2] <= pre.nbytes


class TestSigmoid:
    def test_extremes_are_stable(self):
        out = sigmoid(np.array([-800.0, 0.0, 800.0]))
        assert out[0] == 0.0 and out[1] == 0.5 and out[2] == 1.0

    def test_matches_naive_formula_in_safe_range(self):
        rng = np.random.default_rng(23)
        x = rng.uniform(-30, 30, size=100)
        naive = 1.0 / (1.0 + np.exp(-x))
        assert np.allclose(sigmoid(x), naive, rtol=0, atol=1e-15)

    def test_keeps_the_bits_of_the_boolean_mask_formula(self):
        rng = np.random.default_rng(709)
        x = np.concatenate([rng.standard_normal(709), rng.uniform(-800.0, 800.0, 100_000),
                            [0.0, -0.0, 1e-300, -1e-300, 800.0, -800.0]])
        assert sigmoid(x).tobytes() == reference_sigmoid(x).tobytes()
