import numpy as np
import pytest

from calmkit.baselines import (
    TiesConfig,
    ordered_sum,
    task_arithmetic,
    task_vector,
    ties_elect_sign,
    ties_merge,
    ties_trim,
    weight_average,
)
from calmkit.nn import ContractError, read_only


def pv(values):  # a model of 4 parameters
    return read_only(values, np.float64)


class TestTaskVector:
    def test_identical_models_give_zero(self):
        theta = pv([1.0, 2.0, 3.0, 4.0])
        assert np.array_equal(task_vector(theta, theta), np.zeros(4))

    def test_componentwise_difference(self):
        tv = task_vector(pv([1.5, 1.0, 0.0, 0.0]), pv([1.0, 2.0, 0.0, 0.0]))
        assert np.array_equal(tv, np.array([0.5, -1.0, 0.0, 0.0]))
        assert tv.dtype == np.float64 and not tv.flags.writeable

    def test_reconstructs_finetuned_exactly(self):
        # dyadic entries keep the subtraction exact, so the additive-inverse
        # identity holds bitwise
        rng = np.random.default_rng(0)
        pre = pv(rng.integers(-4096, 4096, size=4) / 1024.0)
        ft = pv(rng.integers(-4096, 4096, size=4) / 1024.0)
        tv = task_vector(ft, pre)
        assert np.array_equal(pre + tv, ft)


class TestWeightAverage:
    def test_single_model_is_itself(self):
        theta = pv([1.0, -2.0, 0.5, 3.0])
        assert np.array_equal(weight_average([theta]), theta)

    def test_two_model_mean(self):
        merged = weight_average([pv([0.0, 2.0, 0.0, 0.0]), pv([2.0, 0.0, 0.0, 0.0])])
        assert np.array_equal(merged, np.array([1.0, 1.0, 0.0, 0.0]))

    def test_permutation_invariant_on_exact_values(self):
        # dyadic entries make every summation order exact, so permuting the
        # list leaves the fixed-order reduction bit-identical
        models = [pv([0.25, -1.5, 2.0, 0.125]), pv([1.75, 0.5, -3.0, 0.25]),
                  pv([-0.5, 1.25, 0.75, -2.0])]
        forward_mean = weight_average(models)
        backward_mean = weight_average(models[::-1])
        assert np.array_equal(forward_mean, backward_mean)

    def test_empty_list_rejected(self):
        with pytest.raises(ContractError):
            weight_average([])


class TestTaskArithmetic:
    def test_single_task_lambda_one_recovers_finetuned(self):
        rng = np.random.default_rng(1)
        pre = pv(rng.integers(-4096, 4096, size=4) / 1024.0)
        ft = pv(rng.integers(-4096, 4096, size=4) / 1024.0)
        merged = task_arithmetic(pre, [task_vector(ft, pre)], scale=1.0)
        assert np.array_equal(merged, ft)

    def test_opposite_vectors_cancel(self):
        pre = pv([1.0, 2.0, 3.0, 4.0])
        tau = np.array([0.5, -1.0, 2.0, 0.0])
        neg = -tau
        merged = task_arithmetic(pre, [tau, neg], scale=0.3)
        assert np.array_equal(merged, pre)

    def test_linearity_in_task_vectors(self):
        rng = np.random.default_rng(2)
        pre = pv(rng.standard_normal(4))
        t1 = rng.standard_normal(4)
        t2 = rng.standard_normal(4)
        lam = 0.3
        combined = task_arithmetic(pre, [t1 + t2], scale=lam)
        sequential = task_arithmetic(pre, [t1], scale=lam) + lam * t2
        assert np.allclose(combined, sequential, rtol=0, atol=1e-15)

    def test_nonpositive_scale_rejected(self):
        with pytest.raises(ContractError):
            task_arithmetic(pv(np.zeros(4)), [], scale=0.0)

    def test_a_generator_gives_the_bits_of_a_list(self):
        rng = np.random.default_rng(3)
        pre, vectors = pv(rng.standard_normal(4)), rng.standard_normal((5, 4))
        listed = task_arithmetic(pre, list(vectors), scale=0.3)
        generated = task_arithmetic(pre, (v for v in vectors), scale=0.3)
        assert generated.tobytes() == listed.tobytes()
        assert task_arithmetic(pre, iter([])).tobytes() == pre.tobytes()
        # theta_pre + 0.0: a -0.0 entry of theta_pre reads +0.0
        assert task_arithmetic(pv(np.array([-0.0, 1.0])), []).tobytes() == pv(
            np.array([0.0, 1.0])).tobytes()


class TestTiesTrim:
    def test_full_fraction_is_identity(self):
        tau = np.array([3.0, -1.0, 0.5, -2.0])
        assert np.array_equal(ties_trim(tau, 1.0), tau)

    def test_half_fraction_sorted_oracle(self):
        tau = np.array([3.0, -1.0, 0.5, -2.0])
        trimmed = ties_trim(tau, 0.5)
        # sort-by-magnitude oracle: keep the ceil(0.5 * 4) = 2 largest |entries|
        magnitudes = sorted(enumerate(np.abs(tau)), key=lambda p: (-p[1], p[0]))
        keep = {i for i, _ in magnitudes[:2]}
        expected = np.array([v if i in keep else 0.0 for i, v in enumerate(tau)])
        assert np.array_equal(trimmed, expected)
        assert np.array_equal(trimmed, np.array([3.0, 0.0, 0.0, -2.0]))

    def test_nonzero_count_is_ceil(self):
        rng = np.random.default_rng(3)
        values = rng.standard_normal(11)
        assert np.all(values != 0.0)
        for fraction in (0.1, 0.2, 0.5, 0.75, 1.0):
            trimmed = ties_trim(values, fraction)
            assert np.count_nonzero(trimmed) == int(np.ceil(fraction * 11))

    def test_kept_entries_bit_exact_and_never_larger(self):
        rng = np.random.default_rng(4)
        values = rng.standard_normal(40)
        trimmed = ties_trim(values, 0.3)
        kept = trimmed != 0.0
        assert np.array_equal(trimmed[kept], values[kept])
        assert np.all(np.abs(trimmed) <= np.abs(values))

    def test_magnitude_tie_keeps_lower_index(self):
        tau = np.array([1.0, -1.0, 1.0, 0.5])
        trimmed = ties_trim(tau, 0.5)
        assert np.array_equal(trimmed, np.array([1.0, -1.0, 0.0, 0.0]))
        assert not trimmed.flags.writeable


@pytest.mark.parametrize("size", [709, 71_000, 1_000_000])
@pytest.mark.parametrize("count", [0, 1, 2, 3, 8, 17])
def test_ordered_sum_is_the_stacked_sum_bit_for_bit(size, count):
    # signed zeros and infinities included: +0.0 + -0.0, -0.0 + -0.0 and inf - inf
    rng = np.random.default_rng(size + count)
    arrays = [rng.standard_normal(size) for _ in range(count)]
    for values in arrays:
        at = rng.permutation(size)[:40]
        values[at[:10]], values[at[10:20]] = 0.0, -0.0
        values[at[20:30]], values[at[30:]] = np.inf, -np.inf
    with np.errstate(invalid="ignore"):
        # no arrays sum to np.zeros(size)'s bytes, which np.stack cannot take
        expected = np.sum(np.stack(arrays), axis=0) if arrays else np.zeros(size)
        assert ordered_sum(iter(arrays), size).tobytes() == expected.tobytes()


class TestTiesElectSign:
    def test_single_vector_elects_its_signs(self):
        tau = np.array([2.0, -3.0, 0.0, 1.0])
        assert np.array_equal(ties_elect_sign([tau]), np.array([1, -1, 0, 1], dtype=np.int8))

    def test_mass_sum_oracle(self):
        # coordinate 0 entries {+1, +1, -3}: negative mass 3 beats positive 2
        vectors = [np.array([1.0, 0.0, 0.0, 0.0]),
                   np.array([1.0, 0.0, 0.0, 0.0]),
                   np.array([-3.0, 0.0, 0.0, 0.0])]
        assert ties_elect_sign(vectors)[0] == -1

    def test_negation_antisymmetry(self):
        rng = np.random.default_rng(5)
        vectors = [rng.standard_normal(30) for _ in range(4)]
        negated = [-tv for tv in vectors]
        assert np.array_equal(ties_elect_sign(negated), -ties_elect_sign(vectors))

    def test_exact_tie_elects_positive(self):
        vectors = [np.array([2.0, 0.0, 0.0, 0.0]),
                   np.array([-2.0, 0.0, 0.0, 0.0])]
        assert ties_elect_sign(vectors)[0] == 1


class TestTiesMerge:
    def test_single_task_full_trim_recovers_finetuned(self):
        rng = np.random.default_rng(6)
        pre = pv(rng.standard_normal(4))
        ft = pv(rng.standard_normal(4))
        merged = ties_merge(pre, [task_vector(ft, pre)], TiesConfig(trim_fraction=1.0, scale=1.0))
        assert np.allclose(merged, ft, rtol=0, atol=1e-15)

    def test_disjoint_mean_oracle(self):
        vectors = [np.array([2.0, 0.0, 0.0, 0.0]),
                   np.array([4.0, 0.0, 0.0, 0.0]),
                   np.array([-5.0, 0.0, 0.0, 0.0])]
        pre = pv(np.zeros(4))
        merged = ties_merge(pre, vectors, TiesConfig(trim_fraction=1.0, scale=1.0))
        # positive mass 6 > negative 5, elected +, disjoint mean of {2, 4} = 3
        assert merged[0] == 3.0

    def test_disjoint_mean_negative_election(self):
        vectors = [np.array([2.0, 0.0, 0.0, 0.0]),
                   np.array([-5.0, 0.0, 0.0, 0.0])]
        merged = ties_merge(pv(np.zeros(4)), vectors, TiesConfig(trim_fraction=1.0, scale=1.0))
        assert merged[0] == -5.0

    def test_agreeing_signs_full_trim_is_plain_mean(self):
        rng = np.random.default_rng(7)
        base = np.abs(rng.standard_normal(4)) + 0.1
        vectors = [base * s for s in (1.0, 2.0, 3.0)]
        merged = ties_merge(pv(np.zeros(4)), vectors, TiesConfig(trim_fraction=1.0, scale=1.0))
        assert np.allclose(merged, base * 2.0, rtol=0, atol=1e-15)

    def test_untouched_coordinates_equal_pretrained_exactly(self):
        pre = pv([0.1, 0.2, 0.3, 0.4])
        vectors = [np.array([5.0, 0.0, 0.0, 0.0]),
                   np.array([4.0, 0.0, 0.0, 0.0])]
        merged = ties_merge(pre, vectors, TiesConfig(trim_fraction=0.25, scale=0.3))
        assert np.array_equal(merged[1:], pre[1:])

    def test_empty_task_list_rejected(self):
        with pytest.raises(ContractError):
            ties_merge(pv(np.zeros(4)), [])
        with pytest.raises(ContractError, match="at least one"):
            ties_merge(pv(np.zeros(4)), iter([]))

    @pytest.mark.parametrize("trim_fraction", [0.25, 0.5, 1.0])
    def test_a_generator_gives_the_bits_of_a_list(self, trim_fraction):
        # each vector is trimmed as it is read, so a generator never holds them all
        rng = np.random.default_rng(8)
        pre, vectors = pv(rng.standard_normal(4)), rng.standard_normal((8, 4))
        config = TiesConfig(trim_fraction=trim_fraction, scale=0.3)
        listed = ties_merge(pre, list(vectors), config)
        generated = ties_merge(pre, (v for v in vectors), config)
        assert generated.tobytes() == listed.tobytes()

    def test_invalid_config(self):
        with pytest.raises(ContractError):
            TiesConfig(trim_fraction=0.0)
        with pytest.raises(ContractError):
            TiesConfig(scale=-1.0)
