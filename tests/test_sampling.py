import itertools
import math
import pickle
import warnings
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from calmkit.nn import ContractError, ModelSpec, _loss_and_dlogits, forward, init_params
from calmkit.sampling import (
    CredibleSet,
    audit_accuracy,
    score_pool,
    select_cb_ems,
    select_ems,
)


def identity_spec(c):
    # single linear layer passing logits through: W = I, b = 0
    return ModelSpec(c, (), c)


def logit_model(c):
    spec = identity_spec(c)
    values = np.zeros(spec.parameter_count)
    values[: c * c] = np.eye(c).reshape(-1)
    return spec, values


def scored_from_entropy(entropies, labels=None):
    """The scored pool of these entropies and pseudo-labels, as `score_pool` returns it."""
    labels = labels if labels is not None else [0] * len(entropies)
    return CredibleSet(0, np.arange(len(entropies)), entropies, labels)


class TestScorePool:
    def test_the_pool_is_the_credible_set_of_every_row_and_selections_a_subset(self):
        spec, params = logit_model(3)
        inputs = np.random.default_rng(9).standard_normal((12, 3)) * 3.0
        scored = score_pool(spec, params, inputs, task_id=5)
        assert isinstance(scored, CredibleSet)
        assert scored.task_id == 5 and len(scored) == 12
        assert scored.indices.tolist() == list(range(12))
        ems, cb_ems = select_ems(scored, 0.5), select_cb_ems(scored, 0.5, num_classes=3)
        # a selection from a selection indexes through the first one's pool indices
        for cset, source in ((ems, scored), (cb_ems, scored), (select_ems(cb_ems, 0.5), cb_ems)):
            assert cset.task_id == 5 and 0 < len(cset) < len(source)
            assert np.all(np.diff(cset.indices) > 0)
            assert np.isin(cset.indices, source.indices).all()
            rows = np.searchsorted(source.indices, cset.indices)
            assert cset.entropies.tolist() == source.entropies[rows].tolist()
            assert cset.pseudo_labels.tolist() == source.pseudo_labels[rows].tolist()

    def test_confident_sample(self):
        spec, params = logit_model(3)
        scored = score_pool(spec, params, np.array([[60.0, 0.0, 0.0]]))
        assert scored.pseudo_labels[0] == 0
        assert scored.entropies[0] < 1e-9

    def test_constant_logits_tie_rule(self):
        spec, params = logit_model(5)
        scored = score_pool(spec, params, np.full((1, 5), 2.0))
        assert scored.pseudo_labels[0] == 0
        assert np.isclose(scored.entropies[0], np.log(5.0), rtol=0, atol=1e-12)
        assert np.isclose(scored.entropies[0], 1.6094379124341003, rtol=0, atol=1e-12)

    def test_matches_direct_recomputation(self):
        spec, params = logit_model(4)
        rng = np.random.default_rng(2)
        inputs = rng.standard_normal((30, 4)) * 3.0
        scored = score_pool(spec, params, inputs)
        assert len(scored) == 30
        for i, (entropy, label) in enumerate(zip(scored.entropies, scored.pseudo_labels)):
            z = inputs[i]
            p = np.exp(z - z.max())
            p /= p.sum()
            direct = -sum(pi * np.log(pi) for pi in p if pi > 0.0)
            assert abs(entropy - direct) <= 1e-12
            assert label == int(np.argmax(z))

    @pytest.mark.parametrize("classes", [2, 5, 17])
    @pytest.mark.parametrize("scale", [1.0, 40.0])  # 40: most probabilities underflow
    def test_entropies_are_the_loss_kernels_bit_for_bit(self, classes, scale):
        spec = ModelSpec(6, (8,), classes)
        params = init_params(spec, classes)
        inputs = scale * np.random.default_rng(classes).standard_normal((300, 6))
        scored = score_pool(spec, params, inputs)
        logits = forward(spec, params, inputs)
        assert scored.entropies.tobytes() == _loss_and_dlogits(logits.T, None)[0].tobytes()

    def test_overflowing_logits_are_rejected(self):
        spec, params = logit_model(3)
        big = params * 1e10  # finite parameters, logits of 1e310
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(ContractError, match="logits"):
            score_pool(spec, big, np.full((2, 3), 1e300))

    def test_empty_pool_rejected(self):
        spec, params = logit_model(3)
        with pytest.raises(ContractError):
            score_pool(spec, params, np.zeros((0, 3)))


class TestSelectEms:
    def test_rate_one_takes_everything(self):
        scored = scored_from_entropy([0.9, 0.2, 0.5, 0.7])
        cset = select_ems(scored, 1.0)
        assert len(cset) == 4

    def test_full_sort_oracle(self):
        scored = scored_from_entropy([0.9, 0.2, 0.5, 0.7])
        cset = select_ems(scored, 0.5)
        # bottom-2 by entropy: pool indices 1 (0.2) and 2 (0.5)
        assert sorted(cset.indices.tolist()) == [1, 2]

    def test_selected_below_unselected(self):
        rng = np.random.default_rng(3)
        entropies = rng.uniform(0.0, 1.5, size=40)
        scored = scored_from_entropy(entropies)
        cset = select_ems(scored, 0.3)
        unselected = np.setdiff1d(np.arange(40), cset.indices)
        assert cset.entropies.max() <= entropies[unselected].min()

    def test_entropy_ties_take_lower_index(self):
        scored = scored_from_entropy([0.5, 0.5, 0.5, 0.5])
        cset = select_ems(scored, 0.5)
        assert sorted(cset.indices.tolist()) == [0, 1]

    def test_zero_selection_instructs_larger_rate(self):
        with pytest.raises(ContractError, match="increase the sampling rate"):
            select_ems(scored_from_entropy([0.5, 0.6]), 0.4)

    def test_minimum_sum_subset_exhaustive(self):
        # EMS optimality: selected entropies form the minimum-sum size-k multiset
        rng = np.random.default_rng(4)
        for n in (5, 8, 12):
            entropies = np.round(rng.uniform(0.0, 1.6, size=n), 3)
            scored = scored_from_entropy(entropies)
            for rate in (0.25, 0.5, 0.75):
                k = int(np.floor(rate * n))
                if k == 0:
                    continue
                cset = select_ems(scored, rate)
                best = min(sum(c) for c in itertools.combinations(entropies, k))
                assert np.isclose(cset.entropies.sum(), best, rtol=0, atol=1e-12)


class TestSelectCbEms:
    def test_per_class_sort_oracle(self):
        scored = scored_from_entropy([0.9, 0.2, 0.5, 0.7], [0, 0, 1, 1])
        cset = select_cb_ems(scored, 0.5, num_classes=2)
        assert sorted(cset.indices.tolist()) == [1, 2]

    def test_rate_one_takes_entire_pool(self):
        rng = np.random.default_rng(5)
        scored = scored_from_entropy(rng.uniform(size=20), rng.integers(0, 4, size=20))
        cset = select_cb_ems(scored, 1.0, num_classes=4)
        assert len(cset) == 20

    def test_equal_pools_give_equal_counts(self):
        rng = np.random.default_rng(6)
        labels = np.repeat(np.arange(4), 10)
        scored = scored_from_entropy(rng.uniform(size=40), labels)
        cset = select_cb_ems(scored, 0.7, num_classes=4)
        counts = np.bincount(cset.pseudo_labels, minlength=4)
        assert np.all(counts == 7)

    def test_empty_class_warns_and_skips(self):
        scored = scored_from_entropy([0.1, 0.4], [0, 0])
        with pytest.warns(UserWarning, match="class 1"):
            cset = select_cb_ems(scored, 1.0, num_classes=2)
        assert len(cset) == 2

    def test_all_empty_selection_rejected(self):
        scored = scored_from_entropy([0.1, 0.4], [0, 1])
        with pytest.raises(ContractError, match="increase the sampling rate"):
            select_cb_ems(scored, 0.4, num_classes=2)

    def test_grouping_uses_pseudo_labels_not_truth(self):
        # model predicts class 0 for everything; grouping must follow predictions
        scored = scored_from_entropy([0.3, 0.2, 0.1, 0.4], [0, 0, 0, 0])
        with pytest.warns(UserWarning):
            cset = select_cb_ems(scored, 0.5, num_classes=2)
        assert len(cset) == 2
        assert np.all(cset.pseudo_labels == 0)

    def test_per_class_k_is_floor_of_rate_times_pool(self):
        rng = np.random.default_rng(7)
        labels = np.concatenate([np.zeros(7, dtype=int), np.ones(13, dtype=int)])
        scored = scored_from_entropy(rng.uniform(size=20), labels)
        cset = select_cb_ems(scored, 0.5, num_classes=2)
        counts = np.bincount(cset.pseudo_labels, minlength=2)
        assert counts[0] == 3 and counts[1] == 6

    def test_minimum_sum_per_class_exhaustive(self):
        rng = np.random.default_rng(8)
        labels = np.array([0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1])
        entropies = np.round(rng.uniform(0.0, 1.6, size=11), 3)
        scored = scored_from_entropy(entropies, labels)
        cset = select_cb_ems(scored, 0.5, num_classes=2)
        for c, pool in ((0, entropies[:5]), (1, entropies[5:])):
            k = int(np.floor(0.5 * len(pool)))
            chosen = cset.entropies[cset.pseudo_labels == c]
            best = min(sum(comb) for comb in itertools.combinations(pool, k))
            assert np.isclose(chosen.sum(), best, rtol=0, atol=1e-12)


@dataclass(frozen=True)
class ObjectSample:
    """One pool row as the object sort held it: pool index, entropy, pseudo-label."""

    index: int
    entropy: float
    pseudo_label: int


def object_sort_selection(entropies, labels, rate, num_classes, mode):
    """The selection as a sort of one object per pool row, keyed (entropy, index):
    the reference the array selectors must reproduce, ties and empty classes included."""
    scored = [ObjectSample(i, float(e), int(l)) for i, (e, l) in enumerate(zip(entropies, labels))]

    def bottom_k(samples, k):
        return sorted(samples, key=lambda s: (s.entropy, s.index))[:k]

    if mode == "ems":
        chosen = bottom_k(scored, math.floor(rate * len(scored)))
    else:
        chosen = []
        for c in range(num_classes):
            pool_c = [s for s in scored if s.pseudo_label == c]
            if pool_c:
                chosen.extend(bottom_k(pool_c, math.floor(rate * len(pool_c))))
    return [s.index for s in sorted(chosen, key=lambda s: s.index)]


@settings(max_examples=300, deadline=None)
@given(data=st.data(), mode=st.sampled_from(["ems", "cb_ems"]),
       rate=st.sampled_from([0.05, 0.1, 1 / 3, 0.5, 0.7, 0.9, 1.0]),
       num_classes=st.integers(1, 6))
def test_selection_matches_the_object_sort(data, mode, rate, num_classes):
    n = data.draw(st.integers(1, 60))
    # few distinct entropies, so most rows tie; labels from a prefix of the classes,
    # so some classes are empty
    entropies = data.draw(st.lists(st.sampled_from([0.0, 0.125, 0.5, 0.5000000000000001, 1.0]),
                                   min_size=n, max_size=n))
    used = data.draw(st.integers(1, num_classes))
    labels = data.draw(st.lists(st.integers(0, used - 1), min_size=n, max_size=n))
    expected = object_sort_selection(entropies, labels, rate, num_classes, mode)
    scores = scored_from_entropy(entropies, labels)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        if not expected:
            with pytest.raises(ContractError, match="increase the sampling rate"):
                (select_ems(scores, rate) if mode == "ems"
                 else select_cb_ems(scores, rate, num_classes))
            return
        cset = (select_ems(scores, rate) if mode == "ems"
                else select_cb_ems(scores, rate, num_classes))
    assert cset.indices.tolist() == expected
    assert cset.entropies.tolist() == [entropies[i] for i in expected]
    assert cset.pseudo_labels.tolist() == [labels[i] for i in expected]
    assert len(cset) == len(expected)


def test_credible_set_needs_one_row_per_index():
    with pytest.raises(ContractError):
        CredibleSet(0, np.array([0, 1]), np.array([0.1]), np.array([0, 1]))
    with pytest.raises(ContractError):
        CredibleSet(0, np.array([0, 1]), np.array([0.1, 0.2]), np.array([0]))
    for indices in ([1, 1], [2, 1]):  # pool rows, strictly ascending
        with pytest.raises(ContractError, match="strictly ascending"):
            CredibleSet(0, np.array(indices), np.array([0.1, 0.2]), np.array([0, 1]))


class TestCredibleSetImmutability:
    def build(self):
        scored = scored_from_entropy([0.4, 0.1, 0.3, 0.2], [0, 1, 0, 1])
        return select_cb_ems(scored, 1.0, num_classes=2)

    def test_arrays_are_read_only(self):
        cset = self.build()
        with pytest.raises(ValueError):
            cset.pseudo_labels[0] = 3
        with pytest.raises(ValueError):
            cset.indices[0] = 3

    def test_pseudo_labels_stable_across_merge_activity(self):
        cset = self.build()
        before = pickle.dumps(cset.pseudo_labels.tolist())
        # unrelated numerical work must not disturb the frozen labels
        _ = np.square(cset.entropies).sum()
        assert pickle.dumps(cset.pseudo_labels.tolist()) == before


class TestAuditAccuracy:
    def test_all_correct(self):
        scored = scored_from_entropy([0.1, 0.2], [1, 0])
        cset = select_ems(scored, 1.0)
        assert audit_accuracy(cset, np.array([1, 0])) == 1.0

    def test_partial(self):
        scored = scored_from_entropy([0.1, 0.2], [1, 0])
        cset = select_ems(scored, 1.0)
        assert audit_accuracy(cset, np.array([1, 1])) == 0.5

    def test_construction_guarantees_nonempty(self):
        scored = scored_from_entropy([0.1, 0.2], [1, 0])
        cset = select_ems(scored, 1.0)
        assert len(cset) > 0

