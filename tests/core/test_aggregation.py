"""Tests for logit aggregation rules (Eqs. 3, 6-7, ERA)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.core import (
    entropy_reduction_aggregate,
    equal_average_aggregate,
    logit_variances,
    variance_weighted_aggregate,
)

LOGIT_SETS = st.integers(2, 4).flatmap(
    lambda c: hnp.arrays(
        dtype=np.float64,
        shape=(c, 6, 5),
        elements=st.floats(min_value=-5, max_value=5, allow_nan=False),
    )
)


def split(stacked):
    return [stacked[i] for i in range(stacked.shape[0])]


class TestEqualAverage:
    def test_mean(self):
        a = np.ones((3, 2))
        b = np.zeros((3, 2))
        np.testing.assert_allclose(equal_average_aggregate([a, b]), np.full((3, 2), 0.5))

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            equal_average_aggregate([])

    def test_bad_shape_raises(self):
        with pytest.raises(ValueError):
            equal_average_aggregate([np.zeros(3)])


class TestVarianceWeighted:
    def test_confident_client_dominates(self):
        confident = np.array([[10.0, -10.0, 0.0]])  # high variance, predicts 0
        unsure = np.array([[0.1, 0.2, 0.15]])  # low variance, predicts 1
        out = variance_weighted_aggregate([confident, unsure])
        assert out.argmax(axis=1)[0] == 0

    def test_equal_variance_reduces_to_mean(self):
        a = np.array([[1.0, -1.0]])
        b = np.array([[-1.0, 1.0]])
        out = variance_weighted_aggregate([a, b])
        np.testing.assert_allclose(out, np.zeros((1, 2)), atol=1e-12)

    def test_zero_variance_fallback(self):
        a = np.zeros((2, 3))
        b = np.zeros((2, 3))
        out = variance_weighted_aggregate([a, b])
        assert np.isfinite(out).all()
        np.testing.assert_allclose(out, np.zeros((2, 3)))

    def test_variances_shape(self):
        v = logit_variances([np.zeros((4, 3)), np.ones((4, 3))])
        assert v.shape == (2, 4)

    def test_single_client_identity(self):
        logits = np.random.default_rng(0).normal(size=(5, 4))
        np.testing.assert_allclose(
            variance_weighted_aggregate([logits]), logits, atol=1e-12
        )


class TestEntropyReduction:
    def test_sharpening_reduces_entropy(self):
        rng = np.random.default_rng(0)
        logits = [rng.normal(size=(10, 5)) for _ in range(3)]
        flat = equal_average_aggregate(logits)
        era = entropy_reduction_aggregate(logits, temperature=0.1)

        def entropy(l):
            p = np.exp(l - l.max(axis=1, keepdims=True))
            p /= p.sum(axis=1, keepdims=True)
            return -(p * np.log(p + 1e-12)).sum(axis=1).mean()

        assert entropy(era) < entropy(flat)

    def test_argmax_preserved(self):
        rng = np.random.default_rng(1)
        logits = [rng.normal(size=(20, 6)) for _ in range(2)]
        probs = [np.exp(l) / np.exp(l).sum(axis=1, keepdims=True) for l in logits]
        mean_probs = np.mean(probs, axis=0)
        era = entropy_reduction_aggregate(logits, temperature=0.2)
        np.testing.assert_array_equal(era.argmax(axis=1), mean_probs.argmax(axis=1))

    def test_invalid_temperature(self):
        with pytest.raises(ValueError):
            entropy_reduction_aggregate([np.zeros((2, 3))], temperature=0.0)

    def test_client_weights_weight_the_probability_mean(self):
        rng = np.random.default_rng(2)
        logits = [rng.normal(size=(8, 4)) for _ in range(3)]
        plain = entropy_reduction_aggregate(logits, temperature=0.5)
        ones = entropy_reduction_aggregate(
            logits, temperature=0.5, client_weights=[1.0, 1.0, 1.0]
        )
        assert ones.tobytes() == plain.tobytes()
        # a client weighted to zero drops out of the mean entirely
        without_last = entropy_reduction_aggregate(logits[:2], temperature=0.5)
        zeroed = entropy_reduction_aggregate(
            logits, temperature=0.5, client_weights=[0.5, 0.5, 0.0]
        )
        np.testing.assert_allclose(zeroed, without_last, atol=1e-12)


@given(LOGIT_SETS)
@settings(max_examples=30, deadline=None)
def test_variance_weights_are_convex_combination(stacked):
    """Aggregated logits lie within the per-sample min/max envelope of
    client logits (weights are non-negative and sum to one)."""
    clients = split(stacked)
    out = variance_weighted_aggregate(clients)
    lo = stacked.min(axis=0) - 1e-9
    hi = stacked.max(axis=0) + 1e-9
    assert (out >= lo).all() and (out <= hi).all()


@given(LOGIT_SETS)
@settings(max_examples=30, deadline=None)
def test_equal_average_envelope(stacked):
    clients = split(stacked)
    out = equal_average_aggregate(clients)
    assert (out >= stacked.min(axis=0) - 1e-9).all()
    assert (out <= stacked.max(axis=0) + 1e-9).all()


class TestEntropyWeighted:
    def test_confident_client_dominates(self):
        from repro.core import entropy_weighted_aggregate

        confident = np.array([[10.0, -10.0, 0.0]])
        unsure = np.array([[0.1, 0.2, 0.15]])
        out = entropy_weighted_aggregate([confident, unsure])
        assert out.argmax(axis=1)[0] == 0

    def test_scale_invariance_of_weights(self):
        """Unlike variance weighting, entropy weighting is unchanged when a
        client's logits are shifted by a constant."""
        from repro.core import entropy_weighted_aggregate

        rng = np.random.default_rng(3)
        a = rng.normal(size=(6, 4))
        b = rng.normal(size=(6, 4))
        base = entropy_weighted_aggregate([a, b])
        shifted = entropy_weighted_aggregate([a + 100.0, b])
        # shifting client A by a constant leaves its softmax (hence its
        # weight w_a) unchanged, so shifted_agg - agg = w_a * 100 exactly:
        # recover w_a per sample and check it is a valid convex weight that
        # is constant across the class axis.
        w_a = (shifted - base) / 100.0
        np.testing.assert_allclose(
            w_a, np.broadcast_to(w_a[:, :1], w_a.shape), atol=1e-6
        )
        assert (w_a >= -1e-6).all() and (w_a <= 1 + 1e-6).all()

    def test_uniform_logits_fallback(self):
        from repro.core import entropy_weighted_aggregate

        a = np.zeros((3, 4))
        b = np.zeros((3, 4))
        out = entropy_weighted_aggregate([a, b])
        assert np.isfinite(out).all()


class TestStalenessWeights:
    def test_geometric_decay(self):
        from repro.core import staleness_weights

        np.testing.assert_array_equal(
            staleness_weights([0, 1, 2, 3], alpha=0.5),
            [1.0, 0.5, 0.25, 0.125],
        )

    def test_alpha_one_ignores_staleness(self):
        from repro.core import staleness_weights

        np.testing.assert_array_equal(
            staleness_weights([0, 5, 100], alpha=1.0), [1.0, 1.0, 1.0]
        )

    def test_validation(self):
        from repro.core import staleness_weights

        with pytest.raises(ValueError, match="alpha"):
            staleness_weights([0], alpha=0.0)
        with pytest.raises(ValueError, match="alpha"):
            staleness_weights([0], alpha=1.5)
        with pytest.raises(ValueError, match="staleness"):
            staleness_weights([-1], alpha=0.5)


class TestStalenessDiscountedAggregate:
    @pytest.mark.parametrize("mode", ["variance", "equal", "entropy"])
    def test_all_ones_is_bit_identical_to_undiscounted(self, mode):
        """The degenerate-equivalence contract: weight 1.0 everywhere must
        take the exact float path of the undiscounted rule."""
        from repro.core import (
            entropy_weighted_aggregate,
            staleness_discounted_aggregate,
        )

        rng = np.random.default_rng(5)
        logits = [rng.normal(size=(6, 4)) for _ in range(3)]
        reference = {
            "variance": variance_weighted_aggregate,
            "equal": equal_average_aggregate,
            "entropy": entropy_weighted_aggregate,
        }[mode](logits)
        discounted = staleness_discounted_aggregate(logits, [1.0] * 3, mode=mode)
        np.testing.assert_array_equal(discounted, reference)  # no tolerance

    def test_zero_weight_excludes_client(self):
        from repro.core import staleness_discounted_aggregate

        a = np.full((4, 3), 2.0)
        b = np.full((4, 3), -7.0)
        out = staleness_discounted_aggregate([a, b], [1.0, 0.0], mode="equal")
        np.testing.assert_allclose(out, a)

    def test_discount_shifts_toward_fresh_client(self):
        from repro.core import staleness_discounted_aggregate

        fresh = np.zeros((4, 3))
        stale = np.ones((4, 3))
        out = staleness_discounted_aggregate(
            [fresh, stale], [1.0, 0.5], mode="equal"
        )
        # renormalised mixing: (1*0 + 0.5*1) / 1.5
        np.testing.assert_allclose(out, np.full((4, 3), 1.0 / 3.0))

    def test_variance_mode_stays_convex(self):
        from repro.core import staleness_discounted_aggregate

        rng = np.random.default_rng(8)
        logits = [rng.normal(size=(6, 4)) for _ in range(3)]
        out = staleness_discounted_aggregate(
            logits, [1.0, 0.5, 0.25], mode="variance"
        )
        stacked = np.stack(logits)
        assert (out >= stacked.min(axis=0) - 1e-9).all()
        assert (out <= stacked.max(axis=0) + 1e-9).all()

    def test_validation(self):
        from repro.core import staleness_discounted_aggregate

        logits = [np.zeros((2, 2)), np.zeros((2, 2))]
        with pytest.raises(ValueError, match="mode"):
            staleness_discounted_aggregate(logits, [1.0, 1.0], mode="median")
        with pytest.raises(ValueError, match="align"):
            staleness_discounted_aggregate(logits, [1.0])
        with pytest.raises(ValueError, match="non-negative"):
            staleness_discounted_aggregate(logits, [1.0, -0.5])
        with pytest.raises(ValueError, match="positive"):
            staleness_discounted_aggregate(logits, [0.0, 0.0])
