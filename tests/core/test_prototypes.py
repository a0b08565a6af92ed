"""Tests for prototype aggregation (Eq. 8), distance utilities and geometry."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    aggregate_prototypes,
    merge_prototypes,
    prototype_coverage,
    prototype_distances,
    prototype_drift,
    prototype_separation,
)


def protos_for(values, num_classes=3, dim=2):
    """Build a prototype matrix with given rows, NaN elsewhere."""
    out = np.full((num_classes, dim), np.nan)
    for cls, vec in values.items():
        out[cls] = vec
    return out


class TestAggregate:
    def test_weighted_by_counts(self):
        p1 = protos_for({0: [0.0, 0.0]})
        p2 = protos_for({0: [4.0, 4.0]})
        c1 = np.array([3, 0, 0])
        c2 = np.array([1, 0, 0])
        agg = aggregate_prototypes([p1, p2], [c1, c2])
        np.testing.assert_allclose(agg[0], [1.0, 1.0])  # (3*0 + 1*4)/4

    def test_disjoint_classes_pass_through(self):
        p1 = protos_for({0: [1.0, 1.0]})
        p2 = protos_for({2: [5.0, 5.0]})
        agg = aggregate_prototypes(
            [p1, p2], [np.array([2, 0, 0]), np.array([0, 0, 2])]
        )
        np.testing.assert_allclose(agg[0], [1.0, 1.0])
        np.testing.assert_allclose(agg[2], [5.0, 5.0])
        assert np.isnan(agg[1]).all()

    def test_paper_literal_divides_by_contributors(self):
        p1 = protos_for({0: [2.0, 2.0]})
        p2 = protos_for({0: [2.0, 2.0]})
        counts = np.array([1, 0, 0])
        plain = aggregate_prototypes([p1, p2], [counts, counts])
        literal = aggregate_prototypes([p1, p2], [counts, counts], paper_literal=True)
        np.testing.assert_allclose(plain[0], [2.0, 2.0])
        np.testing.assert_allclose(literal[0], [1.0, 1.0])

    def test_validation(self):
        with pytest.raises(ValueError):
            aggregate_prototypes([], [])
        with pytest.raises(ValueError):
            aggregate_prototypes([protos_for({})], [])

    def test_zero_count_clients_ignored(self):
        p1 = protos_for({0: [1.0, 1.0]})
        p2 = protos_for({0: [99.0, 99.0]})
        agg = aggregate_prototypes(
            [p1, p2], [np.array([5, 0, 0]), np.array([0, 0, 0])]
        )
        np.testing.assert_allclose(agg[0], [1.0, 1.0])


class TestCoverageAndMerge:
    def test_coverage_mask(self):
        protos = protos_for({0: [1, 1], 2: [2, 2]})
        np.testing.assert_array_equal(prototype_coverage(protos), [True, False, True])

    def test_merge_fills_missing(self):
        new = protos_for({0: [1, 1]})
        old = protos_for({0: [9, 9], 1: [2, 2]})
        merged = merge_prototypes(new, old)
        np.testing.assert_allclose(merged[0], [1, 1])  # new wins
        np.testing.assert_allclose(merged[1], [2, 2])  # backfilled
        assert np.isnan(merged[2]).all()

    def test_merge_none_fallback(self):
        new = protos_for({0: [1, 1]})
        assert merge_prototypes(new, None) is new


class TestDistances:
    def test_l2(self):
        protos = protos_for({0: [0.0, 0.0], 1: [3.0, 4.0]})
        feats = np.array([[3.0, 4.0], [3.0, 4.0]])
        d = prototype_distances(feats, protos, np.array([0, 1]))
        np.testing.assert_allclose(d, [5.0, 0.0])

    def test_missing_prototype_nan(self):
        protos = protos_for({0: [0.0, 0.0]})
        d = prototype_distances(np.ones((1, 2)), protos, np.array([2]))
        assert np.isnan(d[0])


@given(
    counts1=st.integers(1, 50),
    counts2=st.integers(1, 50),
    v1=st.floats(-5, 5),
    v2=st.floats(-5, 5),
)
@settings(max_examples=40, deadline=None)
def test_aggregate_is_between_contributions(counts1, counts2, v1, v2):
    p1 = protos_for({0: [v1, v1]})
    p2 = protos_for({0: [v2, v2]})
    agg = aggregate_prototypes(
        [p1, p2], [np.array([counts1, 0, 0]), np.array([counts2, 0, 0])]
    )
    lo, hi = min(v1, v2) - 1e-9, max(v1, v2) + 1e-9
    assert lo <= agg[0, 0] <= hi


class TestAggregateClientWeights:
    """Staleness discounts on prototype aggregation (async engine)."""

    def test_all_ones_is_bit_identical_to_unweighted(self):
        rng = np.random.default_rng(4)
        protos = [
            protos_for({0: rng.normal(size=2), 1: rng.normal(size=2)}),
            protos_for({1: rng.normal(size=2), 2: rng.normal(size=2)}),
        ]
        counts = [np.array([3, 2, 0]), np.array([0, 4, 1])]
        unweighted = aggregate_prototypes(protos, counts)
        weighted = aggregate_prototypes(protos, counts, client_weights=[1.0, 1.0])
        np.testing.assert_array_equal(weighted, unweighted)  # NaN rows too

    def test_discount_scales_effective_counts(self):
        p1 = protos_for({0: [0.0, 0.0]})
        p2 = protos_for({0: [4.0, 4.0]})
        counts = [np.array([2, 0, 0]), np.array([2, 0, 0])]
        agg = aggregate_prototypes(
            [p1, p2], counts, client_weights=[1.0, 0.5]
        )
        # effective counts 2 and 1: (2*0 + 1*4) / 3
        np.testing.assert_allclose(agg[0], [4.0 / 3.0, 4.0 / 3.0])

    def test_zero_weight_excludes_client(self):
        p1 = protos_for({0: [1.0, 1.0]})
        p2 = protos_for({0: [9.0, 9.0], 1: [5.0, 5.0]})
        counts = [np.array([2, 0, 0]), np.array([2, 3, 0])]
        agg = aggregate_prototypes([p1, p2], counts, client_weights=[1.0, 0.0])
        np.testing.assert_allclose(agg[0], [1.0, 1.0])
        assert np.isnan(agg[1]).all()  # class 1 lived only on the excluded client

    def test_validation(self):
        p = protos_for({0: [1.0, 1.0]})
        c = np.array([1, 0, 0])
        with pytest.raises(ValueError, match="align"):
            aggregate_prototypes([p], [c], client_weights=[1.0, 1.0])
        with pytest.raises(ValueError, match="non-negative"):
            aggregate_prototypes([p], [c], client_weights=[-1.0])


class TestSeparation:
    def test_well_separated_clusters(self):
        rng = np.random.default_rng(0)
        feats = np.concatenate(
            [rng.normal(loc=i * 10.0, scale=0.5, size=(30, 3)) for i in range(3)]
        )
        labels = np.repeat(np.arange(3), 30)
        report = prototype_separation(feats, labels)
        assert report.separation_ratio > 5.0
        assert report.inter_class_distance > report.intra_class_distance

    def test_overlapping_clusters_low_ratio(self):
        rng = np.random.default_rng(1)
        feats = rng.normal(size=(90, 3))
        labels = np.repeat(np.arange(3), 30)
        report = prototype_separation(feats, labels)
        assert report.separation_ratio < 2.0

    def test_explicit_prototypes_used(self):
        feats = np.zeros((4, 2))
        labels = np.array([0, 0, 1, 1])
        prototypes = np.array([[3.0, 4.0], [0.0, 0.0]])
        report = prototype_separation(feats, labels, prototypes)
        # class-0 members sit 5 away from their given prototype
        assert report.per_class_intra[0] == pytest.approx(5.0)

    def test_inter_class_distance_oracle(self):
        # pair distances 3, 4, 5 (a 3-4-5 triangle); the uncovered NaN
        # class takes no part in the mean
        prototypes = np.array(
            [[0.0, 0.0], [3.0, 0.0], [0.0, 4.0], [np.nan, np.nan]]
        )
        feats = prototypes[:3].copy()
        labels = np.array([0, 1, 2])
        report = prototype_separation(feats, labels, prototypes)
        assert report.inter_class_distance == pytest.approx(4.0)

    def test_single_class_no_inter(self):
        feats = np.random.default_rng(2).normal(size=(10, 2))
        labels = np.zeros(10, dtype=int)
        report = prototype_separation(feats, labels)
        assert report.inter_class_distance == 0.0

    def test_zero_intra_infinite_ratio(self):
        feats = np.array([[0.0, 0.0], [1.0, 1.0]])
        labels = np.array([0, 1])
        report = prototype_separation(feats, labels)
        assert report.separation_ratio == float("inf")

    def test_misaligned_inputs(self):
        with pytest.raises(ValueError):
            prototype_separation(np.zeros((3, 2)), np.zeros(4))


class TestDrift:
    def test_static_prototypes_zero_drift(self):
        protos = np.ones((3, 4))
        drifts = prototype_drift([protos, protos.copy(), protos.copy()])
        np.testing.assert_allclose(drifts, [0.0, 0.0])

    def test_moving_prototypes(self):
        a = np.zeros((2, 2))
        b = np.ones((2, 2))  # each row moves sqrt(2)
        drifts = prototype_drift([a, b])
        np.testing.assert_allclose(drifts, [np.sqrt(2)])

    def test_nan_rows_ignored(self):
        a = np.array([[0.0, 0.0], [np.nan, np.nan]])
        b = np.array([[1.0, 0.0], [5.0, 5.0]])
        drifts = prototype_drift([a, b])
        np.testing.assert_allclose(drifts, [1.0])

    def test_short_history(self):
        assert prototype_drift([np.zeros((2, 2))]).shape == (0,)
