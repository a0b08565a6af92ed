"""Tests for prototype-geometry diagnostics."""

import numpy as np
import pytest

from repro.analysis import prototype_drift, prototype_separation


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

    def test_max_aggregate(self):
        a = np.zeros((2, 2))
        b = np.zeros((2, 2))
        b[1] = 3.0  # row 1 moves sqrt(18)
        assert prototype_drift([a, b], aggregate="max")[0] == pytest.approx(
            np.sqrt(18)
        )

    def test_nan_rows_ignored(self):
        a = np.array([[0.0, 0.0], [np.nan, np.nan]])
        b = np.array([[1.0, 0.0], [5.0, 5.0]])
        drifts = prototype_drift([a, b])
        np.testing.assert_allclose(drifts, [1.0])

    def test_short_history(self):
        assert prototype_drift([np.zeros((2, 2))]).shape == (0,)
