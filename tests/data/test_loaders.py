"""Tests for minibatch iteration."""

import numpy as np
import pytest

from repro.data import batch_iterator, num_batches


class TestNumBatches:
    def test_exact_division(self):
        assert num_batches(100, 10) == 10

    def test_remainder(self):
        assert num_batches(101, 10) == 11

    def test_invalid(self):
        with pytest.raises(ValueError):
            num_batches(10, 0)


class TestBatchIterator:
    def test_covers_all_samples(self):
        x = np.arange(25).reshape(25, 1)
        seen = []
        for (xb,) in batch_iterator(x, batch_size=4, rng=np.random.default_rng(3)):
            seen.extend(xb[:, 0].tolist())
        assert sorted(seen) == list(range(25))

    def test_shuffle_permutes(self):
        x = np.arange(50).reshape(50, 1)
        rng = np.random.default_rng(0)
        seen = []
        for (xb,) in batch_iterator(x, batch_size=50, rng=rng):
            seen.extend(xb[:, 0].tolist())
        assert sorted(seen) == list(range(50))
        assert seen != list(range(50))

    def test_xy_alignment_preserved(self):
        x = np.arange(30).reshape(30, 1)
        y = np.arange(30) * 10
        rng = np.random.default_rng(1)
        for xb, yb in batch_iterator(x, y, batch_size=7, rng=rng):
            np.testing.assert_array_equal(xb[:, 0] * 10, yb)

    def test_extras_alignment(self):
        x = np.arange(20).reshape(20, 1)
        y = np.arange(20)
        logits = np.arange(20).reshape(20, 1) * 2.0
        rng = np.random.default_rng(2)
        for xb, yb, lb in batch_iterator(x, y, batch_size=6, rng=rng, extras=(logits,)):
            np.testing.assert_array_equal(xb[:, 0] * 2.0, lb[:, 0])

    def test_mismatched_lengths_raise(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            list(batch_iterator(np.zeros((5, 1)), np.zeros(4), rng=rng))
        with pytest.raises(ValueError):
            list(batch_iterator(np.zeros((5, 1)), extras=(np.zeros(3),), rng=rng))

    def test_batch_sizes(self):
        batches = batch_iterator(np.zeros((10, 1)), batch_size=4, rng=np.random.default_rng(0))
        sizes = [len(b[0]) for b in batches]
        assert sizes == [4, 4, 2]

    def test_rng_is_required(self):
        """No unseeded fallback: an omitted rng is an error, not a fresh seed."""
        with pytest.raises(TypeError):
            batch_iterator(np.zeros((4, 1)))
