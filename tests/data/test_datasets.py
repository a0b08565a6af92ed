"""Tests for the synthetic dataset substrate."""

import hashlib
import tracemalloc

import numpy as np
import pytest

from repro.data import Dataset, SyntheticImageTask, make_task, synthetic_cifar10, synthetic_cifar100
from repro.data import datasets
from repro.experiments.harness import ExperimentSetting, make_bundle


class TestDataset:
    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            Dataset(np.zeros((3, 2)), np.zeros(4), num_classes=2)

    def test_class_counts(self):
        ds = Dataset(np.zeros((4, 1)), np.array([0, 0, 1, 2]), num_classes=4)
        np.testing.assert_array_equal(ds.class_counts(), [2, 1, 1, 0])

    def test_image_shape(self):
        ds = Dataset(np.zeros((2, 3, 4, 4)), np.zeros(2), 2)
        assert ds.image_shape == (3, 4, 4)


class TestSyntheticTask:
    def test_determinism(self):
        a = SyntheticImageTask(4, seed=3).sample(50, np.random.default_rng(1))
        b = SyntheticImageTask(4, seed=3).sample(50, np.random.default_rng(1))
        np.testing.assert_allclose(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])

    def test_different_task_seeds_differ(self):
        a = SyntheticImageTask(4, seed=3).sample(50, np.random.default_rng(1))
        b = SyntheticImageTask(4, seed=4).sample(50, np.random.default_rng(1))
        assert not np.allclose(a[0], b[0])

    def test_labels_in_range(self):
        x, y = SyntheticImageTask(6, seed=0).sample(200, np.random.default_rng(0))
        assert y.min() >= 0 and y.max() < 6

    def test_image_shape_and_bounds(self):
        task = SyntheticImageTask(3, image_shape=(1, 5, 5), seed=0)
        x, _ = task.sample(10, np.random.default_rng(0))
        assert x.shape == (10, 1, 5, 5)
        assert np.abs(x).max() <= 1.0  # tanh rendering

    def test_label_noise_flips_labels(self):
        clean = SyntheticImageTask(4, label_noise=0.0, seed=0)
        noisy = SyntheticImageTask(4, label_noise=0.5, seed=0)
        rng1, rng2 = np.random.default_rng(5), np.random.default_rng(5)
        _, y_clean = clean.sample(500, rng1)
        _, y_noisy = noisy.sample(500, rng2)
        assert (y_clean != y_noisy).mean() > 0.2

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            SyntheticImageTask(1)
        with pytest.raises(ValueError):
            SyntheticImageTask(3, label_noise=1.0)

    def test_classes_are_separable(self):
        """A nearest-class-mean classifier must beat chance by a wide margin,
        otherwise prototypes would be meaningless."""
        task = SyntheticImageTask(4, seed=0, class_separation=1.5, noise_scale=1.0)
        rng = np.random.default_rng(0)
        x_train, y_train = task.sample(400, rng)
        x_test, y_test = task.sample(200, rng)
        flat_train = x_train.reshape(len(x_train), -1)
        flat_test = x_test.reshape(len(x_test), -1)
        means = np.stack([flat_train[y_train == c].mean(axis=0) for c in range(4)])
        dists = ((flat_test[:, None, :] - means[None]) ** 2).sum(axis=2)
        acc = (dists.argmin(axis=1) == y_test).mean()
        assert acc > 0.5


class TestBundles:
    def test_bundle_shapes(self):
        b = synthetic_cifar10(n_train=100, n_test=40, n_public=30, seed=0)
        assert len(b.train) == 100
        assert len(b.test) == 40
        assert b.public.shape[0] == 30
        assert b.public_true_labels.shape == (30,)
        assert b.num_classes == 10

    def test_cifar100_has_100_classes(self):
        b = synthetic_cifar100(n_train=300, n_test=50, n_public=50, seed=0)
        assert b.num_classes == 100
        assert b.train.y.max() < 100

    def test_splits_are_distinct_draws(self):
        b = synthetic_cifar10(n_train=50, n_test=50, n_public=50, seed=0)
        assert not np.allclose(b.train.x[:10], b.test.x[:10])

    def test_make_task_unknown(self):
        with pytest.raises(KeyError):
            make_task("imagenet")

    def test_make_task_overrides(self):
        task = make_task("cifar10", seed=0, image_shape=(1, 4, 4))
        assert task.image_shape == (1, 4, 4)

    def test_bundle_determinism(self):
        a = synthetic_cifar10(n_train=50, n_test=20, n_public=20, seed=9)
        b = synthetic_cifar10(n_train=50, n_test=20, n_public=20, seed=9)
        np.testing.assert_allclose(a.train.x, b.train.x)
        np.testing.assert_array_equal(a.public_true_labels, b.public_true_labels)


def bundle_arrays(bundle):
    return (bundle.train.x, bundle.train.y, bundle.test.x, bundle.test.y,
            bundle.public, bundle.public_true_labels)


def bundle_digest(bundle) -> str:
    digest = hashlib.sha256()
    for array in bundle_arrays(bundle):
        digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()


def cohort_bundle(n_train):
    """The task of the 5 000- and 100 000-client cohort runs."""
    task = SyntheticImageTask(
        num_classes=4, image_shape=(1, 4, 4), latent_dim=4,
        class_separation=2.0, seed=0, name="cohort",
    )
    return task.make_bundle(n_train=n_train, n_test=400, n_public=100, seed=1)


class TestGeneratedBytes:
    """The generator's output is pinned byte for byte: every pinned history
    is computed from it, so rendering in row blocks must give the bytes of
    one all-rows product."""

    @pytest.mark.parametrize("dataset, scale, expected", [
        ("cifar10", "tiny", "de822677d47cb66a97395c693518701cbe696e275332c15ff2d93057808514bb"),
        ("cifar10", "small", "916acf359ba3da36d7bfbd45cd1861ba2b4f88a85652e644a82728550a3f8068"),
        ("cifar100", "tiny", "ec1631ce032f8f25ae4b75f087754274af1bd579baf388abcbc030ad8c638ab5"),
        ("cifar100", "small", "b250b42140bba0ea72a371655cddb7be1ab192e32e4c9c3bbbce81e249d62edd"),
    ])
    def test_preset_bundle_bytes_are_pinned(self, dataset, scale, expected):
        setting = ExperimentSetting(dataset=dataset, scale=scale)
        assert bundle_digest(make_bundle(setting)) == expected

    @pytest.mark.parametrize("n_train, expected", [
        (60_000, "ef8e52ef2b614928a20b74c98056b7d2d7fcd681509f634143490005dfabf3fb"),
        # two 4 096-row blocks and one row: the tail row joins the last block
        (8_193, "78d43991c604224b0b7908155354c62f165b070607828503d26166a58a4ca195"),
    ])
    def test_cohort_bundle_bytes_are_pinned(self, n_train, expected):
        assert bundle_digest(cohort_bundle(n_train)) == expected

    @pytest.mark.parametrize("n", [14, 15, 16])
    def test_block_size_does_not_change_the_bytes(self, monkeypatch, n):
        """Blocks of 7 rows render the same bytes as one product, also when
        the last block would hold a single row (15 = 7 + 7 + 1): a one-row
        product goes through gemv and differs from gemm in the last bit."""
        task = make_task("cifar10", seed=0)
        latents = np.random.default_rng(3).normal(size=(n, task.latent_dim))
        whole = task._render(latents)
        monkeypatch.setattr(datasets, "_RENDER_ROWS", 7)
        assert task._render(latents).tobytes() == whole.tobytes()

    def test_empty_sample(self):
        x, y = make_task("cifar10", seed=0).sample(0, np.random.default_rng(0))
        assert x.shape == (0, 3, 8, 8) and y.shape == (0,)


def test_bundle_build_peaks_near_its_own_bytes():
    """Rendering in row blocks keeps a 120 000-row bundle build's traced
    peak within 1.5x the bundle's bytes; full-size hidden layers and
    temporaries would take it past 4x."""
    tracemalloc.start()
    try:
        bundle = cohort_bundle(120_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    nbytes = sum(array.nbytes for array in bundle_arrays(bundle))
    assert peak <= 1.5 * nbytes, (peak, nbytes)
