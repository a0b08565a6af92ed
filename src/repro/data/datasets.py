"""Synthetic image-classification datasets standing in for CIFAR-10/100.

No dataset download is possible offline, so we substitute generators that
preserve the *distributional* structure FedPKD's evaluation depends on:

- classes occupy distinct regions of a latent space (so prototypes are
  meaningful and per-class logit quality tracks training-data share);
- classes have intra-class variation (multiple latent modes + noise) so the
  task is non-trivial and more data genuinely helps;
- samples are rendered to image tensors through a fixed random nonlinear
  map, so convolutional and MLP models both have to learn real features;
- a configurable fraction of samples can be label-noised or rendered far
  from their class prototype, giving the data-filtering mechanism actual
  low-quality samples to reject.

``synthetic_cifar10``/``synthetic_cifar100`` mirror the paper's setup: a
labelled pool partitioned across clients, an *unlabelled* public dataset,
and a global test set.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

__all__ = [
    "Dataset",
    "FederatedDataBundle",
    "SyntheticImageTask",
    "synthetic_cifar10",
    "synthetic_cifar100",
    "make_task",
]

#: Rows :meth:`SyntheticImageTask._render` pushes through its network at a
#: time; the working set is one block's hidden layer (~1 MB at 32 columns).
_RENDER_ROWS = 4096


@dataclass
class Dataset:
    """A labelled array dataset.

    ``x`` has shape ``(N, C, H, W)`` (or ``(N, D)`` for flat tasks) and ``y``
    holds integer labels in ``[0, num_classes)``.
    """

    x: np.ndarray
    y: np.ndarray
    num_classes: int
    name: str = "dataset"

    def __post_init__(self) -> None:
        self.x = np.asarray(self.x, dtype=np.float64)
        self.y = np.asarray(self.y, dtype=np.int64)
        if len(self.x) != len(self.y):
            raise ValueError(
                f"x/y length mismatch: {len(self.x)} vs {len(self.y)}"
            )

    def __len__(self) -> int:
        return len(self.x)

    @property
    def image_shape(self) -> Tuple[int, ...]:
        return self.x.shape[1:]

    def class_counts(self) -> np.ndarray:
        """Histogram of labels over ``num_classes`` bins."""
        return np.bincount(self.y, minlength=self.num_classes)


@dataclass
class FederatedDataBundle:
    """Everything one FL experiment needs.

    Attributes
    ----------
    train:
        The labelled pool to be partitioned across clients.
    test:
        Global held-out test set (drives the paper's ``S_acc`` metric).
    public:
        The shared public dataset.  Its labels are *hidden* from the
        algorithms (the paper's public set is unlabelled); they are retained
        in ``public_true_labels`` for diagnostics such as Fig. 2.
    """

    train: Dataset
    test: Dataset
    public: np.ndarray
    public_true_labels: np.ndarray
    num_classes: int
    name: str

    @property
    def image_shape(self) -> Tuple[int, ...]:
        return self.train.image_shape


class SyntheticImageTask:
    """Generator of a fixed synthetic classification task.

    The task is defined once (anchors + rendering map) from ``seed``; all
    splits drawn from the same task share it, so train/test/public are IID
    draws from one distribution, exactly like splitting CIFAR.
    """

    def __init__(
        self,
        num_classes: int,
        image_shape: Tuple[int, int, int] = (3, 8, 8),
        latent_dim: int = 16,
        modes_per_class: int = 2,
        class_separation: float = 3.0,
        mode_spread: float = 1.0,
        noise_scale: float = 0.8,
        label_noise: float = 0.0,
        seed: int = 0,
        name: str = "synthetic",
    ) -> None:
        if num_classes < 2:
            raise ValueError("need at least two classes")
        if not 0.0 <= label_noise < 1.0:
            raise ValueError("label_noise must be in [0, 1)")
        self.num_classes = num_classes
        self.image_shape = tuple(image_shape)
        self.latent_dim = latent_dim
        self.modes_per_class = modes_per_class
        self.noise_scale = noise_scale
        self.label_noise = label_noise
        self.name = name
        self._task_rng = np.random.default_rng(seed)

        # Class anchors and per-class mode offsets in latent space.
        self._anchors = (
            self._task_rng.normal(size=(num_classes, latent_dim)) * class_separation
        )
        self._modes = (
            self._task_rng.normal(size=(num_classes, modes_per_class, latent_dim))
            * mode_spread
        )

        # Fixed random two-layer rendering network latent -> image.
        out_dim = int(np.prod(image_shape))
        hidden = max(2 * latent_dim, 32)
        self._w1 = self._task_rng.normal(size=(latent_dim, hidden)) / np.sqrt(latent_dim)
        self._b1 = self._task_rng.normal(size=hidden) * 0.1
        self._w2 = self._task_rng.normal(size=(hidden, out_dim)) / np.sqrt(hidden)
        self._b2 = self._task_rng.normal(size=out_dim) * 0.1

    def _render(self, latents: np.ndarray) -> np.ndarray:
        """Push ``latents`` through the rendering network, ``_RENDER_ROWS``
        rows at a time into one preallocated output, so rendering costs the
        output plus one block's hidden layer.  Each row's bytes equal those
        of an all-rows product: numpy sends every block of two or more rows
        through the same gemm, and only a one-row block would go through
        gemv, whose last bit differs — so a one-row tail joins the block
        before it."""
        n = len(latents)
        if n == 0:
            return np.empty((0, *self.image_shape))
        flat = None
        start = 0
        while start < n:
            stop = min(start + _RENDER_ROWS, n)
            if n - stop == 1:
                stop = n
            hidden = latents[start:stop] @ self._w1
            hidden += self._b1
            np.tanh(hidden, out=hidden)
            if flat is None:
                # allocated only after the first block's hidden layer:
                # allocating it before left a heap layout that raised a
                # later ResNet run's peak RSS by ~1.4 MB
                flat = np.empty((n, self._w2.shape[1]))
            block = flat[start:stop]
            np.matmul(hidden, self._w2, out=block)
            block += self._b2
            np.tanh(block, out=block)
            start = stop
        return flat.reshape(n, *self.image_shape)

    def sample(self, n: int, rng: np.random.Generator) -> Tuple[np.ndarray, np.ndarray]:
        """Draw ``n`` labelled samples (classes balanced in expectation)."""
        labels = rng.integers(0, self.num_classes, size=n)
        modes = rng.integers(0, self.modes_per_class, size=n)
        # (anchor + mode) + noise * scale, summed in place
        latents = self._anchors[labels]
        latents += self._modes[labels, modes]
        latents += rng.normal(size=(n, self.latent_dim)) * self.noise_scale
        images = self._render(latents)
        if self.label_noise > 0:
            flip = rng.random(n) < self.label_noise
            labels[flip] = rng.integers(0, self.num_classes, size=int(flip.sum()))
        return images, labels

    def make_bundle(
        self,
        n_train: int,
        n_test: int,
        n_public: int,
        seed: int = 0,
    ) -> FederatedDataBundle:
        """Draw disjoint train / test / public splits from the task."""
        rng = np.random.default_rng(seed)
        x_train, y_train = self.sample(n_train, rng)
        x_test, y_test = self.sample(n_test, rng)
        x_public, y_public = self.sample(n_public, rng)
        return FederatedDataBundle(
            train=Dataset(x_train, y_train, self.num_classes, f"{self.name}-train"),
            test=Dataset(x_test, y_test, self.num_classes, f"{self.name}-test"),
            public=x_public,
            public_true_labels=y_public,
            num_classes=self.num_classes,
            name=self.name,
        )


def make_task(name: str, seed: int = 0, **overrides) -> SyntheticImageTask:
    """Build a named task; ``"cifar10"``/``"cifar100"`` roles are predefined."""
    # Difficulty calibrated so a centralised MLP on ~1.5k samples reaches
    # roughly CIFAR-level accuracy (~65% for the 10-class task), leaving
    # headroom for the FL methods to differ.
    presets: Dict[str, dict] = {
        "cifar10": dict(
            num_classes=10,
            latent_dim=16,
            class_separation=1.0,
            noise_scale=1.5,
            modes_per_class=4,
            label_noise=0.05,
        ),
        "cifar100": dict(
            num_classes=100,
            latent_dim=32,
            class_separation=1.2,
            noise_scale=1.3,
            modes_per_class=2,
            label_noise=0.05,
        ),
    }
    if name not in presets:
        raise KeyError(f"unknown task '{name}'; choose from {sorted(presets)}")
    config = dict(presets[name])
    config.update(overrides)
    return SyntheticImageTask(seed=seed, name=name, **config)


def synthetic_cifar10(
    n_train: int = 4000,
    n_test: int = 1000,
    n_public: int = 1000,
    image_shape: Tuple[int, int, int] = (3, 8, 8),
    seed: int = 0,
    **overrides,
) -> FederatedDataBundle:
    """CIFAR-10 stand-in: 10-class task with train/test/unlabelled-public splits."""
    task = make_task("cifar10", seed=seed, image_shape=image_shape, **overrides)
    return task.make_bundle(n_train, n_test, n_public, seed=seed + 1)


def synthetic_cifar100(
    n_train: int = 6000,
    n_test: int = 1500,
    n_public: int = 1500,
    image_shape: Tuple[int, int, int] = (3, 8, 8),
    seed: int = 0,
    **overrides,
) -> FederatedDataBundle:
    """CIFAR-100 stand-in: 100-class task (harder, more classes per client)."""
    task = make_task("cifar100", seed=seed, image_shape=image_shape, **overrides)
    return task.make_bundle(n_train, n_test, n_public, seed=seed + 1)
