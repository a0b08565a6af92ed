"""Minibatch iteration utilities."""

from __future__ import annotations

from typing import Iterator, Optional, Tuple

import numpy as np

__all__ = ["batch_iterator", "num_batches"]


def num_batches(n: int, batch_size: int) -> int:
    """Number of minibatches covering ``n`` samples."""
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    return (n + batch_size - 1) // batch_size


def batch_iterator(
    x: np.ndarray,
    y: Optional[np.ndarray] = None,
    batch_size: int = 32,
    *,
    rng: np.random.Generator,
    extras: Tuple[np.ndarray, ...] = (),
) -> Iterator[tuple]:
    """Yield shuffled minibatches of ``(x[, y][, *extras])``.

    The order is ``rng.permutation(len(x))``; there is no unshuffled or
    unseeded mode, so every epoch's order traces back to the caller's seed.

    ``extras`` are additional per-sample arrays (e.g. teacher logits) sliced
    with the same permutation, which the distillation training loops need.
    Each of them, ``x`` and ``y`` is reached only through ``len()`` and an
    int-array index, so a :class:`~repro.data.rows.Rows` view works as well
    as an array.
    """
    n = len(x)
    if y is not None and len(y) != n:
        raise ValueError(f"x/y length mismatch: {n} vs {len(y)}")
    for extra in extras:
        if len(extra) != n:
            raise ValueError("extras must have the same length as x")
    order = rng.permutation(n)
    for start in range(0, n, batch_size):
        sel = order[start : start + batch_size]
        batch = [x[sel]]
        if y is not None:
            batch.append(y[sel])
        for extra in extras:
            batch.append(extra[sel])
        yield tuple(batch)
