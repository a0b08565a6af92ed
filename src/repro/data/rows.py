"""Read-only row views: a client's shard of a dataset without its copy."""

from __future__ import annotations

from typing import Tuple

import numpy as np

__all__ = ["Rows"]


class Rows:
    """The rows ``base[index]`` of an array, held as the index alone.

    A federation's clients each see a shard of one bundle; holding the
    shard as an index keeps the bundle's rows in memory once.  ``len``,
    ``shape``, ``dtype`` and ``ndim`` answer as the copied array would,
    and ``rows[sel]`` (a slice, an int, an int or bool array) returns a
    fresh array equal to ``base[index][sel]`` — gathered with ``take``,
    so it never aliases ``base``.  ``np.asarray(rows)`` raises instead of
    silently copying the whole shard: index it (``rows[:]``) to
    materialise.
    """

    __slots__ = ("base", "index")

    def __init__(self, base: np.ndarray, index: np.ndarray) -> None:
        index = np.asarray(index)
        if index.ndim != 1 or index.dtype.kind not in "iu":
            raise ValueError("Rows needs a 1-d integer index")
        self.base = base
        self.index = index

    def __len__(self) -> int:
        return len(self.index)

    @property
    def shape(self) -> Tuple[int, ...]:
        return (len(self.index),) + self.base.shape[1:]

    @property
    def dtype(self) -> np.dtype:
        return self.base.dtype

    @property
    def ndim(self) -> int:
        return self.base.ndim

    def __getitem__(self, sel) -> np.ndarray:
        return self.base.take(self.index[sel], axis=0)

    def __array__(self, dtype=None, copy=None):
        raise TypeError(
            "Rows is a view of another array's rows; index it (rows[:]) "
            "to materialise a copy"
        )

    def __repr__(self) -> str:
        return f"Rows(shape={self.shape}, dtype={self.dtype})"
