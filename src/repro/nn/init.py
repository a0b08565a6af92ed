"""Parameter initialisers and RNG plumbing for the nn substrate."""

from __future__ import annotations

from typing import Optional, Tuple, Union

import numpy as np

__all__ = ["ensure_rng", "kaiming_uniform"]

RngLike = Union[int, np.random.Generator]


def ensure_rng(rng: RngLike) -> np.random.Generator:
    """Coerce a seed or Generator into a ``numpy.random.Generator``.

    There is no unseeded fallback: every weight draw and shuffle traces
    back to a seed the caller chose.
    """
    if isinstance(rng, np.random.Generator):
        return rng
    if isinstance(rng, (int, np.integer)):
        return np.random.default_rng(rng)
    raise TypeError(
        f"rng must be an int seed or a numpy Generator, got {type(rng).__name__}"
    )


def kaiming_uniform(
    rng: np.random.Generator, shape: Tuple[int, ...], fan_in: Optional[int] = None
) -> np.ndarray:
    """He-uniform initialisation suited to ReLU networks."""
    if fan_in is None:
        fan_in = int(np.prod(shape[1:])) if len(shape) > 1 else shape[0]
    bound = np.sqrt(6.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape)
