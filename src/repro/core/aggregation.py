"""Client-logit aggregation rules.

FedPKD's variance-weighted ensemble (Eqs. 6–7) plus the simpler rules the
benchmarks and ablations use: equal averaging (Eq. 3 / FedMD) and DS-FL's
entropy-reduction aggregation.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

__all__ = [
    "variance_weighted_aggregate",
    "variance_weights",
    "equal_average_aggregate",
    "entropy_reduction_aggregate",
    "entropy_weighted_aggregate",
    "logit_variances",
    "staleness_weights",
    "staleness_discounted_aggregate",
]


def _stack(client_logits: Sequence[np.ndarray]) -> np.ndarray:
    if len(client_logits) == 0:
        raise ValueError("no client logits to aggregate")
    stacked = np.stack([np.asarray(l, dtype=np.float64) for l in client_logits])
    if stacked.ndim != 3:
        raise ValueError("each client's logits must be (num_samples, num_classes)")
    return stacked


def logit_variances(client_logits: Sequence[np.ndarray]) -> np.ndarray:
    """Per-client, per-sample variance of the logit vector (Eq. 7 numerator).

    A confident model produces a peaked logit vector with high variance
    across classes; the paper uses that variance as the sample-level quality
    score.  Returns shape ``(num_clients, num_samples)``.
    """
    stacked = _stack(client_logits)
    return stacked.var(axis=2)


def variance_weights(client_logits: Sequence[np.ndarray]) -> np.ndarray:
    """The Eq. 7 mixing weights ``beta_c(x_i)``, shape ``(C, S)``.

    Each column sums to 1.  If every client has zero variance on a sample
    (degenerate), that column falls back to equal weights.  Exposed
    separately so observability can report the weight distribution without
    re-deriving the aggregation internals.
    """
    stacked = _stack(client_logits)
    variances = stacked.var(axis=2)  # (C, S)
    totals = variances.sum(axis=0, keepdims=True)  # (1, S)
    num_clients = stacked.shape[0]
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(totals > 0, variances / totals, 1.0 / num_clients)


def variance_weighted_aggregate(client_logits: Sequence[np.ndarray]) -> np.ndarray:
    """FedPKD's aggregation (Eq. 6): per-sample variance-weighted mean.

    Uses :func:`variance_weights` for the ``beta_c(x_i)`` mixing weights.
    """
    stacked = _stack(client_logits)
    return np.einsum("cs,csn->sn", variance_weights(client_logits), stacked)


def equal_average_aggregate(client_logits: Sequence[np.ndarray]) -> np.ndarray:
    """Plain mean of client logits (Eq. 3; FedMD-style consensus)."""
    return _stack(client_logits).mean(axis=0)


def entropy_weighted_aggregate(client_logits: Sequence[np.ndarray]) -> np.ndarray:
    """Extension (paper future work): confidence weights from prediction entropy.

    Like Eq. 6 but scoring each client's per-sample quality by the *negative
    entropy* of its softmax prediction instead of the raw logit variance —
    a scale-invariant confidence measure that is robust to clients whose
    logit magnitudes differ (e.g. heterogeneous architectures).
    """
    stacked = _stack(client_logits)
    shifted = stacked - stacked.max(axis=2, keepdims=True)
    probs = np.exp(shifted)
    probs /= probs.sum(axis=2, keepdims=True)
    entropy = -(probs * np.log(probs + 1e-12)).sum(axis=2)  # (C, S)
    max_entropy = np.log(stacked.shape[2])
    confidence = max_entropy - entropy  # >= 0, higher = more confident
    totals = confidence.sum(axis=0, keepdims=True)
    num_clients = stacked.shape[0]
    with np.errstate(invalid="ignore", divide="ignore"):
        weights = np.where(totals > 0, confidence / totals, 1.0 / num_clients)
    return np.einsum("cs,csn->sn", weights, stacked)


def staleness_weights(
    staleness: Sequence[int], alpha: float = 0.5
) -> np.ndarray:
    """Per-client staleness discounts ``alpha ** s`` (buffered-async FL).

    ``staleness[i]`` is the number of server versions that elapsed between
    client ``i``'s dispatch and the aggregation consuming its contribution
    (0 = fresh).  ``alpha`` in ``(0, 1]`` controls how fast stale knowledge
    decays; ``alpha = 1`` ignores staleness entirely.
    """
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must be in (0, 1], got {alpha}")
    staleness = np.asarray(staleness, dtype=np.int64)
    if (staleness < 0).any():
        raise ValueError("staleness values must be >= 0")
    return np.power(float(alpha), staleness.astype(np.float64))


def staleness_discounted_aggregate(
    client_logits: Sequence[np.ndarray],
    client_weights: Sequence[float],
    mode: str = "variance",
) -> np.ndarray:
    """Aggregate client logits with per-client staleness discounts.

    The base rule's per-sample mixing weights (Eq. 6/7 for ``"variance"``,
    uniform for ``"equal"``, negative-entropy confidence for ``"entropy"``)
    are scaled by each client's ``client_weights`` entry (typically
    :func:`staleness_weights`) and renormalised per sample, so a stale
    contribution is folded in with proportionally less influence instead
    of being discarded.

    When every weight equals 1.0 this delegates to the undiscounted rule
    and is **bit-identical** to it — the property the async engine's
    serial-reference equivalence relies on.
    """
    if mode not in ("variance", "equal", "entropy"):
        raise ValueError(f"unknown aggregation mode '{mode}'")
    weights = np.asarray(client_weights, dtype=np.float64)
    if len(weights) != len(client_logits):
        raise ValueError("client_weights must align with client_logits")
    if (weights < 0).any():
        raise ValueError("client_weights must be non-negative")
    if np.all(weights == 1.0):
        if mode == "variance":
            return variance_weighted_aggregate(client_logits)
        if mode == "entropy":
            return entropy_weighted_aggregate(client_logits)
        return equal_average_aggregate(client_logits)
    if not weights.any():
        raise ValueError("at least one client weight must be positive")
    stacked = _stack(client_logits)
    num_clients, num_samples = stacked.shape[0], stacked.shape[1]
    if mode == "variance":
        base = variance_weights(client_logits)  # (C, S)
    elif mode == "entropy":
        shifted = stacked - stacked.max(axis=2, keepdims=True)
        probs = np.exp(shifted)
        probs /= probs.sum(axis=2, keepdims=True)
        entropy = -(probs * np.log(probs + 1e-12)).sum(axis=2)
        confidence = np.log(stacked.shape[2]) - entropy
        totals = confidence.sum(axis=0, keepdims=True)
        with np.errstate(invalid="ignore", divide="ignore"):
            base = np.where(totals > 0, confidence / totals, 1.0 / num_clients)
    else:
        base = np.full(
            (num_clients, num_samples), 1.0 / num_clients, dtype=np.float64
        )
    mixed = base * weights[:, None]  # (C, S)
    totals = mixed.sum(axis=0, keepdims=True)  # (1, S)
    # a column can zero out when the only confident clients are weighted to
    # ~0; fall back to the pure staleness weights there
    fallback = np.broadcast_to(
        (weights / weights.sum())[:, None], mixed.shape
    )
    with np.errstate(invalid="ignore", divide="ignore"):
        mixed = np.where(totals > 0, mixed / totals, fallback)
    return np.einsum("cs,csn->sn", mixed, stacked)


def entropy_reduction_aggregate(
    client_logits: Sequence[np.ndarray],
    temperature: float = 0.1,
    client_weights: Optional[Sequence[float]] = None,
) -> np.ndarray:
    """DS-FL's ERA: average client *probabilities*, then sharpen them.

    The averaged distribution is re-normalised through a low-temperature
    softmax of its log, reducing its entropy; returns *log-probabilities*
    usable as logits.  ``temperature < 1`` sharpens (the DS-FL paper uses
    T=0.1).  ``client_weights`` (staleness discounts) make the average a
    weighted one; ``None`` or all-ones is the plain mean bit-for-bit.
    """
    if temperature <= 0:
        raise ValueError(f"temperature must be positive, got {temperature}")
    stacked = _stack(client_logits)
    shifted = stacked - stacked.max(axis=2, keepdims=True)
    probs = np.exp(shifted)
    probs /= probs.sum(axis=2, keepdims=True)
    if client_weights is None or np.all(np.asarray(client_weights) == 1.0):
        mean_probs = probs.mean(axis=0)
    else:
        weights = np.asarray(client_weights, dtype=np.float64)
        mean_probs = np.einsum("c,csn->sn", weights / weights.sum(), probs)
    logp = np.log(mean_probs + 1e-12) / temperature
    logp -= logp.max(axis=1, keepdims=True)
    sharpened = np.exp(logp)
    sharpened /= sharpened.sum(axis=1, keepdims=True)
    return np.log(sharpened + 1e-12)
