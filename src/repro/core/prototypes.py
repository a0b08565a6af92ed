"""Prototype computation and aggregation (paper Eqs. 5 and 8).

A prototype is the mean feature-space representation of one class.  Clients
compute local prototypes over their private data
(:meth:`repro.fl.FLClient.compute_prototypes`); the server merges the
overlapping per-class prototypes from all clients into global prototypes.

Prototype matrices are dense ``(num_classes, feature_dim)`` arrays with NaN
rows marking classes a client (or the federation) has no data for.

:func:`prototype_separation` and :func:`prototype_drift` measure the
geometry FedPKD's mechanisms assume: prototypes that carve the feature
space into well-separated class regions and settle as rounds go by.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

__all__ = [
    "aggregate_prototypes",
    "prototype_coverage",
    "merge_prototypes",
    "prototype_distances",
    "SeparationReport",
    "prototype_separation",
    "prototype_drift",
]


def aggregate_prototypes(
    client_prototypes: Sequence[np.ndarray],
    client_class_counts: Sequence[np.ndarray],
    paper_literal: bool = False,
    client_weights: Optional[Sequence[float]] = None,
) -> np.ndarray:
    """Aggregate per-client prototypes into global prototypes (Eq. 8).

    For each class ``j``, the clients holding samples of ``j`` contribute
    their local prototype weighted by their sample count ``|D_c^j|``.

    Eq. 8 as printed divides the weighted mean by ``|C_j|`` a second time,
    which would shrink prototypes toward the origin as more clients share a
    class; we read that as a typo and default to the plain data-weighted
    mean.  Set ``paper_literal=True`` to follow the printed formula exactly.

    Parameters
    ----------
    client_prototypes:
        One ``(num_classes, feature_dim)`` array per client; NaN rows for
        absent classes.
    client_class_counts:
        One ``(num_classes,)`` integer array per client.
    client_weights:
        Optional per-client discount (the async engine's staleness weights
        ``alpha ** s``): a client's effective sample count becomes
        ``weight * |D_c^j|``, so stale prototype contributions are folded
        in with less influence.  A weight of exactly 0 excludes the client.
        ``None`` (and all-ones) reproduce the unweighted rule bit-for-bit.
    """
    if len(client_prototypes) == 0:
        raise ValueError("no client prototypes to aggregate")
    if len(client_prototypes) != len(client_class_counts):
        raise ValueError("prototypes and counts must align per client")
    if client_weights is None:
        weights = [1.0] * len(client_prototypes)
    else:
        weights = [float(w) for w in client_weights]
        if len(weights) != len(client_prototypes):
            raise ValueError("client_weights must align per client")
        if any(w < 0 for w in weights):
            raise ValueError("client_weights must be non-negative")
    num_classes, feature_dim = client_prototypes[0].shape
    # the prototype table is wire payload: float32 throughout (WIRE_DTYPE)
    global_protos = np.full((num_classes, feature_dim), np.nan, dtype=np.float32)
    for cls in range(num_classes):
        # accumulate in float64 for numerical headroom; the table row
        # downcasts on assignment
        weighted = np.zeros(feature_dim, dtype=np.float64)
        total_count = 0.0
        contributors = 0
        for protos, counts, w in zip(
            client_prototypes, client_class_counts, weights
        ):
            count = float(counts[cls])
            if w == 0.0 or count <= 0 or np.isnan(protos[cls]).any():
                continue
            if w != 1.0:
                count *= w
            weighted += count * protos[cls]
            total_count += count
            contributors += 1
        if contributors == 0:
            continue
        mean = weighted / total_count
        if paper_literal:
            mean = mean / contributors
        global_protos[cls] = mean
    return global_protos


def prototype_coverage(prototypes: np.ndarray) -> np.ndarray:
    """Boolean mask of classes that have a (non-NaN) prototype."""
    return ~np.isnan(prototypes).any(axis=1)


def merge_prototypes(
    primary: np.ndarray, fallback: Optional[np.ndarray]
) -> np.ndarray:
    """Fill NaN rows of ``primary`` from ``fallback`` (e.g. last round's).

    Keeps global prototypes usable when a round's participants jointly miss
    some class (partial participation / failure injection).
    """
    if fallback is None:
        return primary
    merged = primary.copy()
    missing = ~prototype_coverage(primary)
    merged[missing] = fallback[missing]
    return merged


def prototype_distances(features: np.ndarray, prototypes: np.ndarray,
                        labels: np.ndarray) -> np.ndarray:
    """L2 distance of each feature vector to its label's prototype (Eq. 10).

    Distances for labels without a prototype come back as NaN.
    """
    labels = np.asarray(labels, dtype=np.int64)
    targets = prototypes[labels]
    return np.linalg.norm(features - targets, axis=1)


@dataclass
class SeparationReport:
    """Summary of prototype geometry for one feature space.

    ``separation_ratio`` is mean inter-class prototype distance divided by
    mean intra-class feature-to-prototype distance: > 1 means classes are
    more spread apart than they are internally diffuse (good for Alg. 1).
    """

    intra_class_distance: float
    inter_class_distance: float
    per_class_intra: np.ndarray

    @property
    def separation_ratio(self) -> float:
        if self.intra_class_distance == 0:
            return float("inf")
        return self.inter_class_distance / self.intra_class_distance


def prototype_separation(
    features: np.ndarray, labels: np.ndarray, prototypes: Optional[np.ndarray] = None
) -> SeparationReport:
    """Measure intra- vs inter-class distances in a feature space.

    Parameters
    ----------
    features:
        ``(N, D)`` feature vectors.
    labels:
        ``(N,)`` integer labels.
    prototypes:
        Optional ``(C, D)`` prototypes; computed as class means if omitted.
    """
    labels = np.asarray(labels, dtype=np.int64)
    if len(features) != len(labels):
        raise ValueError("features and labels must align")
    classes = np.unique(labels)
    num_classes = int(labels.max()) + 1 if len(labels) else 0
    if prototypes is None:
        dim = features.shape[1]
        # diagnostics, not wire payload: measured in float64
        prototypes = np.full((num_classes, dim), np.nan, dtype=np.float64)
        for cls in classes:
            prototypes[cls] = features[labels == cls].mean(axis=0)

    per_class = np.full(prototypes.shape[0], np.nan, dtype=np.float64)
    for cls in classes:
        if np.isnan(prototypes[cls]).any():
            continue
        members = features[labels == cls]
        per_class[cls] = np.linalg.norm(members - prototypes[cls], axis=1).mean()
    intra = float(np.nanmean(per_class)) if np.isfinite(per_class).any() else 0.0

    covered = np.flatnonzero(prototype_coverage(prototypes))
    if len(covered) >= 2:
        rows, cols = np.triu_indices(len(covered), k=1)
        upper = np.linalg.norm(
            prototypes[covered[rows]] - prototypes[covered[cols]], axis=1
        )
        inter = float(upper.mean())
    else:
        inter = 0.0
    return SeparationReport(
        intra_class_distance=intra,
        inter_class_distance=inter,
        per_class_intra=per_class,
    )


def prototype_drift(prototypes_by_round: List[np.ndarray]) -> np.ndarray:
    """Per-round L2 drift of global prototypes across a run.

    Returns an array of length ``len(prototypes_by_round) - 1`` with the
    mean per-class prototype movement between consecutive rounds, over the
    classes both rounds cover (NaN when they share none) — a convergence
    diagnostic for the dual knowledge loop.
    """
    if len(prototypes_by_round) < 2:
        return np.zeros(0, dtype=np.float64)
    drifts = []
    for prev, curr in zip(prototypes_by_round[:-1], prototypes_by_round[1:]):
        both = prototype_coverage(prev) & prototype_coverage(curr)
        if not both.any():
            drifts.append(np.nan)
            continue
        step = np.linalg.norm(curr[both] - prev[both], axis=1)
        drifts.append(float(step.mean()))
    return np.asarray(drifts)
