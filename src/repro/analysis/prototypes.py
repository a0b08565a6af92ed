"""Prototype-geometry diagnostics.

FedPKD's mechanisms all assume prototypes carve the feature space into
well-separated class regions.  These utilities quantify that assumption on
a trained model so users can debug *why* filtering or the prototype loss is
(or isn't) helping.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..core.prototypes import prototype_coverage

__all__ = ["SeparationReport", "prototype_separation", "prototype_drift"]


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
        prototypes = np.full((num_classes, dim), np.nan)
        for cls in classes:
            prototypes[cls] = features[labels == cls].mean(axis=0)

    per_class = np.full(prototypes.shape[0], np.nan)
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


def prototype_drift(
    prototypes_by_round: list, aggregate: str = "mean"
) -> np.ndarray:
    """Per-round L2 drift of global prototypes across a run.

    Returns an array of length ``len(prototypes_by_round) - 1`` with the
    mean (or max) per-class prototype movement between consecutive rounds —
    a convergence diagnostic for the dual knowledge loop.
    """
    if len(prototypes_by_round) < 2:
        return np.zeros(0)
    drifts = []
    for prev, curr in zip(prototypes_by_round[:-1], prototypes_by_round[1:]):
        both = prototype_coverage(prev) & prototype_coverage(curr)
        if not both.any():
            drifts.append(np.nan)
            continue
        step = np.linalg.norm(curr[both] - prev[both], axis=1)
        drifts.append(float(step.max() if aggregate == "max" else step.mean()))
    return np.asarray(drifts)
