"""Prototype-based ensemble distillation for the server model (Eqs. 11–13).

The server optimises

.. math::

    F(\\omega_G) = \\delta\\,\\mathcal{L}_{kd} + (1 - \\delta)\\,\\mathcal{L}_p

where :math:`\\mathcal{L}_{kd}` combines KL against the aggregated client
logits with cross-entropy against the pseudo-labels (Eq. 11), and
:math:`\\mathcal{L}_p` pulls the server's feature vectors toward the global
prototypes of the pseudo-labels (Eq. 12).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..fl.config import TrainingConfig
from ..fl.training import train_with_loss
from ..nn import losses as L
from ..nn.models import ClassifierModel
from ..nn.tensor import Tensor

__all__ = ["prototype_ensemble_distill"]


def prototype_ensemble_distill(
    model: ClassifierModel,
    x: np.ndarray,
    aggregated_logits: np.ndarray,
    pseudo_labels: np.ndarray,
    prototypes: Optional[np.ndarray],
    delta: float,
    config: TrainingConfig,
    rng: np.random.Generator,
    temperature: float = 1.0,
) -> float:
    """Train ``model`` on the filtered public subset with Eq. 13's objective.

    ``delta=1`` (or ``prototypes=None``) removes the prototype loss — the
    paper's "w/o Pro" ablation arm.  Returns the mean last-epoch loss.
    """
    if not 0.0 <= delta <= 1.0:
        raise ValueError(f"delta must be in [0, 1], got {delta}")
    pseudo_labels = np.asarray(pseudo_labels, dtype=np.int64)
    use_proto = prototypes is not None and delta < 1.0

    def loss_builder(m: ClassifierModel, batch) -> Tensor:
        xb, tb, yb = batch
        if use_proto:
            logits, feats = m.forward_with_features(Tensor(xb))
        else:
            logits = m(Tensor(xb))
        kd = L.kl_divergence(tb, logits, temperature=temperature) + L.cross_entropy(
            logits, yb
        )
        loss = delta * kd
        if use_proto:
            targets = prototypes[yb.astype(np.int64)]
            valid = ~np.isnan(targets).any(axis=1)
            if valid.any():
                loss = loss + (1.0 - delta) * L.mse_loss(
                    feats[np.flatnonzero(valid)], targets[valid]
                )
        return loss

    return train_with_loss(
        model, (x, aggregated_logits, pseudo_labels), loss_builder, config, rng
    )
