"""Shared training loops used by FedPKD and every baseline.

The algorithms differ only in *which losses* they combine over *which data*;
this module provides one generic minibatch loop (:func:`train_with_loss`)
plus the loss-builder combinators the paper's equations need.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, Optional, Sequence, Tuple

import numpy as np

from ..data.loaders import batch_iterator
from ..obs import profile as _profile
from ..nn import losses as L
from ..nn.layers import Module
from ..nn.models import ClassifierModel
from ..nn.optim import Adam, SGD, clip_grad_norm
from ..nn.tensor import Tensor
from .config import TrainingConfig

__all__ = [
    "make_optimizer",
    "train_with_loss",
    "train_supervised",
    "train_distill",
    "evaluate_accuracy",
]

LossBuilder = Callable[[ClassifierModel, Tuple[np.ndarray, ...]], Tensor]


def make_optimizer(model: Module, config: TrainingConfig):
    """Instantiate the optimiser named in ``config`` over ``model``."""
    if config.optimizer == "adam":
        return Adam(model.parameters(), lr=config.lr, weight_decay=config.weight_decay)
    return SGD(
        model.parameters(),
        lr=config.lr,
        momentum=config.momentum,
        weight_decay=config.weight_decay,
    )


def train_with_loss(
    model: ClassifierModel,
    arrays: Sequence[np.ndarray],
    loss_builder: LossBuilder,
    config: TrainingConfig,
    rng: np.random.Generator,
) -> float:
    """Run ``config.epochs`` of minibatch training; return mean final-epoch loss.

    ``arrays`` is a tuple of aligned per-sample arrays (inputs first; the
    inputs may be a :class:`~repro.data.rows.Rows` view); each minibatch
    gather is handed to ``loss_builder(model, batch)``.  The parameters'
    ``.grad`` are dropped on return.
    """
    if len(arrays) == 0 or len(arrays[0]) == 0:
        return 0.0
    prof = _profile.ACTIVE
    if prof is not None:
        # attribute the loop's non-op glue (batch shuffling/slicing, Tensor
        # construction, loss bookkeeping) that per-op hooks can't see, so
        # the profiled table covers training wall time end to end
        start = time.perf_counter()
        before = prof.total_seconds()
    model.train()
    optimizer = make_optimizer(model, config)
    x, extras = arrays[0], tuple(arrays[1:])
    last_epoch_losses: list = []
    # the optimiser holds model.parameters() in the same order; going
    # through it skips two reflective module-tree walks a step.  Gradients
    # are dropped as soon as step() has read them, so no forward runs
    # beside a parameter-sized set of them and a trained model holds its
    # weights only
    optimizer.zero_grad()
    for epoch in range(config.epochs):
        last_epoch_losses = []
        for batch in batch_iterator(
            x, None, config.batch_size, rng=rng, extras=extras
        ):
            loss = loss_builder(model, batch)
            loss.backward()
            if config.max_grad_norm is not None:
                clip_grad_norm(optimizer.params, config.max_grad_norm)
            optimizer.step()
            optimizer.zero_grad()
            last_epoch_losses.append(loss.item())
    if prof is not None:
        total = time.perf_counter() - start
        inner = prof.total_seconds() - before
        prof.record("train.glue", max(total - inner, 0.0))
    return float(np.mean(last_epoch_losses)) if last_epoch_losses else 0.0


def train_supervised(
    model: ClassifierModel,
    x: np.ndarray,
    y: np.ndarray,
    config: TrainingConfig,
    rng: np.random.Generator,
    prox_mu: float = 0.0,
    prox_reference: Optional[Dict[str, np.ndarray]] = None,
    prototypes: Optional[np.ndarray] = None,
    prototype_weight: float = 0.0,
) -> float:
    """Supervised local training (paper Eq. 4 / Eq. 16 / FedProx objective).

    Parameters
    ----------
    prox_mu, prox_reference:
        FedProx proximal term anchored at the global weights.
    prototypes:
        ``(num_classes, feature_dim)`` global prototypes; rows may be NaN
        for classes without a prototype yet.  When given with a positive
        ``prototype_weight``, adds
        :math:`\\epsilon\\,\\mathrm{MSE}(R_\\omega(x_i), P^{y_i})` (Eq. 16).
    """

    def loss_builder(m: ClassifierModel, batch) -> Tensor:
        xb, yb = batch
        needs_features = prototypes is not None and prototype_weight > 0.0
        if needs_features:
            logits, feats = m.forward_with_features(Tensor(xb))
        else:
            logits = m(Tensor(xb))
        loss = L.cross_entropy(logits, yb)
        if needs_features:
            targets = prototypes[yb.astype(np.int64)]
            valid = ~np.isnan(targets).any(axis=1)
            if valid.any():
                loss = loss + prototype_weight * L.mse_loss(
                    feats[np.flatnonzero(valid)], targets[valid]
                )
        if prox_mu > 0.0 and prox_reference is not None:
            prox = L.proximal_term(m.named_parameters(), prox_reference, prox_mu)
            if prox is not None:
                loss = loss + prox
        return loss

    return train_with_loss(model, (x, y), loss_builder, config, rng)


def train_distill(
    model: ClassifierModel,
    x: np.ndarray,
    teacher_logits: np.ndarray,
    config: TrainingConfig,
    rng: np.random.Generator,
    kd_weight: float = 0.5,
    pseudo_labels: Optional[np.ndarray] = None,
    temperature: float = 1.0,
    prototypes: Optional[np.ndarray] = None,
    prototype_weight: float = 0.0,
    prototype_labels: Optional[np.ndarray] = None,
) -> float:
    """Distillation training on a public set (paper Eqs. 11–13 and 15).

    The loss is ``kd_weight * KL(teacher ‖ student) + (1 - kd_weight) * CE``
    against ``pseudo_labels`` (if given), plus an optional prototype MSE term
    weighted by ``prototype_weight`` with per-sample targets
    ``prototypes[prototype_labels]``.
    """
    if pseudo_labels is None:
        pseudo_labels = teacher_logits.argmax(axis=1)
    if prototype_labels is None:
        prototype_labels = pseudo_labels

    def loss_builder(m: ClassifierModel, batch) -> Tensor:
        xb, tb, yb, pb = batch
        needs_features = prototypes is not None and prototype_weight > 0.0
        if needs_features:
            logits, feats = m.forward_with_features(Tensor(xb))
        else:
            logits = m(Tensor(xb))
        loss = kd_weight * L.kl_divergence(tb, logits, temperature=temperature)
        if kd_weight < 1.0:
            loss = loss + (1.0 - kd_weight) * L.cross_entropy(logits, yb)
        if needs_features:
            targets = prototypes[pb.astype(np.int64)]
            valid = ~np.isnan(targets).any(axis=1)
            if valid.any():
                loss = loss + prototype_weight * L.mse_loss(
                    feats[np.flatnonzero(valid)], targets[valid]
                )
        return loss

    return train_with_loss(
        model,
        (x, teacher_logits, pseudo_labels, prototype_labels),
        loss_builder,
        config,
        rng,
    )


def evaluate_accuracy(model: ClassifierModel, x: np.ndarray, y: np.ndarray) -> float:
    """Top-1 accuracy of ``model`` on ``(x, y)``; NaN on an empty set.

    NaN — not 0.0 — so clients with an empty local test set (singleton
    shards) are excluded from aggregate accuracy instead of dragging it
    down; see :func:`repro.fl.metrics.nan_mean`.
    """
    if len(x) == 0:
        return float("nan")
    return float((model.predict(x) == np.asarray(y)).mean())
