"""Loss functions used by FedPKD and the baselines.

All losses take raw (pre-softmax) logits where applicable; soft-target losses
optionally apply a distillation temperature.  Each returns a scalar
:class:`~repro.nn.Tensor` (mean over the batch) ready for ``backward()``.

Every loss here — ``cross_entropy``, ``kl_divergence``, ``mse_loss`` and
``proximal_term`` — is one graph node.  Their forward and backward passes run the numpy
operations of the Tensor-op chains they replace, in the chain's order and
with the ``+ 0.0`` copies the chain's gradient accumulator made, so values
and gradients are the chain's to the bit (``tests/nn/test_fused_losses.py``
keeps the chains as oracles).
"""

from __future__ import annotations

import time
from typing import Optional, Union

import numpy as np

from ..obs import profile as _profile
from . import functional as F
from .tensor import Tensor, _record

__all__ = [
    "cross_entropy",
    "kl_divergence",
    "mse_loss",
    "proximal_term",
]


def _lift_targets(targets: Union[Tensor, np.ndarray]) -> np.ndarray:
    return targets.data if isinstance(targets, Tensor) else np.asarray(targets)


def _book(
    prof, op: str, start: float, out: Tensor, flops: float, bwd_flops: float
) -> None:
    """Record a fused loss's forward and wrap its backward for the profiler."""
    prof.record(op, time.perf_counter() - start, flops, out.data.nbytes)
    _profile.wrap_backward(out._node, op, bwd_flops)


def cross_entropy(logits: Tensor, labels: Union[np.ndarray, list]) -> Tensor:
    """Mean cross-entropy between logits and integer class labels."""
    labels = np.asarray(labels, dtype=np.int64)
    if logits.ndim != 2:
        raise ValueError(f"cross_entropy expects (N, C) logits, got {logits.shape}")
    if labels.shape != (logits.shape[0],):
        raise ValueError(
            f"labels shape {labels.shape} incompatible with logits {logits.shape}"
        )
    num_classes = logits.shape[1]
    if labels.size and (labels.min() < 0 or labels.max() >= num_classes):
        raise ValueError(f"labels must lie in [0, {num_classes})")
    prof = _profile.ACTIVE
    start = time.perf_counter() if prof is not None else 0.0

    node = logits._node
    log_probs, exp, norm = F._log_softmax_forward(logits.data, 1)
    rows = np.arange(len(labels))
    count = np.float64(len(labels))
    out_data = -(log_probs[rows, labels].sum() / count)

    def backward(grad: np.ndarray) -> None:
        # neg, then the mean's divide: 0-d gradients, copied on arrival
        picked = (-grad + 0.0) / count + 0.0
        # the pick scatters into zeros (adding to 0.0 changes nothing more)
        dlog_probs = np.zeros_like(exp)
        dlog_probs[rows, labels] = picked
        node.accumulate(F._log_softmax_backward(dlog_probs, exp, norm, 1), False)

    out = _record(out_data, (node,), backward)
    if prof is not None:
        # log-softmax's forward (5) and backward (4); the pick and the
        # mean are per row
        _book(prof, "cross_entropy", start, out, 5.0 * logits.size, 4.0 * logits.size)
    return out


def _softmax_np(logits: np.ndarray, temperature: float) -> np.ndarray:
    scaled = logits / temperature
    scaled = scaled - scaled.max(axis=1, keepdims=True)
    exp = np.exp(scaled)
    return exp / exp.sum(axis=1, keepdims=True)


def kl_divergence(
    teacher_logits: Union[Tensor, np.ndarray],
    student_logits: Tensor,
    temperature: float = 1.0,
) -> Tensor:
    """Mean KL(teacher ‖ student) over the batch, à la Hinton distillation.

    The teacher distribution is a constant; gradients flow only into the
    student logits.  The classic ``T^2`` factor keeps gradient magnitudes
    comparable across temperatures.
    """
    if temperature <= 0:
        raise ValueError(f"temperature must be positive, got {temperature}")
    teacher = _lift_targets(teacher_logits)
    if teacher.shape != student_logits.shape:
        raise ValueError(
            f"teacher shape {teacher.shape} must match student {student_logits.shape}"
        )
    prof = _profile.ACTIVE
    start = time.perf_counter() if prof is not None else 0.0

    teacher_probs = _softmax_np(teacher, temperature)
    # KL(p||q) = sum p log p - sum p log q; the entropy term is constant.
    entropy = float((teacher_probs * np.log(teacher_probs + 1e-12)).sum(axis=1).mean())
    teacher_probs = np.asarray(teacher_probs, dtype=np.float64)
    inv_temperature = np.float64(1.0 / temperature)
    scale = np.float64(temperature**2)
    count = np.float64(len(teacher))
    node = student_logits._node
    log_probs, exp, norm = F._log_softmax_forward(
        student_logits.data * inv_temperature, 1
    )
    cross = -((log_probs * teacher_probs).sum(axis=1).sum() / count)
    out_data = (cross + entropy) * scale

    def backward(grad: np.ndarray) -> None:
        # * T^2, + entropy, neg, the mean's divide: 0-d gradients, each
        # copied on arrival (a second copy in a row changes nothing)
        drow = -(grad * scale + 0.0) + 0.0
        drow = drow / count + 0.0
        dscaled = F._log_softmax_backward(drow * teacher_probs, exp, norm, 1)
        # the scaled logits' first gradient is copied, then scaled back
        node.accumulate((dscaled + 0.0) * inv_temperature, True)

    out = _record(out_data, (node,), backward)
    if prof is not None:
        # the teacher's softmax (6) and entropy (4); the student's scale,
        # log-softmax (5), product and row sums; backward: the product,
        # log-softmax's (4) and the scale
        _book(prof, "kl_div", start, out, 18.0 * teacher.size, 6.0 * teacher.size)
    return out


def _first_grad(grad: np.ndarray, data: np.ndarray) -> np.ndarray:
    """The first gradient an owned ``grad`` leaves on a chain node holding
    ``data``: ``grad`` itself where the node's ``accumulate`` would adopt it,
    else its ``+ 0.0`` copy (a 0-d result, or a layout that is not
    C-contiguous)."""
    if (
        isinstance(grad, np.ndarray)
        and grad.flags.c_contiguous
        and data.flags.c_contiguous
    ):
        return grad
    return grad + 0.0


def mse_loss(prediction: Tensor, target: Union[Tensor, np.ndarray]) -> Tensor:
    """Mean squared error; target may be a constant array or a Tensor (which
    gets a gradient when it requires one)."""
    if not isinstance(target, Tensor):
        target = Tensor(np.asarray(target, dtype=np.float64))
    if target.shape != prediction.shape:
        raise ValueError(
            f"target shape {target.shape} must match prediction {prediction.shape}"
        )
    prof = _profile.ACTIVE
    start = time.perf_counter() if prof is not None else 0.0

    n_pred, n_target = prediction._node, target._node
    diff = np.asarray(prediction.data + -target.data)
    count = np.float64(diff.size)
    out_data = (diff**2).sum() / count

    def backward(grad: np.ndarray) -> None:
        # the mean's divide (0-d, copied), then d(diff**2) = grad * 2 * diff
        ddiff = _first_grad((grad / count + 0.0) * 2 * diff, diff)
        if n_pred is not None:
            n_pred.accumulate(ddiff, False)
        if n_target is not None:
            n_target.accumulate(-(ddiff + 0.0), True)

    out = _record(out_data, (n_pred, n_target), backward)
    if prof is not None:
        # subtract, square, sum; backward: one product per parent
        live = prediction.requires_grad + target.requires_grad
        _book(prof, "mse", start, out, 3.0 * diff.size, live * float(diff.size))
    return out


def proximal_term(
    parameters, reference: dict, mu: float
) -> Optional[Tensor]:
    """FedProx proximal regulariser ``(mu/2) * ||w - w_global||^2``.

    Parameters
    ----------
    parameters:
        Iterable of ``(name, Tensor)`` pairs from ``named_parameters()``.
    reference:
        Name → ``numpy.ndarray`` snapshot of the global weights.
    mu:
        Proximal coefficient; ``0`` disables the term (returns ``None``).
    """
    if mu == 0.0:
        return None
    prof = _profile.ACTIVE
    start = time.perf_counter() if prof is not None else 0.0

    nodes, diffs = [], []
    total = None
    for name, param in parameters:
        diff = param.data + -np.asarray(reference[name], dtype=np.float64)
        sq = (diff**2).sum()
        total = sq if total is None else total + sq
        nodes.append(param._node)
        diffs.append(diff)
    if total is None:
        return None
    half_mu = np.float64(mu / 2.0)
    out_data = total * half_mu

    def backward(grad: np.ndarray) -> None:
        # * mu/2 (0-d, copied); the sums of squares get copies of that
        # through the total's adds, which change nothing more
        dsq = grad * half_mu + 0.0
        for node, diff in zip(nodes, diffs):
            if node is not None:
                node.accumulate(_first_grad(dsq * 2 * diff, diff), False)

    out = _record(out_data, tuple(nodes), backward)
    if prof is not None:
        # subtract, square, sum per weight; backward: one product per
        # weight that takes a gradient
        size = sum(diff.size for diff in diffs)
        live = sum(d.size for n, d in zip(nodes, diffs) if n is not None)
        _book(prof, "prox", start, out, 3.0 * size, float(live))
    return out
