"""Functional neural-network operations built on :class:`repro.nn.Tensor`.

Includes the composite ops the layers need — softmax/log-softmax,
2-D convolution through cached index plans, batch normalisation and global
average pooling — each registered in the autograd graph with a
hand-written backward pass where a composition of Tensor primitives would
be too slow.
"""

from __future__ import annotations

import functools
import time
from typing import Optional, Tuple

import numpy as np

from ..obs import profile as _profile
from .tensor import Tensor, _record, is_grad_enabled

__all__ = [
    "relu",
    "softmax",
    "log_softmax",
    "one_hot",
    "conv2d",
    "batch_norm",
    "global_avg_pool2d",
    "linear",
]


def relu(x: Tensor) -> Tensor:
    """Rectified linear unit."""
    return x.relu()


def _log_softmax_forward(
    x: np.ndarray, axis: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Log-softmax of ``x`` along ``axis``, with the ``exp`` of the shifted
    input and its sums along ``axis`` that :func:`_log_softmax_backward`
    needs.

    The numpy operations are those of the Tensor chain
    ``shifted = x + (-max)``, ``log_norm = log(sum(exp(shifted)))``,
    ``shifted + (-log_norm)``, in that order, so every value is the
    chain's to the bit.
    """
    shifted = x + -x.max(axis=axis, keepdims=True)
    exp = np.exp(shifted)
    norm = exp.sum(axis=axis, keepdims=True)
    return shifted + -np.log(norm), exp, norm


def _log_softmax_backward(
    grad: np.ndarray, exp: np.ndarray, norm: np.ndarray, axis: int
) -> np.ndarray:
    """Input gradient of :func:`_log_softmax_forward` for the output
    gradient ``grad``, as the chain's backward pass computes it.

    The pass-through into ``shifted`` is a copy (``+ 0.0``, which turns
    ``-0.0`` into ``0.0``) because the chain's gradient accumulator copies
    a gradient it does not own; the ``log_norm`` branch is summed along
    ``axis``, negated, divided by ``norm`` and multiplied by ``exp``, then
    added to it.  The caller hands the result on unowned, as the chain's
    ``x + (-max)`` node did.

    Along an axis of length 1 the chain copied the gradient where this sums
    it; the values agree, since ``exp`` and ``norm`` are 1 there and the
    pass-through has already made every zero positive.
    """
    dx = grad + 0.0
    dx += -grad.sum(axis=(axis % grad.ndim,), keepdims=True) / norm * exp
    return dx


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable log-softmax along ``axis``, as one graph node."""
    prof = _profile.ACTIVE
    start = time.perf_counter() if prof is not None else 0.0
    nx = x._node
    out_data, exp, norm = _log_softmax_forward(x.data, axis)

    def backward(grad: np.ndarray) -> None:
        nx.accumulate(_log_softmax_backward(grad, exp, norm, axis), False)

    out = _record(out_data, (nx,), backward)
    if prof is not None:
        # max, shift, exp, sum, shift again; backward: copy, sum, scale, add
        prof.record(
            "log_softmax", time.perf_counter() - start, 5.0 * x.size,
            out_data.nbytes,
        )
        _profile.wrap_backward(out._node, "log_softmax", 4.0 * x.size)
    return out


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Softmax along ``axis``: ``exp`` of :func:`log_softmax`, as one graph
    node."""
    prof = _profile.ACTIVE
    start = time.perf_counter() if prof is not None else 0.0
    nx = x._node
    log_probs, exp, norm = _log_softmax_forward(x.data, axis)
    out_data = np.exp(log_probs)

    def backward(grad: np.ndarray) -> None:
        nx.accumulate(
            _log_softmax_backward(grad * out_data, exp, norm, axis), False
        )

    out = _record(out_data, (nx,), backward)
    if prof is not None:
        prof.record(
            "softmax", time.perf_counter() - start, 6.0 * x.size,
            out_data.nbytes,
        )
        _profile.wrap_backward(out._node, "softmax", 5.0 * x.size)
    return out


def one_hot(labels: np.ndarray, num_classes: int) -> np.ndarray:
    """Return a dense one-hot encoding of integer ``labels``."""
    labels = np.asarray(labels, dtype=np.int64)
    if labels.ndim != 1:
        raise ValueError(f"one_hot expects 1-D labels, got shape {labels.shape}")
    if labels.size and (labels.min() < 0 or labels.max() >= num_classes):
        raise ValueError("labels out of range for num_classes")
    encoded = np.zeros((labels.shape[0], num_classes), dtype=np.float64)
    encoded[np.arange(labels.shape[0]), labels] = 1.0
    return encoded


def linear(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None) -> Tensor:
    """Affine map ``x @ weight.T + bias`` for 2-D ``x``, as one graph node.

    The backward pass forms ``dW = grad.T @ x`` directly in the weight's
    ``(out, in)`` layout and computes ``dx = grad @ W`` only when ``x``
    takes a gradient (the first layer's input batch never does).  It keeps
    the input array only for ``dW`` and the weight array only for ``dx``.
    """
    if x.ndim != 2 or weight.ndim != 2:
        raise ValueError(
            f"linear expects 2-D input/weight, got {x.shape} and {weight.shape}"
        )
    prof = _profile.ACTIVE
    start = time.perf_counter() if prof is not None else 0.0

    out_data = x.data @ weight.data.T
    if bias is not None:
        np.add(out_data, bias.data, out=out_data)

    nx, nw = x._node, weight._node
    nb = None if bias is None else bias._node
    x_data = x.data if nw is not None else None
    w_data = weight.data if nx is not None else None

    def backward(grad: np.ndarray) -> None:
        if nw is not None:
            nw.accumulate(grad.T @ x_data, True)
        if nb is not None:
            nb.accumulate(grad.sum(axis=0), True)
        if nx is not None:
            nx.accumulate(grad @ w_data, True)

    out = _record(out_data, (nx, nw, nb), backward)
    if prof is not None:
        # booked under the matmul names: 2*n*k*m multiply-adds per product
        # (forward, dW, dx when computed) plus the bias add and its sum
        product = 2.0 * x.data.size * weight.shape[0]
        bias_flops = float(out_data.size) if bias is not None else 0.0
        prof.record(
            "matmul", time.perf_counter() - start, product + bias_flops,
            out_data.nbytes,
        )
        live = weight.requires_grad + x.requires_grad
        _profile.wrap_backward(out._node, "matmul", live * product + 2.0 * bias_flops)
    return out


def batch_norm(
    x: Tensor,
    weight: Tensor,
    bias: Tensor,
    running_mean: np.ndarray,
    running_var: np.ndarray,
    training: bool,
    momentum: float = 0.1,
    eps: float = 1e-5,
) -> Tensor:
    """Batch normalisation over axis 1 of ``(N, C)`` or ``(N, C, H, W)``
    input, as one graph node.

    In training mode the batch mean and biased variance normalise ``x`` and
    are folded into ``running_mean``/``running_var`` in place; otherwise the
    running statistics normalise it.  The backward pass keeps only the
    normalised activations ``x_hat``, the per-channel ``std`` and a view of
    the weight, never ``x`` or the output.
    """
    if x.ndim not in (2, 4):
        raise ValueError(f"batch_norm expects (N, C) or (N, C, H, W) input, got {x.shape}")
    prof = _profile.ACTIVE
    start = time.perf_counter() if prof is not None else 0.0

    axes = (0,) if x.ndim == 2 else (0, 2, 3)
    shape = (1, x.shape[1]) + (1,) * (x.ndim - 2)
    count = x.size // x.shape[1]
    # explicit buffers: C-contiguous whatever layout ``x`` arrives in
    x_hat = np.empty(x.shape, dtype=np.float64)
    out_data = np.empty(x.shape, dtype=np.float64)
    if training:
        mean = x.data.sum(axis=axes, keepdims=True) / count
        np.subtract(x.data, mean, out=x_hat)
        np.multiply(x_hat, x_hat, out=out_data)
        var = out_data.sum(axis=axes, keepdims=True) / count
        running_mean[...] = (1 - momentum) * running_mean + momentum * mean.reshape(-1)
        running_var[...] = (1 - momentum) * running_var + momentum * var.reshape(-1)
    else:
        var = running_var.reshape(shape)
        np.subtract(x.data, running_mean.reshape(shape), out=x_hat)
    std = (var + eps) ** 0.5
    np.divide(x_hat, std, out=x_hat)
    # a view of weight.data, kept for backward: optimisers rebind
    # ``p.data``, never write into it
    w = weight.data.reshape(shape)
    np.multiply(x_hat, w, out=out_data)
    np.add(out_data, bias.data.reshape(shape), out=out_data)

    nx, nw, nb = x._node, weight._node, bias._node
    # the batch statistics depend on x, so dx needs both per-channel sums
    through_stats = training and nx is not None
    need_sum = nb is not None or through_stats
    need_dot = nw is not None or through_stats

    def backward(grad: np.ndarray) -> None:
        if need_sum:
            grad_sum = grad.sum(axis=axes)
        if need_dot:
            scratch = np.multiply(grad, x_hat, out=np.empty_like(x_hat))
            grad_dot = scratch.sum(axis=axes)
        if nx is not None:
            scale = w / std
            if training:
                # (g - mean(g) - x_hat * mean(g * x_hat)) * w / std
                dx = np.multiply(x_hat, grad_dot.reshape(shape) / count, out=scratch)
                np.subtract(grad, dx, out=dx)
                np.subtract(dx, grad_sum.reshape(shape) / count, out=dx)
                np.multiply(dx, scale, out=dx)
            else:
                dx = np.multiply(grad, scale, out=np.empty_like(x_hat))
            nx.accumulate(dx, True)
        if nw is not None:
            nw.accumulate(grad_dot, True)
        if nb is not None:
            nb.accumulate(grad_sum, True)

    out = _record(out_data, (nx, nw, nb), backward)
    if prof is not None:
        # per element: two reductions, centre, square, divide, scale, shift
        # in training; centre, divide, scale, shift in eval
        prof.record(
            "batch_norm", time.perf_counter() - start,
            (7.0 if training else 4.0) * x.size, out_data.nbytes,
        )
        # backward: one per element for the sum of g, two for the sum of
        # g * x_hat, four (training) or one (eval) for dx, each if computed
        per_element = need_sum + 2 * need_dot + x.requires_grad * (4 if training else 1)
        _profile.wrap_backward(out._node, "batch_norm", float(per_element * x.size))
    return out


# ----------------------------------------------------------------------
# patch gather / scatter
# ----------------------------------------------------------------------
#: geometries whose index plans stay cached: a few models' convs at a few
#: batch sizes (a plan is as large as the patch matrix it gathers; a tiny
#: heterogeneous ResNet federation trains through 48 of them, 7.6 MB, and
#: its inference reuses their 32-image plans, adding none)
_PLAN_CACHE_SIZE = 64

#: images per GEMM of a conv2d that records no backward: it gathers each
#: block through its geometry's plan for this many images, which training
#: at the default batch size has already built
_INFER_BLOCK = 32


@functools.lru_cache(maxsize=_PLAN_CACHE_SIZE)
def _patch_plan(
    n: int, c: int, h: int, w: int, kh: int, kw: int, stride: int, padding: int
) -> np.ndarray:
    """Index plan of one geometry: a ``(C*kh*kw, N*out_h*out_w)`` ``intp``
    array holding the flat NCHW source of every entry of the row-major
    ``(C, kh, kw, N, out_h, out_w)`` patch matrix.  Every call of the
    geometry shares it, so nothing may write to it.

    Entries that fall in the zero padding point at the extra slot
    ``n*c*h*w``, which :func:`_gather` fills with ``0.0`` and
    :func:`_scatter` drops.
    """
    out_h = (h + 2 * padding - kh) // stride + 1
    out_w = (w + 2 * padding - kw) // stride + 1
    # padded-frame row/column read by kernel offset i (j) at output p (q)
    rows = (np.arange(kh, dtype=np.intp)[:, None] - padding
            + stride * np.arange(out_h, dtype=np.intp))
    cols = (np.arange(kw, dtype=np.intp)[:, None] - padding
            + stride * np.arange(out_w, dtype=np.intp))
    images = (np.arange(c, dtype=np.intp)[:, None]
              + c * np.arange(n, dtype=np.intp)) * (h * w)
    plan = (images[:, None, None, :, None, None]
            + (w * rows)[None, :, None, None, :, None]
            + cols[None, None, :, None, None, :])
    if padding:
        inside = (((rows >= 0) & (rows < h))[:, None, None, :, None]
                  & ((cols >= 0) & (cols < w))[None, :, None, None, :])
        plan = np.where(inside, plan, np.intp(n * c * h * w))
    # left writeable: numpy's take and bincount copy a read-only index
    # array on every call, which costs more than the gather itself
    return plan.reshape(c * kh * kw, n * out_h * out_w)


def _gather(
    x: np.ndarray, plan: np.ndarray, src: Optional[np.ndarray] = None
) -> np.ndarray:
    """The patch matrix ``plan`` describes, gathered from NCHW ``x``.

    ``plan`` may instead be the ``(K, len(x), out_h*out_w)`` columns of a
    larger batch's plan, read through ``src``: a flat buffer as long as
    that batch plus one, ending in the ``0.0`` its padding entries read.
    """
    if src is None:
        src = np.empty(x.size + 1, dtype=np.float64)
        src[-1] = 0.0
    src[: x.size].reshape(x.shape)[...] = x
    return src.take(plan).reshape(len(plan), -1)


def _scatter(
    plan: np.ndarray, dcols: np.ndarray, shape: Tuple[int, int, int, int]
) -> np.ndarray:
    """Adjoint of :func:`_gather`: sum every patch-matrix entry back onto
    its NCHW source.

    ``bincount`` walks the plan in row-major order, so each input element
    collects its terms in kernel-offset ``(i, j)`` order, starting from
    ``0.0``.
    """
    size = shape[0] * shape[1] * shape[2] * shape[3]
    summed = np.bincount(
        plan.reshape(-1), weights=dcols.reshape(-1), minlength=size + 1
    )
    return summed[:-1].reshape(shape)


def conv2d(
    x: Tensor,
    weight: Tensor,
    bias: Optional[Tensor] = None,
    stride: int = 1,
    padding: int = 0,
) -> Tensor:
    """2-D convolution over NCHW input, as three plain GEMMs.

    The zero-padded patches are gathered through a cached index plan of the
    geometry into a ``(C_in*kH*kW, N*out_h*out_w)`` matrix owned by this
    call, and forward is ``W_mat @ cols``.  A call that records a backward
    uses the plan for its own batch and keeps only that plan, the weight
    array and (for ``dW``) the input array, not the matrix: backward gathers
    the same patches again for ``dW = G @ cols.T`` and drops them before it
    forms ``dcols = W_mat.T @ G`` (only when ``x`` takes a gradient), which
    the same plan scatters back onto ``x``.  So a training step holds no patch
    matrix between its forward and backward passes, and never two at once.
    A call that records none (inference) gathers and multiplies
    ``_INFER_BLOCK`` images at a time through the plan for that many, the
    one training at that batch size built; a shorter tail block reads the
    first columns of the same plan, so inference builds no plan of its own
    batch size and holds one block's patches at a time.  Output and
    gradients are C-contiguous NCHW.

    Parameters
    ----------
    x:
        Input of shape ``(N, C_in, H, W)``.
    weight:
        Filters of shape ``(C_out, C_in, kH, kW)``.
    bias:
        Optional bias of shape ``(C_out,)``.
    stride, padding:
        Symmetric stride and zero-padding.
    """
    if x.ndim != 4 or weight.ndim != 4:
        raise ValueError(
            f"conv2d expects 4-D input/weight, got {x.shape} and {weight.shape}"
        )
    c_out, c_in, kh, kw = weight.shape
    n, c, h, w = x.shape
    if c != c_in:
        raise ValueError(f"conv2d channel mismatch: input {c} vs weight {c_in}")
    out_h = (h + 2 * padding - kh) // stride + 1
    out_w = (w + 2 * padding - kw) // stride + 1

    prof = _profile.ACTIVE
    start = time.perf_counter() if prof is not None else 0.0

    nx, nw = x._node, weight._node
    nb = None if bias is None else bias._node
    parents = (nx, nw, nb)
    requires = is_grad_enabled() and parents != (None, None, None)
    # a view of weight.data: optimisers rebind ``p.data``, never write into it
    w_mat = weight.data.reshape(c_out, -1)
    # the patch matrix is gathered per call, never cached, and not kept for
    # backward: it is kh*kw times the input at stride 1, so backward gathers
    # it again from the input array (only the index plan is shared)
    if requires:
        plan = _patch_plan(n, c, h, w, kh, kw, stride, padding)
        # the forward's input array, which only dW reads
        x_data = x.data if nw is not None else None
        block, starts, src = n, (0,), None
    else:
        # the training plan of the geometry, one block of images at a time
        block, starts = _INFER_BLOCK, range(0, n, _INFER_BLOCK)
        plan = _patch_plan(block, c, h, w, kh, kw, stride, padding)
        src = np.empty(block * c * h * w + 1, dtype=np.float64)
        src[-1] = 0.0
    out_data = np.empty((n, c_out, out_h, out_w), dtype=np.float64)
    for first in starts:
        part = x.data[first : first + block]
        t = len(part)
        # a tail block reads its images' columns of the full block's plan
        index = plan if t == block else plan.reshape(len(plan), block, -1)[:, :t]
        gemm = (w_mat @ _gather(part, index, src)).reshape(c_out, t, out_h, out_w)
        out_data[first : first + t] = gemm.transpose(1, 0, 2, 3)
    if bias is not None:
        np.add(out_data, bias.data.reshape(1, c_out, 1, 1), out=out_data)

    def backward(grad: np.ndarray) -> None:
        if nb is not None:
            nb.accumulate(grad.sum(axis=(0, 2, 3)), True)
        if nw is None and nx is None:
            return
        # the output gradient in GEMM layout, shared by both products
        grad_mat = np.ascontiguousarray(grad.transpose(1, 0, 2, 3)).reshape(c_out, -1)
        if nw is not None:
            patches = _gather(x_data, plan)
            nw.accumulate((grad_mat @ patches.T).reshape(c_out, c_in, kh, kw), True)
            # freed before dcols, so two patch-sized buffers never coexist
            del patches
        if nx is not None:
            nx.accumulate(_scatter(plan, w_mat.T @ grad_mat, (n, c, h, w)), True)

    out = _record(out_data, parents, backward)
    if prof is not None:
        # 2 * N * C_out * out_h * out_w * C_in * kh * kw multiply-adds per
        # GEMM; backward runs one per parent that takes a gradient (dW, dx)
        flops = 2.0 * n * c_out * out_h * out_w * c_in * kh * kw
        prof.record(
            "conv2d", time.perf_counter() - start, flops, out_data.nbytes
        )
        live = weight.requires_grad + x.requires_grad
        _profile.wrap_backward(out._node, "conv2d", live * flops)
    return out


def global_avg_pool2d(x: Tensor) -> Tensor:
    """Average over the spatial axes, returning ``(N, C)``."""
    return x.mean(axis=(2, 3))
