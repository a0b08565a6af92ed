"""Functional neural-network operations built on :class:`repro.nn.Tensor`.

Includes the composite ops the layers need — softmax/log-softmax,
im2col-based 2-D convolution, pooling, dropout — each registered in the
autograd graph with a hand-written backward pass where a composition of
Tensor primitives would be too slow.
"""

from __future__ import annotations

import time
from typing import Optional, Tuple

import numpy as np

from ..obs import profile as _profile
from .tensor import Tensor, is_grad_enabled

__all__ = [
    "relu",
    "softmax",
    "log_softmax",
    "one_hot",
    "conv2d",
    "max_pool2d",
    "avg_pool2d",
    "global_avg_pool2d",
    "dropout",
    "linear",
]


def relu(x: Tensor) -> Tensor:
    """Rectified linear unit."""
    return x.relu()


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable log-softmax along ``axis``."""
    shift = Tensor(x.data.max(axis=axis, keepdims=True))
    shifted = x - shift
    log_norm = shifted.exp().sum(axis=axis, keepdims=True).log()
    return shifted - log_norm


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Softmax along ``axis``."""
    return log_softmax(x, axis=axis).exp()


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
    takes a gradient (the first layer's input batch never does).
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

    parents = (x, weight) if bias is None else (x, weight, bias)
    requires = is_grad_enabled() and any(p.requires_grad for p in parents)
    if not requires:
        out = Tensor(out_data)
    else:

        def backward(grad: np.ndarray) -> None:
            if weight.requires_grad:
                weight._accumulate(grad.T @ x.data, True)
            if bias is not None and bias.requires_grad:
                bias._accumulate(grad.sum(axis=0), True)
            if x.requires_grad:
                x._accumulate(grad @ weight.data, True)

        out = Tensor(
            out_data, requires_grad=True, _parents=parents, _backward=backward
        )

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
        _profile.wrap_backward(out, "matmul", live * product + 2.0 * bias_flops)
    return out


# ----------------------------------------------------------------------
# im2col helpers
# ----------------------------------------------------------------------
def _im2col(
    x: np.ndarray, kh: int, kw: int, stride: int
) -> Tuple[np.ndarray, int, int]:
    """Rearrange NCHW input into column matrix for convolution.

    Returns ``(cols, out_h, out_w)`` where ``cols`` has shape
    ``(N, C*kh*kw, out_h*out_w)``.
    """
    n, c, h, w = x.shape
    out_h = (h - kh) // stride + 1
    out_w = (w - kw) // stride + 1
    s0, s1, s2, s3 = x.strides
    windows = np.lib.stride_tricks.as_strided(
        x,
        shape=(n, c, out_h, out_w, kh, kw),
        strides=(s0, s1, s2 * stride, s3 * stride, s2, s3),
        writeable=False,
    )
    cols = windows.transpose(0, 1, 4, 5, 2, 3).reshape(n, c * kh * kw, out_h * out_w)
    return np.ascontiguousarray(cols), out_h, out_w


def _col2im(
    cols: np.ndarray,
    x_shape: Tuple[int, int, int, int],
    kh: int,
    kw: int,
    stride: int,
    out_h: int,
    out_w: int,
) -> np.ndarray:
    """Inverse of :func:`_im2col`: scatter-add columns back to NCHW."""
    n, c, h, w = x_shape
    dx = np.zeros(x_shape, dtype=cols.dtype)
    cols6 = cols.reshape(n, c, kh, kw, out_h, out_w)
    for i in range(kh):
        for j in range(kw):
            dx[:, :, i : i + out_h * stride : stride, j : j + out_w * stride : stride] += cols6[
                :, :, i, j
            ]
    return dx


def conv2d(
    x: Tensor,
    weight: Tensor,
    bias: Optional[Tensor] = None,
    stride: int = 1,
    padding: int = 0,
) -> Tensor:
    """2-D convolution over NCHW input.

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
    if padding:
        x = x.pad2d(padding)
    c_out, c_in, kh, kw = weight.shape
    n, c, h, w = x.shape
    if c != c_in:
        raise ValueError(f"conv2d channel mismatch: input {c} vs weight {c_in}")

    # timed after padding so pad2d (profiled separately) isn't double-counted
    prof = _profile.ACTIVE
    start = time.perf_counter() if prof is not None else 0.0

    cols, out_h, out_w = _im2col(x.data, kh, kw, stride)
    w_mat = weight.data.reshape(c_out, -1)
    out_data = np.einsum("ok,nkp->nop", w_mat, cols, optimize=True)
    out_data = out_data.reshape(n, c_out, out_h, out_w)
    if bias is not None:
        out_data = out_data + bias.data.reshape(1, c_out, 1, 1)

    parents = (x, weight) if bias is None else (x, weight, bias)
    requires = is_grad_enabled() and any(p.requires_grad for p in parents)
    if not requires:
        out = Tensor(out_data)
    else:

        def backward(grad: np.ndarray) -> None:
            grad_mat = grad.reshape(n, c_out, out_h * out_w)
            if weight.requires_grad:
                dw = np.einsum("nop,nkp->ok", grad_mat, cols, optimize=True)
                weight._accumulate(dw.reshape(weight.shape), True)
            if bias is not None and bias.requires_grad:
                bias._accumulate(grad.sum(axis=(0, 2, 3)), True)
            if x.requires_grad:
                dcols = np.einsum("ok,nop->nkp", w_mat, grad_mat, optimize=True)
                dx = _col2im(dcols, (n, c, h, w), kh, kw, stride, out_h, out_w)
                x._accumulate(dx, True)

        out = Tensor(
            out_data, requires_grad=True, _parents=parents, _backward=backward
        )

    if prof is not None:
        # 2 * N * C_out * out_h * out_w * C_in * kh * kw multiply-adds
        flops = 2.0 * n * c_out * out_h * out_w * c_in * kh * kw
        prof.record(
            "conv2d", time.perf_counter() - start, flops, out_data.nbytes
        )
        _profile.wrap_backward(out, "conv2d", 2.0 * flops)
    return out


def max_pool2d(x: Tensor, kernel_size: int, stride: Optional[int] = None) -> Tensor:
    """Max pooling over NCHW input with square window."""
    stride = stride or kernel_size
    n, c, h, w = x.shape
    prof = _profile.ACTIVE
    start = time.perf_counter() if prof is not None else 0.0
    cols, out_h, out_w = _im2col(
        x.data.reshape(n * c, 1, h, w), kernel_size, kernel_size, stride
    )
    # cols: (N*C, k*k, P)
    arg = cols.argmax(axis=1)
    out_data = np.take_along_axis(cols, arg[:, None, :], axis=1)[:, 0, :]
    out_data = out_data.reshape(n, c, out_h, out_w)

    if not (is_grad_enabled() and x.requires_grad):
        out = Tensor(out_data)
    else:

        def backward(grad: np.ndarray) -> None:
            grad_flat = grad.reshape(n * c, 1, out_h * out_w)
            dcols = np.zeros_like(cols)
            np.put_along_axis(dcols, arg[:, None, :], grad_flat, axis=1)
            dx = _col2im(
                dcols, (n * c, 1, h, w), kernel_size, kernel_size, stride, out_h, out_w
            )
            x._accumulate(dx.reshape(n, c, h, w), True)

        out = Tensor(
            out_data, requires_grad=True, _parents=(x,), _backward=backward
        )

    if prof is not None:
        # one comparison per window element: k*k per output element
        flops = float(cols.size)
        prof.record(
            "max_pool2d", time.perf_counter() - start, flops, out_data.nbytes
        )
        _profile.wrap_backward(out, "max_pool2d", 2.0 * flops)
    return out


def avg_pool2d(x: Tensor, kernel_size: int, stride: Optional[int] = None) -> Tensor:
    """Average pooling over NCHW input with square window."""
    stride = stride or kernel_size
    n, c, h, w = x.shape
    prof = _profile.ACTIVE
    start = time.perf_counter() if prof is not None else 0.0
    cols, out_h, out_w = _im2col(
        x.data.reshape(n * c, 1, h, w), kernel_size, kernel_size, stride
    )
    out_data = cols.mean(axis=1).reshape(n, c, out_h, out_w)

    if not (is_grad_enabled() and x.requires_grad):
        out = Tensor(out_data)
    else:
        k2 = kernel_size * kernel_size

        def backward(grad: np.ndarray) -> None:
            grad_flat = grad.reshape(n * c, 1, out_h * out_w)
            dcols = np.broadcast_to(grad_flat / k2, cols.shape).copy()
            dx = _col2im(
                dcols, (n * c, 1, h, w), kernel_size, kernel_size, stride, out_h, out_w
            )
            x._accumulate(dx.reshape(n, c, h, w), True)

        out = Tensor(
            out_data, requires_grad=True, _parents=(x,), _backward=backward
        )

    if prof is not None:
        # one add per window element: k*k per output element
        flops = float(cols.size)
        prof.record(
            "avg_pool2d", time.perf_counter() - start, flops, out_data.nbytes
        )
        _profile.wrap_backward(out, "avg_pool2d", 2.0 * flops)
    return out


def global_avg_pool2d(x: Tensor) -> Tensor:
    """Average over the spatial axes, returning ``(N, C)``."""
    return x.mean(axis=(2, 3))


def dropout(x: Tensor, p: float, rng: np.random.Generator, training: bool = True) -> Tensor:
    """Inverted dropout: zero activations with probability ``p`` during training."""
    if not training or p <= 0.0:
        return x
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout probability must be in [0, 1), got {p}")
    mask = (rng.random(x.shape) >= p) / (1.0 - p)
    return x * Tensor(mask)
