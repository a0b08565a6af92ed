"""Reverse-mode automatic differentiation over numpy arrays.

This module is the foundation of the :mod:`repro.nn` substrate.  It provides a
:class:`Tensor` wrapper around ``numpy.ndarray`` that records a dynamic
computation graph and supports backpropagation through it, in the style of
PyTorch's eager autograd but implemented from scratch.

Only the operations needed by the FedPKD reproduction are implemented, but
each of them handles full numpy broadcasting and has gradient correctness
verified by finite-difference tests in ``tests/nn/test_autograd.py``.
"""

from __future__ import annotations

import functools
import time
from typing import Callable, Optional, Sequence, Tuple, Union

import numpy as np

from ..obs import profile as _profile

Scalar = Union[int, float]
ArrayLike = Union[np.ndarray, Scalar, Sequence]

__all__ = ["Tensor", "no_grad", "is_grad_enabled"]

_GRAD_ENABLED = True


class no_grad:
    """Context manager disabling graph construction (like ``torch.no_grad``)."""

    def __enter__(self) -> "no_grad":
        global _GRAD_ENABLED
        self._prev = _GRAD_ENABLED
        _GRAD_ENABLED = False
        return self

    def __exit__(self, *exc) -> None:
        global _GRAD_ENABLED
        _GRAD_ENABLED = self._prev


def is_grad_enabled() -> bool:
    """Return whether new operations will be recorded for backprop."""
    return _GRAD_ENABLED


def _released_backward(grad: np.ndarray) -> None:
    """Stands in for the closure of an interior node a backward pass freed."""
    raise RuntimeError(
        "backward() reached a graph node an earlier backward() already "
        "released; pass retain_graph=True to the earlier call to backpropagate "
        "through the same graph twice"
    )


def _unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape``, undoing numpy broadcasting.

    When an operand of shape ``shape`` was broadcast up to ``grad.shape``
    during the forward pass, its gradient is the sum of ``grad`` over the
    broadcast axes.
    """
    if grad.shape == shape:
        return grad
    # Sum over leading axes added by broadcasting.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over axes that were 1 in the original shape.
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _prof_op(op: str, flops="out"):
    """Profiling hook for a Tensor op method.

    When :data:`repro.obs.profile.ACTIVE` is unset (the default) the
    wrapper falls straight through to the original method — no timing,
    no allocation — so unprofiled runs are bit-identical by
    construction.  When a profiler is active, the forward pass is timed
    and recorded with an estimated FLOP count, and the output's backward
    closure is wrapped so the backward pass is attributed to
    ``"<op>.bwd"`` (see docs/OBSERVABILITY.md for the estimate
    formulas).

    ``flops`` selects the estimator: ``"out"`` (one op per output
    element — elementwise math), ``"in"`` (one per input element —
    reductions), a constant (``0`` for pure memory-movement ops), or a
    callable ``(self, out) -> float`` for shape-dependent kernels.  The
    backward pass is booked at twice that, except for binary ops, whose
    closures skip a parent with ``requires_grad=False``: they are booked
    once per parent that gets a gradient.
    """

    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(self, *args, **kwargs):
            prof = _profile.ACTIVE
            if prof is None:
                return fn(self, *args, **kwargs)
            start = time.perf_counter()
            out = fn(self, *args, **kwargs)
            seconds = time.perf_counter() - start
            if out is self:  # no-op fast path (e.g. pad2d(0))
                return out
            if flops == "out":
                nflops = out.data.size
            elif flops == "in":
                nflops = self.data.size
            elif callable(flops):
                nflops = flops(self, out)
            else:
                nflops = float(flops)
            prof.record(op, seconds, nflops, out.data.nbytes)
            parents = out._parents
            live = sum(p.requires_grad for p in parents) if len(parents) == 2 else 2
            _profile.wrap_backward(out, op, float(live) * nflops)
            return out

        return wrapper

    return decorate


def _matmul_flops(a: "Tensor", out: "Tensor") -> float:
    # (n, k) @ (k, m): 2*n*k*m multiply-adds; out.size is n*m
    return 2.0 * a.shape[1] * out.data.size


class Tensor:
    """A numpy-backed tensor participating in reverse-mode autodiff.

    Parameters
    ----------
    data:
        Array contents; anything ``numpy.asarray`` accepts.
    requires_grad:
        Whether gradients should be accumulated into ``self.grad`` during
        :meth:`backward`.
    """

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents", "name")

    def __init__(
        self,
        data: ArrayLike,
        requires_grad: bool = False,
        _parents: Tuple["Tensor", ...] = (),
        _backward: Optional[Callable[[np.ndarray], None]] = None,
        name: Optional[str] = None,
    ) -> None:
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = bool(requires_grad)
        self._parents = _parents
        self._backward = _backward
        self.name = name

    # ------------------------------------------------------------------
    # basic protocol
    # ------------------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor({np.array2string(self.data, threshold=8)}{grad_flag})"

    def item(self) -> float:
        if self.data.size != 1:
            raise ValueError(f"item() requires a single-element tensor, got {self.shape}")
        return float(self.data.reshape(()))

    def numpy(self) -> np.ndarray:
        """Return the underlying array (no copy); detached from the graph."""
        return self.data

    def zero_grad(self) -> None:
        self.grad = None

    # ------------------------------------------------------------------
    # graph construction helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _lift(value: Union["Tensor", ArrayLike]) -> "Tensor":
        return value if isinstance(value, Tensor) else Tensor(value)

    def _make(
        self,
        data: np.ndarray,
        parents: Tuple["Tensor", ...],
        backward: Callable[[np.ndarray], None],
    ) -> "Tensor":
        requires = _GRAD_ENABLED and any(p.requires_grad for p in parents)
        if not requires:
            return Tensor(data)
        return Tensor(data, requires_grad=True, _parents=parents, _backward=backward)

    def _accumulate(self, grad: np.ndarray, owned: bool = False) -> None:
        """Add ``grad`` into ``self.grad``.

        ``owned=True`` is the caller's promise that it allocated ``grad``
        itself and hands it to nobody else; a first gradient of the
        buffer's own shape and layout is then adopted instead of copied.
        Pass-through gradients and views (``add.bwd``, ``reshape``,
        ``transpose``, slices) must stay ``owned=False``, or two tensors'
        ``.grad`` would share memory.
        """
        if not self.requires_grad:
            return
        if self.grad is None:
            if (
                owned
                and isinstance(grad, np.ndarray)  # 0-d math yields scalars
                and grad.shape == self.data.shape
                and grad.flags.c_contiguous
                and self.data.flags.c_contiguous
            ):
                self.grad = grad
            else:
                # same layout and values as zero-fill-then-add, in one pass
                buf = np.empty_like(self.data)
                np.add(grad, 0.0, out=buf)
                self.grad = buf
            return
        # lint: disable=ag-inplace-tensor-mutation — this IS the gradient
        # accumulator; the buffer is adopted or allocated above, never aliased.
        self.grad += grad

    def _accumulate_unbroadcast(self, grad: np.ndarray, owned: bool) -> None:
        """:meth:`_accumulate` for an operand numpy may have broadcast."""
        if not self.requires_grad:
            return
        reduced = _unbroadcast(grad, self.shape)
        # any reduction allocates, so only the untouched array can alias
        self._accumulate(reduced, owned or reduced is not grad)

    # ------------------------------------------------------------------
    # arithmetic
    # ------------------------------------------------------------------
    @_prof_op("add")
    def __add__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        other = self._lift(other)
        out_data = self.data + other.data

        def backward(grad: np.ndarray) -> None:
            self._accumulate_unbroadcast(grad, False)
            other._accumulate_unbroadcast(grad, False)

        return self._make(out_data, (self, other), backward)

    __radd__ = __add__

    @_prof_op("neg")
    def __neg__(self) -> "Tensor":
        def backward(grad: np.ndarray) -> None:
            self._accumulate(-grad, True)

        return self._make(-self.data, (self,), backward)

    def __sub__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        return self + (-self._lift(other))

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        return self._lift(other) + (-self)

    @_prof_op("mul")
    def __mul__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        other = self._lift(other)
        out_data = self.data * other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate_unbroadcast(grad * other.data, True)
            if other.requires_grad:
                other._accumulate_unbroadcast(grad * self.data, True)

        return self._make(out_data, (self, other), backward)

    __rmul__ = __mul__

    @_prof_op("div")
    def __truediv__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        other = self._lift(other)
        out_data = self.data / other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate_unbroadcast(grad / other.data, True)
            if other.requires_grad:
                other._accumulate_unbroadcast(
                    -grad * self.data / (other.data**2), True
                )

        return self._make(out_data, (self, other), backward)

    def __rtruediv__(self, other: ArrayLike) -> "Tensor":
        return self._lift(other) / self

    @_prof_op("pow")
    def __pow__(self, exponent: Scalar) -> "Tensor":
        if not isinstance(exponent, (int, float)):
            raise TypeError("Tensor.__pow__ supports scalar exponents only")
        out_data = self.data**exponent

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * exponent * self.data ** (exponent - 1), True)

        return self._make(out_data, (self,), backward)

    @_prof_op("matmul", _matmul_flops)
    def __matmul__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        other = self._lift(other)
        if self.ndim != 2 or other.ndim != 2:
            raise ValueError(
                f"matmul expects 2-D operands, got {self.shape} @ {other.shape}"
            )
        out_data = self.data @ other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad @ other.data.T, True)
            if other.requires_grad:
                other._accumulate(self.data.T @ grad, True)

        return self._make(out_data, (self, other), backward)

    # ------------------------------------------------------------------
    # elementwise nonlinearities
    # ------------------------------------------------------------------
    @_prof_op("exp")
    def exp(self) -> "Tensor":
        out_data = np.exp(self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * out_data, True)

        return self._make(out_data, (self,), backward)

    @_prof_op("log")
    def log(self) -> "Tensor":
        out_data = np.log(self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad / self.data, True)

        return self._make(out_data, (self,), backward)

    def sqrt(self) -> "Tensor":
        return self**0.5

    @_prof_op("relu")
    def relu(self) -> "Tensor":
        mask = self.data > 0
        out_data = self.data * mask

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * mask, True)

        return self._make(out_data, (self,), backward)

    @_prof_op("abs")
    def abs(self) -> "Tensor":
        sign = np.sign(self.data)
        out_data = np.abs(self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * sign, True)

        return self._make(out_data, (self,), backward)

    # ------------------------------------------------------------------
    # reductions
    # ------------------------------------------------------------------
    @_prof_op("sum", "in")
    def sum(
        self, axis: Optional[Union[int, Tuple[int, ...]]] = None, keepdims: bool = False
    ) -> "Tensor":
        out_data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            g = grad
            if axis is not None and not keepdims:
                axes = (axis,) if isinstance(axis, int) else tuple(axis)
                axes = tuple(a % self.ndim for a in axes)
                g = np.expand_dims(g, axes)
            self._accumulate(np.broadcast_to(g, self.shape).copy(), True)

        return self._make(out_data, (self,), backward)

    def mean(
        self, axis: Optional[Union[int, Tuple[int, ...]]] = None, keepdims: bool = False
    ) -> "Tensor":
        if axis is None:
            count = self.size
        else:
            axes = (axis,) if isinstance(axis, int) else tuple(axis)
            count = int(np.prod([self.shape[a % self.ndim] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) / count

    @_prof_op("max", "in")
    def max(
        self, axis: Optional[int] = None, keepdims: bool = False
    ) -> "Tensor":
        out_data = self.data.max(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            if axis is None:
                mask = self.data == out_data
                # split ties evenly so the gradient check is deterministic
                self._accumulate(grad * mask / mask.sum(), True)
            else:
                expanded = out_data if keepdims else np.expand_dims(out_data, axis)
                g = grad if keepdims else np.expand_dims(grad, axis)
                mask = self.data == expanded
                counts = mask.sum(axis=axis, keepdims=True)
                self._accumulate(g * mask / counts, True)

        return self._make(out_data, (self,), backward)

    def var(self, axis: Optional[int] = None, keepdims: bool = False) -> "Tensor":
        mu = self.mean(axis=axis, keepdims=True)
        sq = (self - mu) ** 2
        return sq.mean(axis=axis, keepdims=keepdims)

    # ------------------------------------------------------------------
    # shape manipulation
    # ------------------------------------------------------------------
    @_prof_op("reshape", 0)
    def reshape(self, *shape: int) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        out_data = self.data.reshape(shape)
        in_shape = self.shape

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad.reshape(in_shape))

        return self._make(out_data, (self,), backward)

    @_prof_op("transpose", 0)
    def transpose(self, axes: Optional[Tuple[int, ...]] = None) -> "Tensor":
        out_data = self.data.transpose(axes)
        if axes is None:
            inverse: Optional[Tuple[int, ...]] = None
        else:
            inverse = tuple(np.argsort(axes))

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad.transpose(inverse))

        return self._make(out_data, (self,), backward)

    @_prof_op("getitem", 0)
    def __getitem__(self, index) -> "Tensor":
        out_data = self.data[index]

        def backward(grad: np.ndarray) -> None:
            full = np.zeros_like(self.data)
            np.add.at(full, index, grad)
            self._accumulate(full, True)

        return self._make(out_data, (self,), backward)

    @_prof_op("pad2d", 0)
    def pad2d(self, padding: int) -> "Tensor":
        """Zero-pad the last two (spatial) axes of an NCHW tensor."""
        if padding == 0:
            return self
        interior = (..., slice(padding, -padding), slice(padding, -padding))
        out_data = np.zeros(
            self.shape[:-2]
            + (self.shape[-2] + 2 * padding, self.shape[-1] + 2 * padding),
            dtype=np.float64,
        )
        out_data[interior] = self.data

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad[interior])

        return self._make(out_data, (self,), backward)

    @staticmethod
    def concatenate(tensors: Sequence["Tensor"], axis: int = 0) -> "Tensor":
        tensors = [Tensor._lift(t) for t in tensors]
        out_data = np.concatenate([t.data for t in tensors], axis=axis)
        sizes = [t.shape[axis] for t in tensors]
        offsets = np.cumsum([0] + sizes)

        def backward(grad: np.ndarray) -> None:
            for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
                slices = [slice(None)] * grad.ndim
                slices[axis] = slice(lo, hi)
                t._accumulate(grad[tuple(slices)])

        requires = _GRAD_ENABLED and any(t.requires_grad for t in tensors)
        if not requires:
            return Tensor(out_data)
        return Tensor(
            out_data, requires_grad=True, _parents=tuple(tensors), _backward=backward
        )

    # ------------------------------------------------------------------
    # backward pass
    # ------------------------------------------------------------------
    def backward(
        self, grad: Optional[np.ndarray] = None, *, retain_graph: bool = False
    ) -> None:
        """Backpropagate from this tensor through the recorded graph.

        Parameters
        ----------
        grad:
            Seed gradient of this tensor's shape.  Defaults to 1 for scalar
            tensors; required for non-scalar outputs.
        retain_graph:
            Keep the graph after the pass.  By default each interior node is
            released as soon as its backward closure has run: its ``.grad``,
            parents and closure (with the forward buffers it holds) are
            dropped, so a training step's graph dies with the pass.  Leaves
            accumulate either way.

        Raises
        ------
        ValueError
            If ``grad`` does not have this tensor's shape.
        RuntimeError
            If the pass would reach a node an earlier pass released.
        """
        prof = _profile.ACTIVE
        if prof is None:
            self._backward_impl(grad, retain_graph)
            return
        # Attribute the pass machinery (topo sort, graph walk, grad
        # accumulation glue) that per-op ``.bwd`` closures can't see, so
        # the profiled op table covers backward wall time end to end.
        start = time.perf_counter()
        before = prof.total_seconds()
        self._backward_impl(grad, retain_graph)
        total = time.perf_counter() - start
        inner = prof.total_seconds() - before
        prof.record("backward.overhead", max(total - inner, 0.0))

    def _backward_impl(self, grad: Optional[np.ndarray], retain_graph: bool) -> None:
        if not self.requires_grad:
            raise RuntimeError("backward() called on a tensor without grad")
        if grad is None:
            if self.size != 1:
                raise RuntimeError("backward() on non-scalar output needs a seed grad")
            grad = np.ones_like(self.data)
        grad = np.asarray(grad, dtype=np.float64)
        if grad.shape != self.shape:
            raise ValueError(
                f"backward() seed grad has shape {grad.shape}, "
                f"but the tensor has shape {self.shape}"
            )

        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[Tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            if node._backward is _released_backward:
                _released_backward(grad)
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))

        self._accumulate(grad)
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)
                if not retain_graph:
                    node.grad = None
                    node._parents = ()
                    node._backward = _released_backward
