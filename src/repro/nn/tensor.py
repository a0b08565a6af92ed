"""Reverse-mode automatic differentiation over numpy arrays.

This module is the foundation of the :mod:`repro.nn` substrate.  It provides a
:class:`Tensor` wrapper around ``numpy.ndarray`` that records a dynamic
computation graph and supports backpropagation through it, in the style of
PyTorch's eager autograd but implemented from scratch.

The graph is made of nodes, not tensors.  A ``Tensor`` is its ``data`` plus
its node: ``None`` when it takes no gradient, a leaf node when it was made
with ``requires_grad=True``, or the node of the op that produced it.  An
op's node holds the gradient slot of its output, its parents' nodes, its
backward closure and the shape and layout of its output; the closure holds
exactly the arrays its backward pass reads, taken at forward time
(BatchNorm's ``x_hat``, ReLU's mask, a matmul's operands).  No node refers
to a tensor or to a forward output that backward does not read, so an
interior activation nothing reads backward (a conv output, a BatchNorm
output, a residual sum) is freed as soon as the Python code drops it.

Only the operations needed by the FedPKD reproduction are implemented, but
each of them handles full numpy broadcasting and has gradient correctness
verified by finite-difference tests in ``tests/nn/test_autograd.py``.
"""

from __future__ import annotations

import functools
import time
import weakref
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


Backward = Callable[[np.ndarray], None]


class _Node:
    """An op output's place in the graph.

    It holds the output's gradient slot, its parents' nodes (``None`` for
    an input that takes no gradient), the backward closure, and the
    output's shape and layout, which is all :meth:`accumulate` needs; the
    output array itself is not referenced.
    """

    __slots__ = ("grad", "parents", "backward", "shape", "_strides")

    def __init__(
        self,
        data: np.ndarray,
        parents: Tuple[Optional["_Node"], ...],
        backward: Optional[Backward],
    ) -> None:
        self.grad: Optional[np.ndarray] = None
        self.parents = parents
        self.backward = backward
        self._lay_out(data)

    def _lay_out(self, data: np.ndarray) -> None:
        self.shape = data.shape
        # the strides ``np.empty_like(data)`` gives, in which a copied first
        # gradient is laid out; ``None`` for C order (the common case)
        self._strides = (
            None if data.flags.c_contiguous else np.empty_like(data).strides
        )

    def _empty(self) -> np.ndarray:
        if self._strides is None:
            return np.empty(self.shape)
        flat = np.empty(int(np.prod(self.shape)))
        return np.ndarray(self.shape, np.float64, flat, strides=self._strides)

    def accumulate(self, grad: np.ndarray, owned: bool = False) -> None:
        """Add ``grad`` into ``self.grad``.

        ``owned=True`` is the caller's promise that it allocated ``grad``
        itself and hands it to nobody else; a first gradient of the
        buffer's own shape and layout is then adopted instead of copied.
        Pass-through gradients and views (``add.bwd``, ``reshape``,
        ``transpose``, slices) must stay ``owned=False``, or two nodes'
        gradients would share memory.
        """
        if self.grad is None:
            if (
                owned
                and isinstance(grad, np.ndarray)  # 0-d math yields scalars
                and grad.shape == self.shape
                and grad.flags.c_contiguous
                and self._strides is None
            ):
                self.grad = grad
            else:
                # same layout and values as zero-fill-then-add, in one pass
                buf = self._empty()
                np.add(grad, 0.0, out=buf)
                self.grad = buf
            return
        # lint: disable=ag-inplace-tensor-mutation — this IS the gradient
        # accumulator; the buffer is adopted or allocated above, never aliased.
        self.grad += grad

    def accumulate_unbroadcast(self, grad: np.ndarray, owned: bool) -> None:
        """:meth:`accumulate` for an operand numpy may have broadcast."""
        reduced = _unbroadcast(grad, self.shape)
        # any reduction allocates, so only the untouched array can alias
        self.accumulate(reduced, owned or reduced is not grad)


class _Leaf(_Node):
    """The node of a tensor made with ``requires_grad=True``.

    Optimisers rebind a parameter's ``data`` between steps, so a leaf takes
    its shape and layout from its tensor's current data.  It refers to the
    tensor weakly: a gradient for a tensor nobody holds any more is dropped,
    as nothing could read it.
    """

    __slots__ = ("_tensor",)

    def __init__(self, tensor: "Tensor") -> None:
        self.grad = None
        self.parents = ()
        self.backward = None
        self._tensor = weakref.ref(tensor)

    def _refresh(self) -> bool:
        tensor = self._tensor()
        if tensor is None:
            return False
        self._lay_out(tensor.data)
        return True

    def accumulate(self, grad: np.ndarray, owned: bool = False) -> None:
        if self.grad is None and not self._refresh():
            return
        _Node.accumulate(self, grad, owned)

    def accumulate_unbroadcast(self, grad: np.ndarray, owned: bool) -> None:
        if self._refresh():
            _Node.accumulate_unbroadcast(self, grad, owned)


def _record(
    data: np.ndarray,
    parents: Tuple[Optional[_Node], ...],
    backward: Backward,
) -> "Tensor":
    """The output tensor of an op on ``data``.

    ``parents`` are the inputs' nodes (``Tensor._node``, ``None`` for an
    input that takes no gradient).  When grad mode is on and one of them is
    a node, the output gets a node that runs ``backward`` on its gradient;
    ``backward`` must reach the inputs only through those nodes and read
    only arrays it captured.
    """
    out = Tensor(data)
    if _GRAD_ENABLED and parents.count(None) != len(parents):
        out._node = _Node(out.data, parents, backward)
    return out


def _prof_op(op: str, flops="out"):
    """Profiling hook for a Tensor op method.

    When :data:`repro.obs.profile.ACTIVE` is unset (the default) the
    wrapper falls straight through to the original method — no timing,
    no allocation — so unprofiled runs are bit-identical by
    construction.  When a profiler is active, the forward pass is timed
    and recorded with an estimated FLOP count, and the output node's
    backward closure is wrapped so the backward pass is attributed to
    ``"<op>.bwd"`` (see docs/OBSERVABILITY.md for the estimate
    formulas).

    ``flops`` selects the estimator: ``"out"`` (one op per output
    element — elementwise math), ``"in"`` (one per input element —
    reductions), a constant (``0`` for pure memory-movement ops), or a
    callable ``(self, out) -> float`` for shape-dependent kernels.  The
    backward pass is booked at twice that, except for binary ops, whose
    closures skip a parent that takes no gradient: they are booked once
    per parent that gets a gradient.
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
            if flops == "out":
                nflops = out.data.size
            elif flops == "in":
                nflops = self.data.size
            elif callable(flops):
                nflops = flops(self, out)
            else:
                nflops = float(flops)
            prof.record(op, seconds, nflops, out.data.nbytes)
            node = out._node
            if node is not None:
                parents = node.parents
                live = 2 - parents.count(None) if len(parents) == 2 else 2
                _profile.wrap_backward(node, op, float(live) * nflops)
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

    __slots__ = ("data", "_node", "name", "__weakref__")

    def __init__(
        self,
        data: ArrayLike,
        requires_grad: bool = False,
        name: Optional[str] = None,
    ) -> None:
        self.data = np.asarray(data, dtype=np.float64)
        self._node: Optional[_Node] = _Leaf(self) if requires_grad else None
        self.name = name

    # ------------------------------------------------------------------
    # basic protocol
    # ------------------------------------------------------------------
    @property
    def requires_grad(self) -> bool:
        return self._node is not None

    @requires_grad.setter
    def requires_grad(self, flag: bool) -> None:
        # False detaches the tensor from any graph; True makes it a leaf
        if not flag:
            self._node = None
        elif self._node is None:
            self._node = _Leaf(self)

    @property
    def grad(self) -> Optional[np.ndarray]:
        node = self._node
        return None if node is None else node.grad

    @grad.setter
    def grad(self, value: Optional[np.ndarray]) -> None:
        node = self._node
        if node is not None:
            node.grad = value
        elif value is not None:
            raise RuntimeError("cannot set .grad on a tensor that does not require grad")

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

    @staticmethod
    def _lift(value: Union["Tensor", ArrayLike]) -> "Tensor":
        return value if isinstance(value, Tensor) else Tensor(value)

    # ------------------------------------------------------------------
    # arithmetic
    # ------------------------------------------------------------------
    @_prof_op("add")
    def __add__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        other = self._lift(other)
        na, nb = self._node, other._node

        def backward(grad: np.ndarray) -> None:
            if na is not None:
                na.accumulate_unbroadcast(grad, False)
            if nb is not None:
                nb.accumulate_unbroadcast(grad, False)

        return _record(self.data + other.data, (na, nb), backward)

    __radd__ = __add__

    @_prof_op("neg")
    def __neg__(self) -> "Tensor":
        na = self._node

        def backward(grad: np.ndarray) -> None:
            na.accumulate(-grad, True)

        return _record(-self.data, (na,), backward)

    def __sub__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        return self + (-self._lift(other))

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        return self._lift(other) + (-self)

    @_prof_op("mul")
    def __mul__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        other = self._lift(other)
        na, nb = self._node, other._node
        # each operand's gradient reads the other operand only
        a = self.data if nb is not None else None
        b = other.data if na is not None else None

        def backward(grad: np.ndarray) -> None:
            if na is not None:
                na.accumulate_unbroadcast(grad * b, True)
            if nb is not None:
                nb.accumulate_unbroadcast(grad * a, True)

        return _record(self.data * other.data, (na, nb), backward)

    __rmul__ = __mul__

    @_prof_op("div")
    def __truediv__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        other = self._lift(other)
        na, nb = self._node, other._node
        a = self.data if nb is not None else None
        b = other.data

        def backward(grad: np.ndarray) -> None:
            if na is not None:
                na.accumulate_unbroadcast(grad / b, True)
            if nb is not None:
                nb.accumulate_unbroadcast(-grad * a / (b**2), True)

        return _record(self.data / b, (na, nb), backward)

    def __rtruediv__(self, other: ArrayLike) -> "Tensor":
        return self._lift(other) / self

    @_prof_op("pow")
    def __pow__(self, exponent: Scalar) -> "Tensor":
        if not isinstance(exponent, (int, float)):
            raise TypeError("Tensor.__pow__ supports scalar exponents only")
        na, a = self._node, self.data

        def backward(grad: np.ndarray) -> None:
            na.accumulate(grad * exponent * a ** (exponent - 1), True)

        return _record(a**exponent, (na,), backward)

    @_prof_op("matmul", _matmul_flops)
    def __matmul__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        other = self._lift(other)
        if self.ndim != 2 or other.ndim != 2:
            raise ValueError(
                f"matmul expects 2-D operands, got {self.shape} @ {other.shape}"
            )
        na, nb = self._node, other._node
        a = self.data if nb is not None else None
        b = other.data if na is not None else None

        def backward(grad: np.ndarray) -> None:
            if na is not None:
                na.accumulate(grad @ b.T, True)
            if nb is not None:
                nb.accumulate(a.T @ grad, True)

        return _record(self.data @ other.data, (na, nb), backward)

    # ------------------------------------------------------------------
    # elementwise nonlinearities
    # ------------------------------------------------------------------
    @_prof_op("exp")
    def exp(self) -> "Tensor":
        na = self._node
        out_data = np.exp(self.data)

        def backward(grad: np.ndarray) -> None:
            na.accumulate(grad * out_data, True)

        return _record(out_data, (na,), backward)

    @_prof_op("log")
    def log(self) -> "Tensor":
        na, a = self._node, self.data

        def backward(grad: np.ndarray) -> None:
            na.accumulate(grad / a, True)

        return _record(np.log(a), (na,), backward)

    def sqrt(self) -> "Tensor":
        return self**0.5

    @_prof_op("relu")
    def relu(self) -> "Tensor":
        na = self._node
        mask = self.data > 0

        def backward(grad: np.ndarray) -> None:
            na.accumulate(grad * mask, True)

        return _record(self.data * mask, (na,), backward)

    @_prof_op("abs")
    def abs(self) -> "Tensor":
        na = self._node
        sign = np.sign(self.data)

        def backward(grad: np.ndarray) -> None:
            na.accumulate(grad * sign, True)

        return _record(np.abs(self.data), (na,), backward)

    # ------------------------------------------------------------------
    # reductions
    # ------------------------------------------------------------------
    @_prof_op("sum", "in")
    def sum(
        self, axis: Optional[Union[int, Tuple[int, ...]]] = None, keepdims: bool = False
    ) -> "Tensor":
        na, shape = self._node, self.shape

        def backward(grad: np.ndarray) -> None:
            g = grad
            if axis is not None and not keepdims:
                axes = (axis,) if isinstance(axis, int) else tuple(axis)
                axes = tuple(a % len(shape) for a in axes)
                g = np.expand_dims(g, axes)
            na.accumulate(np.broadcast_to(g, shape).copy(), True)

        return _record(self.data.sum(axis=axis, keepdims=keepdims), (na,), backward)

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
        na, a = self._node, self.data
        out_data = a.max(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            if axis is None:
                mask = a == out_data
                # split ties evenly so the gradient check is deterministic
                na.accumulate(grad * mask / mask.sum(), True)
            else:
                expanded = out_data if keepdims else np.expand_dims(out_data, axis)
                g = grad if keepdims else np.expand_dims(grad, axis)
                mask = a == expanded
                counts = mask.sum(axis=axis, keepdims=True)
                na.accumulate(g * mask / counts, True)

        return _record(out_data, (na,), backward)

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
        na, in_shape = self._node, self.shape

        def backward(grad: np.ndarray) -> None:
            na.accumulate(grad.reshape(in_shape))

        return _record(self.data.reshape(shape), (na,), backward)

    @_prof_op("transpose", 0)
    def transpose(self, axes: Optional[Tuple[int, ...]] = None) -> "Tensor":
        na = self._node
        if axes is None:
            inverse: Optional[Tuple[int, ...]] = None
        else:
            inverse = tuple(np.argsort(axes))

        def backward(grad: np.ndarray) -> None:
            na.accumulate(grad.transpose(inverse))

        return _record(self.data.transpose(axes), (na,), backward)

    @_prof_op("getitem", 0)
    def __getitem__(self, index) -> "Tensor":
        na, shape = self._node, self.shape

        def backward(grad: np.ndarray) -> None:
            full = np.zeros(shape)
            np.add.at(full, index, grad)
            na.accumulate(full, True)

        return _record(self.data[index], (na,), backward)

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
            released as soon as its backward closure has run: its gradient,
            parents and closure (with the forward arrays it captured) are
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
        root = self._node
        if root is None:
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

        topo: list[_Node] = []
        visited: set[int] = set()
        stack: list[Tuple[_Node, bool]] = [(root, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            if node.backward is _released_backward:
                _released_backward(grad)
            visited.add(id(node))
            stack.append((node, True))
            for parent in node.parents:
                if parent is not None and id(parent) not in visited:
                    stack.append((parent, False))

        root.accumulate(grad)
        for node in reversed(topo):
            if node.backward is not None and node.grad is not None:
                node.backward(node.grad)
                if not retain_graph:
                    node.grad = None
                    node.parents = ()
                    node.backward = _released_backward
