"""First-order optimisers: SGD with momentum and Adam.

Both follow the PyTorch update rules so that the hyper-parameters in the
paper (Adam, lr=0.001) transfer directly.
"""

from __future__ import annotations

import functools
import time
from typing import List, Optional

import numpy as np

from ..obs import profile as _profile
from .tensor import Tensor

__all__ = ["Optimizer", "SGD", "Adam", "clip_grad_norm"]


def _profiled_step(op: str, flops_per_param: float):
    """Profiling hook for ``Optimizer.step``.

    The update rules are plain numpy (they bypass the Tensor graph), so
    without this hook optimiser time would be invisible to the op-level
    profiler.  ``flops_per_param`` is the estimated op count per scalar
    parameter (see docs/OBSERVABILITY.md).  Free when profiling is off.
    """

    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(self):
            prof = _profile.ACTIVE
            if prof is None:
                return fn(self)
            start = time.perf_counter()
            result = fn(self)
            nparams = sum(p.data.size for p in self.params)
            prof.record(op, time.perf_counter() - start, flops_per_param * nparams)
            return result

        return wrapper

    return decorate


class Optimizer:
    """Base optimiser holding a parameter list."""

    def __init__(self, params: List[Tensor], lr: float) -> None:
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        self.params = list(params)
        if not self.params:
            raise ValueError("optimizer received an empty parameter list")
        self.lr = lr

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()

    def step(self) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    def _scratch(self) -> np.ndarray:
        """A flat work buffer as long as the largest parameter.

        Allocated per ``step()`` call and dropped on return: the update
        rules route every intermediate through such buffers with ``out=``
        instead of allocating one array per arithmetic operator per
        parameter.
        """
        size = max(p.data.size for p in self.params)
        return np.empty(size, dtype=np.float64)


class SGD(Optimizer):
    """Stochastic gradient descent with optional momentum and weight decay."""

    def __init__(
        self,
        params: List[Tensor],
        lr: float,
        momentum: float = 0.0,
        weight_decay: float = 0.0,
    ) -> None:
        super().__init__(params, lr)
        self.momentum = momentum
        self.weight_decay = weight_decay
        self._velocity: List[Optional[np.ndarray]] = [None] * len(self.params)

    @_profiled_step("sgd.step", 4.0)
    def step(self) -> None:
        flat = self._scratch()
        for i, p in enumerate(self.params):
            if p.grad is None:
                continue
            work = flat[: p.data.size].reshape(p.data.shape)
            grad = p.grad
            if self.weight_decay:
                # grad + weight_decay * p.data
                np.multiply(p.data, self.weight_decay, out=work)
                grad = np.add(grad, work, out=work)
            if self.momentum:
                if self._velocity[i] is None:
                    self._velocity[i] = np.zeros_like(p.data)
                velocity = self._velocity[i]
                # velocity = momentum * velocity + grad
                np.multiply(velocity, self.momentum, out=velocity)
                grad = np.add(velocity, grad, out=velocity)
            # rebound, not written in place: graphs may alias the old array
            p.data = p.data - np.multiply(grad, self.lr, out=work)


class Adam(Optimizer):
    """Adam optimiser (Kingma & Ba, 2015) with bias correction."""

    def __init__(
        self,
        params: List[Tensor],
        lr: float = 1e-3,
        betas: tuple = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ) -> None:
        super().__init__(params, lr)
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]
        self._t = 0

    @_profiled_step("adam.step", 12.0)
    def step(self) -> None:
        self._t += 1
        bias1 = 1.0 - self.beta1**self._t
        bias2 = 1.0 - self.beta2**self._t
        flat_a, flat_b = self._scratch(), self._scratch()
        for i, p in enumerate(self.params):
            if p.grad is None:
                continue
            a = flat_a[: p.data.size].reshape(p.data.shape)
            b = flat_b[: p.data.size].reshape(p.data.shape)
            m, v = self._m[i], self._v[i]
            grad = p.grad
            if self.weight_decay:
                # grad + weight_decay * p.data
                np.multiply(p.data, self.weight_decay, out=a)
                grad = np.add(grad, a, out=a)
            # m = beta1 * m + (1 - beta1) * grad
            np.multiply(m, self.beta1, out=m)
            np.multiply(grad, 1 - self.beta1, out=b)
            np.add(m, b, out=m)
            # v = beta2 * v + (1 - beta2) * grad**2
            np.multiply(v, self.beta2, out=v)
            np.square(grad, out=b)
            np.multiply(b, 1 - self.beta2, out=b)
            np.add(v, b, out=v)
            # p.data - (lr * (m / bias1)) / (sqrt(v / bias2) + eps)
            np.divide(m, bias1, out=a)
            np.multiply(a, self.lr, out=a)
            np.divide(v, bias2, out=b)
            np.sqrt(b, out=b)
            np.add(b, self.eps, out=b)
            np.divide(a, b, out=a)
            # rebound, not written in place: graphs may alias the old array
            p.data = p.data - a


def clip_grad_norm(params: List[Tensor], max_norm: float) -> float:
    """Clip the global gradient L2 norm in place; return the pre-clip norm."""
    total_sq = 0.0
    for p in params:
        if p.grad is not None:
            total_sq += float((p.grad**2).sum())
    norm = float(np.sqrt(total_sq))
    if norm > max_norm and norm > 0:
        scale = max_norm / norm
        for p in params:
            if p.grad is not None:
                # lint: disable=ag-inplace-tensor-mutation — in-place scaling
                # is this function's documented contract; it runs after
                # backward() finishes, when nothing re-reads the old grads.
                p.grad *= scale
    return norm
