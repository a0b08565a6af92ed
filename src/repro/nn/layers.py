"""Neural-network layers: a minimal ``Module`` system over the autograd core.

The design mirrors ``torch.nn``: layers hold :class:`~repro.nn.Tensor`
parameters with ``requires_grad=True``, nested modules are discovered through
attribute inspection, and ``state_dict``/``load_state_dict`` round-trip all
parameters and buffers (running statistics).
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from . import functional as F
from . import init
from .tensor import Tensor

__all__ = [
    "Module",
    "Linear",
    "Conv2d",
    "BatchNorm1d",
    "BatchNorm2d",
    "ReLU",
    "GlobalAvgPool2d",
    "Identity",
    "Sequential",
]


_UNSET = np.empty(0, dtype=np.float64)


def _slot() -> Tensor:
    """A parameter placeholder, created in construction order (which fixes
    ``state_dict`` key order) and filled by ``reset_parameters``.  It holds
    no full-size array: allocating one only to replace it costs a cold
    allocation per parameter."""
    return Tensor(_UNSET, requires_grad=True)


def _redraw(param: Tensor, value: np.ndarray) -> None:
    """Give a parameter fresh contents and no gradient, keeping the
    ``Tensor`` object (so a reset model is the same object graph)."""
    param.data = value
    param.grad = None


class Module:
    """Base class for all layers and models."""

    def __init__(self) -> None:
        self.training = True

    # ------------------------------------------------------------------
    # forward protocol
    # ------------------------------------------------------------------
    def forward(self, x: Tensor) -> Tensor:  # pragma: no cover - abstract
        raise NotImplementedError

    def __call__(self, *args, **kwargs) -> Tensor:
        return self.forward(*args, **kwargs)

    # ------------------------------------------------------------------
    # traversal
    # ------------------------------------------------------------------
    def named_children(self) -> Iterator[Tuple[str, "Module"]]:
        for name, value in vars(self).items():
            if isinstance(value, Module):
                yield name, value

    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Tensor]]:
        for name, value in vars(self).items():
            if isinstance(value, Tensor) and value.requires_grad:
                yield prefix + name, value
        for child_name, child in self.named_children():
            yield from child.named_parameters(prefix=f"{prefix}{child_name}.")

    def parameters(self) -> List[Tensor]:
        return [p for _, p in self.named_parameters()]

    def named_buffers(self, prefix: str = "") -> Iterator[Tuple[str, np.ndarray]]:
        for name, value in vars(self).items():
            if isinstance(value, np.ndarray):
                yield prefix + name, value
        for child_name, child in self.named_children():
            yield from child.named_buffers(prefix=f"{prefix}{child_name}.")

    def num_parameters(self) -> int:
        """Total number of trainable scalar parameters."""
        return sum(p.size for p in self.parameters())

    # ------------------------------------------------------------------
    # train / eval, gradient helpers
    # ------------------------------------------------------------------
    def train(self, mode: bool = True) -> "Module":
        self.training = mode
        for _, child in self.named_children():
            child.train(mode)
        return self

    def eval(self) -> "Module":
        return self.train(False)

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.zero_grad()

    def reset_parameters(self, rng: np.random.Generator) -> None:
        """Re-initialise in place as if freshly constructed from ``rng``:
        parameters and buffers redrawn, grads dropped, train mode on.

        Children are visited in ``named_children`` order — the order the
        constructor built (and drew for) them — so a reset model and a new
        one built from an equal ``rng`` have equal state dicts.
        """
        self.training = True
        for _, child in self.named_children():
            child.reset_parameters(rng)

    # ------------------------------------------------------------------
    # (de)serialisation
    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, np.ndarray]:
        """Return a flat name → array mapping of parameters and buffers."""
        state = {name: p.data.copy() for name, p in self.named_parameters()}
        state.update({name: b.copy() for name, b in self.named_buffers()})
        return state

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        """Load arrays produced by :meth:`state_dict` (strict matching)."""
        own_params = dict(self.named_parameters())
        own_buffers = dict(self.named_buffers())
        expected = set(own_params) | set(own_buffers)
        got = set(state)
        if expected != got:
            missing = sorted(expected - got)
            unexpected = sorted(got - expected)
            raise KeyError(
                f"state_dict mismatch: missing={missing}, unexpected={unexpected}"
            )
        for name, param in own_params.items():
            value = np.asarray(state[name], dtype=np.float64)
            if value.shape != param.shape:
                raise ValueError(
                    f"shape mismatch for {name}: {value.shape} vs {param.shape}"
                )
            param.data = value.copy()
        for name, buf in own_buffers.items():
            value = np.asarray(state[name], dtype=buf.dtype)
            if value.shape != buf.shape:
                raise ValueError(
                    f"shape mismatch for buffer {name}: {value.shape} vs {buf.shape}"
                )
            buf[...] = value


class Linear(Module):
    """Affine layer ``y = x W^T + b``."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        bias: bool = True,
        *,
        rng: init.RngLike,
    ) -> None:
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = _slot()
        self.bias: Optional[Tensor] = _slot() if bias else None
        self.reset_parameters(init.ensure_rng(rng))

    def reset_parameters(self, rng: np.random.Generator) -> None:
        self.training = True
        shape = (self.out_features, self.in_features)
        _redraw(self.weight, init.kaiming_uniform(rng, shape, fan_in=self.in_features))
        if self.bias is not None:
            bound = 1.0 / np.sqrt(self.in_features)
            _redraw(self.bias, rng.uniform(-bound, bound, size=self.out_features))

    def forward(self, x: Tensor) -> Tensor:
        return F.linear(x, self.weight, self.bias)


class Conv2d(Module):
    """2-D convolution layer over NCHW input."""

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        stride: int = 1,
        padding: int = 0,
        bias: bool = True,
        *,
        rng: init.RngLike,
    ) -> None:
        super().__init__()
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        self.weight = _slot()
        self.bias: Optional[Tensor] = _slot() if bias else None
        self.reset_parameters(init.ensure_rng(rng))

    def reset_parameters(self, rng: np.random.Generator) -> None:
        self.training = True
        k = self.kernel_size
        shape = (self.out_channels, self.in_channels, k, k)
        fan_in = self.in_channels * k * k
        _redraw(self.weight, init.kaiming_uniform(rng, shape, fan_in=fan_in))
        if self.bias is not None:
            bound = 1.0 / np.sqrt(fan_in)
            _redraw(self.bias, rng.uniform(-bound, bound, size=self.out_channels))

    def forward(self, x: Tensor) -> Tensor:
        return F.conv2d(x, self.weight, self.bias, stride=self.stride, padding=self.padding)


class _BatchNorm(Module):
    """Shared implementation of 1-D/2-D batch normalisation."""

    def __init__(self, num_features: int, eps: float = 1e-5, momentum: float = 0.1) -> None:
        super().__init__()
        self.num_features = num_features
        self.eps = eps
        self.momentum = momentum
        self.weight = _slot()
        self.bias = _slot()
        self.running_mean = np.empty(num_features, dtype=np.float64)
        self.running_var = np.empty(num_features, dtype=np.float64)
        self.reset_parameters(None)

    def reset_parameters(self, rng: Optional[np.random.Generator]) -> None:
        # deterministic init: draws nothing from ``rng``
        self.training = True
        _redraw(self.weight, np.ones(self.num_features, dtype=np.float64))
        _redraw(self.bias, np.zeros(self.num_features, dtype=np.float64))
        self.running_mean.fill(0.0)
        self.running_var.fill(1.0)

    def _normalize(self, x: Tensor) -> Tensor:
        return F.batch_norm(
            x, self.weight, self.bias, self.running_mean, self.running_var,
            training=self.training, momentum=self.momentum, eps=self.eps,
        )


class BatchNorm1d(_BatchNorm):
    """Batch normalisation over ``(N, C)`` activations."""

    def forward(self, x: Tensor) -> Tensor:
        if x.ndim != 2:
            raise ValueError(f"BatchNorm1d expects (N, C) input, got {x.shape}")
        return self._normalize(x)


class BatchNorm2d(_BatchNorm):
    """Batch normalisation over ``(N, C, H, W)`` activations."""

    def forward(self, x: Tensor) -> Tensor:
        if x.ndim != 4:
            raise ValueError(f"BatchNorm2d expects (N, C, H, W) input, got {x.shape}")
        return self._normalize(x)


class ReLU(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x.relu()


class GlobalAvgPool2d(Module):
    def forward(self, x: Tensor) -> Tensor:
        return F.global_avg_pool2d(x)


class Identity(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x


class Sequential(Module):
    """Run modules in order; supports iteration and indexing."""

    def __init__(self, *modules: Module) -> None:
        super().__init__()
        self._modules: List[Module] = list(modules)
        for i, module in enumerate(self._modules):
            setattr(self, f"m{i}", module)

    def forward(self, x: Tensor) -> Tensor:
        for module in self._modules:
            x = module(x)
        return x

    def __iter__(self) -> Iterator[Module]:
        return iter(self._modules)

    def __len__(self) -> int:
        return len(self._modules)

    def __getitem__(self, index: int) -> Module:
        return self._modules[index]
