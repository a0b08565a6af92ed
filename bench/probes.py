"""Outside probes of ``repro.nn``: fixed-shape kernels timed call by call.

They answer "did the substrate op itself get faster?" without a federated
round around it: each is the median of ``calls`` timed calls after two
warm-up calls (the first conv pays einsum path planning), on inputs from a
fixed seed, through the public ``Tensor``/``functional``/``optim`` API.
"""

from __future__ import annotations

import statistics
import time
from typing import Callable, Dict

#: image shape of the repo's CIFAR stand-in tasks
_IMAGE_SHAPE = (3, 8, 8)


def _median_seconds(fn: Callable[[], None], calls: int) -> float:
    fn()
    fn()
    samples = []
    for _ in range(calls):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def run_probes(calls: int = 200) -> Dict[str, float]:
    import numpy as np

    from repro.nn import Tensor
    from repro.nn import functional as F
    from repro.nn import losses as L
    from repro.nn.models import build_model
    from repro.nn.optim import Adam

    rng = np.random.default_rng(0)

    a = Tensor(rng.normal(size=(256, 256)), requires_grad=True)
    b = Tensor(rng.normal(size=(256, 256)), requires_grad=True)

    def matmul() -> None:
        a.grad = b.grad = None
        (a @ b).sum().backward()

    x = Tensor(rng.normal(size=(16, 3, 16, 16)), requires_grad=True)
    w = Tensor(rng.normal(size=(16, 3, 3, 3)), requires_grad=True)

    def conv2d() -> None:
        x.grad = w.grad = None
        F.conv2d(x, w, stride=1, padding=1).sum().backward()

    def train_step(model_name: str, batch: int):
        model = build_model(model_name, 10, _IMAGE_SHAPE, feature_dim=32, rng=0)
        optimizer = Adam(model.parameters(), lr=1e-3)
        xb = rng.normal(size=(batch,) + _IMAGE_SHAPE)
        yb = rng.integers(0, 10, size=batch)

        def step() -> None:
            loss = L.cross_entropy(model(Tensor(xb)), yb)
            model.zero_grad()
            loss.backward()
            optimizer.step()

        return step, optimizer

    mlp_step, mlp_optimizer = train_step("mlp_large", batch=32)
    resnet_step, _ = train_step("resnet20", batch=8)
    mlp_step()  # gradients exist before the bare optimiser step is timed

    return {
        "nn.probe_matmul_us": 1e6 * _median_seconds(matmul, calls),
        "nn.probe_conv2d_us": 1e6 * _median_seconds(conv2d, calls),
        "nn.probe_adam_step_us": 1e6 * _median_seconds(mlp_optimizer.step, calls),
        "nn.probe_mlp_step_ms": 1e3 * _median_seconds(mlp_step, calls),
        "nn.probe_resnet20_step_ms": 1e3 * _median_seconds(resnet_step, calls),
    }
