"""The in-place optimisers and the fused Linear node compute exactly what
the formulas they replaced computed.

The references below are the formula-literal bodies (one numpy expression
per line of the update rule, one Tensor op per arithmetic operator) kept
here only to be compared against.  Every comparison is ``np.array_equal``:
a change that reorders or regroups a floating-point operation fails these
tests and has to be declared (and the pinned history hash re-recorded).
"""

import hashlib
import json

import numpy as np
import pytest

from repro.algorithms import build_algorithm
from repro.nn import Adam, SGD, Linear, Tensor, clip_grad_norm
from repro.nn import functional as F
from repro.nn import losses as L

from ..conftest import make_tiny_federation

STEPS = 20


class ReferenceAdam:
    """Adam as the update rule is written, one temporary per operator."""

    def __init__(self, params, lr, betas=(0.9, 0.999), eps=1e-8, weight_decay=0.0):
        self.params = params
        self.lr, (self.beta1, self.beta2), self.eps = lr, betas, eps
        self.weight_decay = weight_decay
        self.m = [np.zeros_like(p.data) for p in params]
        self.v = [np.zeros_like(p.data) for p in params]
        self.t = 0

    def step(self):
        self.t += 1
        bias1 = 1.0 - self.beta1**self.t
        bias2 = 1.0 - self.beta2**self.t
        for i, p in enumerate(self.params):
            if p.grad is None:
                continue
            grad = p.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * p.data
            self.m[i] = self.beta1 * self.m[i] + (1 - self.beta1) * grad
            self.v[i] = self.beta2 * self.v[i] + (1 - self.beta2) * grad**2
            m_hat = self.m[i] / bias1
            v_hat = self.v[i] / bias2
            p.data = p.data - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


class ReferenceSGD:
    def __init__(self, params, lr, momentum=0.0, weight_decay=0.0):
        self.params, self.lr = params, lr
        self.momentum, self.weight_decay = momentum, weight_decay
        self.velocity = [np.zeros_like(p.data) for p in params]

    def step(self):
        for i, p in enumerate(self.params):
            if p.grad is None:
                continue
            grad = p.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * p.data
            if self.momentum:
                self.velocity[i] = self.momentum * self.velocity[i] + grad
                grad = self.velocity[i]
            p.data = p.data - self.lr * grad


def unfused_linear(x, weight, bias):
    out = x @ weight.T
    if bias is not None:
        out = out + bias
    return out


def make_layers(seed):
    """A 3-layer MLP whose middle layer has no bias."""
    rng = np.random.default_rng(seed)
    return [
        Linear(12, 16, rng=rng),
        Linear(16, 8, bias=False, rng=rng),
        Linear(8, 5, rng=rng),
    ]


def parameters(layers):
    return [p for layer in layers for p in (layer.weight, layer.bias) if p is not None]


def forward(layers, x, linear):
    h = x
    for layer in layers[:-1]:
        h = linear(h, layer.weight, layer.bias).relu()
    return linear(h, layers[-1].weight, layers[-1].bias)


def batches(seed):
    rng = np.random.default_rng(seed)
    for _ in range(STEPS):
        yield rng.normal(size=(7, 12)), rng.integers(0, 5, size=7)


def train(layers, optimizer, linear, max_grad_norm):
    params = parameters(layers)
    for xb, yb in batches(seed=5):
        x = Tensor(xb)  # requires_grad=False: dx of the first layer is skipped
        loss = L.cross_entropy(forward(layers, x, linear), yb)
        for p in params:
            p.zero_grad()
        loss.backward()
        assert x.grad is None
        if max_grad_norm is not None:
            clip_grad_norm(params, max_grad_norm)
        optimizer.step()


@pytest.mark.parametrize("weight_decay", [0.0, 0.01])
@pytest.mark.parametrize("max_grad_norm", [None, 0.5])
def test_adam_and_fused_linear_match_formula_literal_reference(
    weight_decay, max_grad_norm
):
    new, ref = make_layers(3), make_layers(3)
    adam = Adam(parameters(new), lr=1e-2, weight_decay=weight_decay)
    ref_adam = ReferenceAdam(parameters(ref), lr=1e-2, weight_decay=weight_decay)
    train(new, adam, F.linear, max_grad_norm)
    train(ref, ref_adam, unfused_linear, max_grad_norm)
    state = adam.state_dict()
    assert state["t"] == ref_adam.t == STEPS
    for i, (p, q) in enumerate(zip(parameters(new), parameters(ref))):
        assert np.array_equal(p.data, q.data)
        assert np.array_equal(p.grad, q.grad)
        assert np.array_equal(state["m"][i], ref_adam.m[i])
        assert np.array_equal(state["v"][i], ref_adam.v[i])


@pytest.mark.parametrize("momentum", [0.0, 0.9])
@pytest.mark.parametrize("weight_decay", [0.0, 0.01])
def test_sgd_matches_formula_literal_reference(momentum, weight_decay):
    new, ref = make_layers(4), make_layers(4)
    sgd = SGD(parameters(new), lr=0.05, momentum=momentum, weight_decay=weight_decay)
    ref_sgd = ReferenceSGD(
        parameters(ref), lr=0.05, momentum=momentum, weight_decay=weight_decay
    )
    train(new, sgd, F.linear, 1.0)
    train(ref, ref_sgd, unfused_linear, 1.0)
    velocity = sgd.state_dict()["velocity"]
    for i, (p, q) in enumerate(zip(parameters(new), parameters(ref))):
        assert np.array_equal(p.data, q.data)
        if momentum:
            assert np.array_equal(velocity[i], ref_sgd.velocity[i])


def test_fused_linear_input_gradient_matches_unfused():
    rng = np.random.default_rng(0)
    layer = Linear(6, 4, rng=rng)
    data = rng.normal(size=(5, 6))
    seed_grad = rng.normal(size=(5, 4))
    grads = []
    for linear in (F.linear, unfused_linear):
        x = Tensor(data, requires_grad=True)
        layer.weight.zero_grad()
        layer.bias.zero_grad()
        linear(x, layer.weight, layer.bias).backward(seed_grad)
        grads.append((x.grad, layer.weight.grad, layer.bias.grad))
    for fused, unfused in zip(*grads):
        assert np.array_equal(fused, unfused)


#: sha256 of the canonical history (server_acc, client_accs, uplink and
#: downlink bytes per round) of the run below.  It moves only when the
#: arithmetic of training, distillation or aggregation moves; re-record it
#: in the same change that says so.
PINNED_FEDPKD_HISTORY = (
    "0fc1181db8b94f17b88c5a6e9c2c23cb0c76d1cfdb996e54ee344e6579f7d47e"
)


def test_tiny_fedpkd_history_hash_is_pinned(tiny_bundle):
    fed = make_tiny_federation(tiny_bundle, server_model="mlp_small")
    try:
        history = build_algorithm("fedpkd", fed, seed=0, epoch_scale=0.1).run(
            2, eval_every=1
        )
    finally:
        fed.close()
    canonical = json.dumps(
        [
            [r.server_acc, list(r.client_accs), r.comm_uplink_bytes,
             r.comm_downlink_bytes]
            for r in history.records
        ],
        separators=(",", ":"),
    )
    digest = hashlib.sha256(canonical.encode("utf-8")).hexdigest()
    assert digest == PINNED_FEDPKD_HISTORY, canonical
