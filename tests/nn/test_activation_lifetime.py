"""An activation no backward closure reads dies with its last Python reference.

A graph node holds its parents' nodes and a closure over exactly the arrays
its backward pass reads, never a forward output.  So in a training forward
a conv output (BatchNorm keeps its own ``x_hat``), a BatchNorm output and a
residual sum (ReLU keeps its mask, an add keeps nothing) are freed once the
model code drops them, long before backward runs, while the loss's graph
stays whole: the gradients equal, byte for byte, those of a run that kept
every one of those tensors alive.
"""

import weakref

import numpy as np
import pytest

from repro.nn import Tensor, build_model
from repro.nn import functional as F
from repro.nn import losses as L
from repro.nn.models import BasicBlock

KINDS = ("conv2d", "batch_norm", "residual_sum")


@pytest.fixture
def watch(monkeypatch):
    """Record a weak reference to the ``.data`` of every conv output,
    BatchNorm output and tensor sum built while the fixture is active, and
    keep the tensors themselves alive when ``keep`` is set."""
    refs = {kind: [] for kind in KINDS}
    kept = []
    state = {"keep": False}

    def watched(kind, fn):
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            refs[kind].append(weakref.ref(out.data))
            if state["keep"]:
                kept.append(out)
            return out

        return wrapper

    monkeypatch.setattr(F, "conv2d", watched("conv2d", F.conv2d))
    monkeypatch.setattr(F, "batch_norm", watched("batch_norm", F.batch_norm))
    # in these models, the only sums of two tensors are the residual ones
    monkeypatch.setattr(Tensor, "__add__", watched("residual_sum", Tensor.__add__))

    def run(forward, keep):
        for kind in KINDS:
            refs[kind].clear()
        kept.clear()
        state["keep"] = keep
        return forward(), refs, kept

    return run


def block_step():
    rng = np.random.default_rng(0)
    # stride 2: a 1x1 conv + BatchNorm shortcut as well as the main path
    block = BasicBlock(4, 8, stride=2, rng=rng)
    x = Tensor(rng.normal(size=(3, 4, 6, 6)), requires_grad=True)

    def forward():
        out = block(x)
        return (out * out).sum()

    return block, x, forward


def resnet20_step():
    rng = np.random.default_rng(1)
    model = build_model("resnet20", num_classes=10, image_shape=(3, 8, 8), rng=rng)
    x = Tensor(rng.normal(size=(4, 3, 8, 8)), requires_grad=True)
    labels = rng.integers(0, 10, size=4)

    def forward():
        return L.cross_entropy(model(x), labels)

    return model, x, forward


@pytest.mark.parametrize("build", [block_step, resnet20_step], ids=["block", "resnet20"])
def test_interior_activations_die_before_backward_and_gradients_are_unchanged(
    watch, build
):
    grads = {}
    for keep in (True, False):
        model, x, forward = build()
        loss, refs, kept = watch(forward, keep)
        for kind in KINDS:
            assert refs[kind], kind
            alive = [ref() is not None for ref in refs[kind]]
            # the forward returned: only the run that holds the tensors
            # still has their arrays
            assert all(alive) if keep else not any(alive), kind
        assert loss.requires_grad  # the loss and its graph are alive
        model.zero_grad()
        loss.backward()
        grads[keep] = [x.grad.tobytes()] + [p.grad.tobytes() for p in model.parameters()]
        kept.clear()
    assert grads[False] == grads[True]
