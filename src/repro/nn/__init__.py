"""From-scratch neural-network substrate (numpy autograd) for the FedPKD repro.

Public surface::

    from repro import nn
    model = nn.build_model("resnet20", num_classes=10, image_shape=(3, 8, 8), rng=0)
    logits, feats = model.forward_with_features(nn.Tensor(x))
    loss = nn.losses.cross_entropy(logits, y)
    loss.backward()
    nn.Adam(model.parameters()).step()

The graph holds only what backward reads: an activation no backward closure
reads (a conv output, a BatchNorm output, a residual sum) is freed as soon as
the code drops it.  ``loss.backward()`` releases the rest: each interior
node's gradient, parents and backward closure are dropped once the closure
has run, so only the parameters' ``.grad`` and the tensors still held
outlive the pass.
``loss.backward(retain_graph=True)`` keeps the graph for a second pass; a
pass that reaches a released node raises ``RuntimeError``.
"""

from . import functional, init, losses, optim
from .layers import (
    BatchNorm1d,
    BatchNorm2d,
    Conv2d,
    GlobalAvgPool2d,
    Identity,
    Linear,
    Module,
    ReLU,
    Sequential,
)
from .models import (
    MODEL_REGISTRY,
    BasicBlock,
    ClassifierModel,
    MLPClassifier,
    ResNetClassifier,
    build_model,
    model_num_parameters,
)
from .optim import Adam, Optimizer, SGD, clip_grad_norm
from .serialize import (
    WIRE_DTYPE,
    array_num_bytes,
    deserialize_state,
    payload_num_bytes,
    read_state_meta,
    serialize_state,
    state_chunks,
)
from .tensor import Tensor, is_grad_enabled, no_grad

__all__ = [
    "Tensor",
    "no_grad",
    "is_grad_enabled",
    "functional",
    "losses",
    "optim",
    "init",
    "Module",
    "Linear",
    "Conv2d",
    "BatchNorm1d",
    "BatchNorm2d",
    "ReLU",
    "GlobalAvgPool2d",
    "Identity",
    "Sequential",
    "ClassifierModel",
    "MLPClassifier",
    "ResNetClassifier",
    "BasicBlock",
    "build_model",
    "model_num_parameters",
    "MODEL_REGISTRY",
    "Optimizer",
    "SGD",
    "Adam",
    "clip_grad_norm",
    "WIRE_DTYPE",
    "payload_num_bytes",
    "array_num_bytes",
    "state_chunks",
    "serialize_state",
    "deserialize_state",
    "read_state_meta",
]
