"""Model zoo for the FedPKD reproduction.

The paper runs ResNet-11/20/29 on clients and ResNet-20/56 on the server.
Here the same *roles* are filled by width/depth-scaled residual CNNs (and an
MLP family for fast experiments).  Every model exposes the split FedPKD
needs:

- ``features(x)`` — the representation layer :math:`\\mathcal{R}_\\omega`
  whose outputs define prototypes (Eq. 5 in the paper);
- ``forward(x)`` — raw class logits :math:`\\mathcal{M}_\\omega`;
- ``forward_with_features(x)`` — both, sharing one graph.

All models in one experiment share ``feature_dim`` so that prototypes are
exchangeable across heterogeneous architectures (in the paper this holds
because every CIFAR ResNet ends in a 64-d global-average-pooled feature).
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from .init import RngLike, ensure_rng
from .layers import (
    BatchNorm2d,
    Conv2d,
    GlobalAvgPool2d,
    Identity,
    Linear,
    Module,
    ReLU,
    Sequential,
    _BatchNorm,
)
from .tensor import Tensor

__all__ = [
    "ClassifierModel",
    "MLPClassifier",
    "ResNetClassifier",
    "BasicBlock",
    "build_model",
    "MODEL_REGISTRY",
    "model_num_parameters",
]


class ClassifierModel(Module):
    """Base class for classifiers with a feature/classifier split."""

    feature_dim: int
    num_classes: int

    def features(self, x: Tensor) -> Tensor:  # pragma: no cover - abstract
        raise NotImplementedError

    def forward(self, x: Tensor) -> Tensor:
        logits, _ = self.forward_with_features(x)
        return logits

    def forward_with_features(self, x: Tensor) -> Tuple[Tensor, Tensor]:
        feats = self.features(x)
        return self.classifier(feats), feats

    def predict(self, x: np.ndarray, batch_size: int = 256) -> np.ndarray:
        """Predict integer labels for a raw numpy batch (eval mode, no grad)."""
        return self.predict_logits(x, batch_size=batch_size).argmax(axis=1)

    def predict_logits(self, x: np.ndarray, batch_size: int = 256) -> np.ndarray:
        """Return logits for a raw numpy batch (eval mode, no grad)."""
        return self._infer(self.forward, x, batch_size, self.num_classes)

    def extract_features(self, x: np.ndarray, batch_size: int = 256) -> np.ndarray:
        """Return feature vectors for a raw numpy batch (eval mode, no grad)."""
        return self._infer(self.features, x, batch_size, self.feature_dim)

    def _infer(self, fn, x: np.ndarray, batch_size: int, width: int) -> np.ndarray:
        from .tensor import no_grad

        # the eval/train toggle walks the whole tree; skip it where no
        # layer's forward reads its mode
        toggle = self._mode_dependent()
        if toggle:
            was_training = self.training
            self.eval()
        outputs: List[np.ndarray] = []
        with no_grad():
            # len() and slices only: x may be a repro.data.Rows view
            for start in range(0, len(x), batch_size):
                outputs.append(fn(Tensor(x[start : start + batch_size])).data)
        if toggle:
            self.train(was_training)
        return np.concatenate(outputs, axis=0) if outputs else np.zeros((0, width), dtype=np.float64)

    def _mode_dependent(self) -> bool:
        """Whether eval mode changes this model's forward (a BatchNorm in
        its tree).  Computed once per model object: modules are never
        re-parented."""
        flag = self.__dict__.get("_has_mode_layers")
        if flag is None:
            flag = self._has_mode_layers = _has_mode_layers(self)
        return flag


def _has_mode_layers(module: Module) -> bool:
    return isinstance(module, _BatchNorm) or any(
        _has_mode_layers(child) for _, child in module.named_children()
    )


class MLPClassifier(ClassifierModel):
    """Multi-layer perceptron with a projection head to ``feature_dim``."""

    def __init__(
        self,
        input_dim: int,
        hidden_dims: Sequence[int],
        num_classes: int,
        feature_dim: int = 32,
        *,
        rng: RngLike,
    ) -> None:
        super().__init__()
        rng = ensure_rng(rng)
        self.input_dim = input_dim
        self.num_classes = num_classes
        self.feature_dim = feature_dim
        dims = [input_dim] + list(hidden_dims)
        blocks: List[Module] = []
        for d_in, d_out in zip(dims[:-1], dims[1:]):
            blocks.append(Linear(d_in, d_out, rng=rng))
            blocks.append(ReLU())
        blocks.append(Linear(dims[-1], feature_dim, rng=rng))
        blocks.append(ReLU())
        self.body = Sequential(*blocks)
        self.classifier = Linear(feature_dim, num_classes, rng=rng)

    def features(self, x: Tensor) -> Tensor:
        if x.ndim > 2:
            x = x.reshape(x.shape[0], -1)
        return self.body(x)


class BasicBlock(Module):
    """Pre-activation-free residual basic block (as in CIFAR ResNets)."""

    def __init__(
        self, in_channels: int, out_channels: int, stride: int = 1, *, rng: RngLike
    ) -> None:
        super().__init__()
        rng = ensure_rng(rng)
        self.conv1 = Conv2d(
            in_channels, out_channels, 3, stride=stride, padding=1, bias=False, rng=rng
        )
        self.bn1 = BatchNorm2d(out_channels)
        self.conv2 = Conv2d(out_channels, out_channels, 3, padding=1, bias=False, rng=rng)
        self.bn2 = BatchNorm2d(out_channels)
        if stride != 1 or in_channels != out_channels:
            self.shortcut: Module = Sequential(
                Conv2d(in_channels, out_channels, 1, stride=stride, bias=False, rng=rng),
                BatchNorm2d(out_channels),
            )
        else:
            self.shortcut = Identity()

    def forward(self, x: Tensor) -> Tensor:
        out = self.bn1(self.conv1(x)).relu()
        out = self.bn2(self.conv2(out))
        return (out + self.shortcut(x)).relu()


class ResNetClassifier(ClassifierModel):
    """CIFAR-style residual network scaled for the numpy substrate.

    ``blocks_per_stage`` follows the ResNet-(6b+2) convention: ResNet-20 has
    ``b=3`` per stage.  ``widths`` are the per-stage channel counts.  A final
    linear projection maps pooled features to the shared ``feature_dim``.
    """

    def __init__(
        self,
        in_channels: int,
        num_classes: int,
        blocks_per_stage: Sequence[int],
        widths: Sequence[int] = (8, 16, 32),
        feature_dim: int = 32,
        *,
        rng: RngLike,
    ) -> None:
        super().__init__()
        if len(blocks_per_stage) != len(widths):
            raise ValueError("blocks_per_stage and widths must have equal length")
        rng = ensure_rng(rng)
        self.num_classes = num_classes
        self.feature_dim = feature_dim
        self.stem = Sequential(
            Conv2d(in_channels, widths[0], 3, padding=1, bias=False, rng=rng),
            BatchNorm2d(widths[0]),
            ReLU(),
        )
        stages: List[Module] = []
        channels = widths[0]
        for stage_idx, (num_blocks, width) in enumerate(zip(blocks_per_stage, widths)):
            for block_idx in range(num_blocks):
                stride = 2 if stage_idx > 0 and block_idx == 0 else 1
                stages.append(BasicBlock(channels, width, stride=stride, rng=rng))
                channels = width
        self.stages = Sequential(*stages)
        self.pool = GlobalAvgPool2d()
        self.project = Linear(channels, feature_dim, rng=rng)
        self.classifier = Linear(feature_dim, num_classes, rng=rng)

    def features(self, x: Tensor) -> Tensor:
        out = self.stem(x)
        out = self.stages(out)
        out = self.pool(out)
        return self.project(out).relu()


def _resnet_blocks(depth: int) -> List[int]:
    """Translate a ResNet depth (6b+2) into per-stage block counts."""
    if (depth - 2) % 6 != 0:
        raise ValueError(f"ResNet depth must satisfy depth = 6b + 2, got {depth}")
    b = (depth - 2) // 6
    return [b, b, b]


# Registry mapping paper model names to constructors.  ``resnet11`` in the
# paper is a shallower variant; we map it to one block per stage.
MODEL_REGISTRY: Dict[str, dict] = {
    "resnet11": {"kind": "resnet", "blocks": [1, 1, 1], "widths": (8, 16, 32)},
    "resnet20": {"kind": "resnet", "blocks": _resnet_blocks(20), "widths": (8, 16, 32)},
    "resnet29": {"kind": "resnet", "blocks": [4, 5, 4], "widths": (8, 16, 32)},
    "resnet56": {"kind": "resnet", "blocks": _resnet_blocks(56), "widths": (8, 16, 32)},
    "mlp_small": {"kind": "mlp", "hidden": [64]},
    "mlp_medium": {"kind": "mlp", "hidden": [128, 64]},
    "mlp_large": {"kind": "mlp", "hidden": [256, 128, 64]},
    "mlp_xlarge": {"kind": "mlp", "hidden": [512, 256, 128, 64]},
}


def build_model(
    name: str,
    num_classes: int,
    image_shape: Tuple[int, int, int],
    feature_dim: int = 32,
    *,
    rng: RngLike,
) -> ClassifierModel:
    """Instantiate a registry model.

    Parameters
    ----------
    name:
        Key in :data:`MODEL_REGISTRY` (e.g. ``"resnet20"``, ``"mlp_small"``).
    num_classes:
        Output dimensionality.
    image_shape:
        ``(C, H, W)`` of the inputs; MLPs flatten it.
    feature_dim:
        Shared prototype dimensionality across heterogeneous models.
    """
    if name not in MODEL_REGISTRY:
        raise KeyError(f"unknown model '{name}'; choose from {sorted(MODEL_REGISTRY)}")
    spec = MODEL_REGISTRY[name]
    rng = ensure_rng(rng)
    if spec["kind"] == "resnet":
        return ResNetClassifier(
            in_channels=image_shape[0],
            num_classes=num_classes,
            blocks_per_stage=spec["blocks"],
            widths=spec["widths"],
            feature_dim=feature_dim,
            rng=rng,
        )
    input_dim = int(np.prod(image_shape))
    return MLPClassifier(
        input_dim=input_dim,
        hidden_dims=spec["hidden"],
        num_classes=num_classes,
        feature_dim=feature_dim,
        rng=rng,
    )


def model_num_parameters(name: str, num_classes: int, image_shape: Tuple[int, int, int],
                         feature_dim: int = 32) -> int:
    """Parameter count of a registry model without keeping it around."""
    return build_model(name, num_classes, image_shape, feature_dim, rng=0).num_parameters()
