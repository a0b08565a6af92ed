"""Client-side state and behaviour common to all algorithms."""

from __future__ import annotations

import copy
from typing import Dict, Optional

import numpy as np

from ..nn.models import ClassifierModel
from .config import TrainingConfig
from .training import evaluate_accuracy, train_distill, train_supervised

__all__ = ["FLClient"]


class FLClient:
    """One federated client: a model, private data, and a personal test set.

    The class is algorithm-agnostic; algorithms call its training helpers
    with the loss ingredients they need (proximal anchors, prototypes,
    teacher logits, ...).

    ``model_name`` records the registry name the model was built from; the
    parallel runtime (:mod:`repro.runtime`) uses it to rebuild a
    structurally identical client inside worker processes.  Hand-built
    clients may leave it ``None``, in which case their work runs inline.
    """

    def __init__(
        self,
        client_id: int,
        model: ClassifierModel,
        x_train: np.ndarray,
        y_train: np.ndarray,
        x_test: np.ndarray,
        y_test: np.ndarray,
        num_classes: int,
        seed: int = 0,
        model_name: Optional[str] = None,
    ) -> None:
        self.client_id = client_id
        self._model: Optional[ClassifierModel] = model
        self.model_name = model_name
        self.x_train = x_train
        self.y_train = np.asarray(y_train, dtype=np.int64)
        self.x_test = x_test
        self.y_test = np.asarray(y_test, dtype=np.int64)
        self.num_classes = num_classes
        self._seed = seed
        self._rng: Optional[np.random.Generator] = None

    # ------------------------------------------------------------------
    # model ownership (a bounded registry recycles evicted clients' models)
    # ------------------------------------------------------------------
    @property
    def model(self) -> ClassifierModel:
        model = self._model
        if model is None:
            raise RuntimeError(
                f"client {self.client_id} was evicted from its registry and "
                f"its model handed on; fetch it again with "
                f"registry[{self.client_id}]"
            )
        return model

    def detach_model(self) -> ClassifierModel:
        """Take the model away from this client (registry eviction); any
        later use of its model raises instead of reading a model that
        another client may now own."""
        model = self.model
        self._model = None
        return model

    # ------------------------------------------------------------------
    # RNG stream (checkpointing and the parallel runtime move it around)
    # ------------------------------------------------------------------
    @property
    def rng(self) -> np.random.Generator:
        """The local batch-shuffling stream, seeded on first use (an
        evaluation-only client never pays for it)."""
        rng = self._rng
        if rng is None:
            rng = self._rng = np.random.default_rng(self._seed)
        return rng

    def rng_state(self) -> dict:
        """A copy of the local RNG stream state (batch-shuffling order)."""
        return copy.deepcopy(self.rng.bit_generator.state)

    def set_rng_state(self, state: dict) -> None:
        self.rng.bit_generator.state = copy.deepcopy(state)

    # ------------------------------------------------------------------
    # data facts
    # ------------------------------------------------------------------
    @property
    def num_samples(self) -> int:
        return len(self.x_train)

    def class_counts(self) -> np.ndarray:
        """Per-class sample counts of the local training set."""
        return np.bincount(self.y_train, minlength=self.num_classes)

    def present_classes(self) -> np.ndarray:
        """Classes this client has at least one training sample of."""
        return np.flatnonzero(self.class_counts() > 0)

    # ------------------------------------------------------------------
    # training
    # ------------------------------------------------------------------
    def train_local(
        self,
        config: TrainingConfig,
        prox_mu: float = 0.0,
        prox_reference: Optional[Dict[str, np.ndarray]] = None,
        prototypes: Optional[np.ndarray] = None,
        prototype_weight: float = 0.0,
    ) -> float:
        """Supervised training on private data (Eq. 4 / Eq. 16 / FedProx)."""
        return train_supervised(
            self.model,
            self.x_train,
            self.y_train,
            config,
            self.rng,
            prox_mu=prox_mu,
            prox_reference=prox_reference,
            prototypes=prototypes,
            prototype_weight=prototype_weight,
        )

    def train_public_distill(
        self,
        x_public: np.ndarray,
        teacher_logits: np.ndarray,
        config: TrainingConfig,
        kd_weight: float = 0.5,
        pseudo_labels: Optional[np.ndarray] = None,
        temperature: float = 1.0,
    ) -> float:
        """Distillation from server/consensus logits on public data (Eq. 15)."""
        return train_distill(
            self.model,
            x_public,
            teacher_logits,
            config,
            self.rng,
            kd_weight=kd_weight,
            pseudo_labels=pseudo_labels,
            temperature=temperature,
        )

    # ------------------------------------------------------------------
    # knowledge extraction
    # ------------------------------------------------------------------
    def logits_on(self, x: np.ndarray) -> np.ndarray:
        """Model output logits on arbitrary inputs (e.g. the public set)."""
        return self.model.predict_logits(x)

    def compute_prototypes(self) -> np.ndarray:
        """Per-class mean feature vectors of the local training set (Eq. 5).

        Returns a ``(num_classes, feature_dim)`` array with NaN rows for
        classes absent from the local data.
        """
        feats = self.model.extract_features(self.x_train)
        # float32: prototypes go on the wire, and the wire is float32
        # (repro.nn.serialize.WIRE_DTYPE) — a float64 buffer doubles the
        # per-class memory for precision the channel discards anyway
        protos = np.full(
            (self.num_classes, self.model.feature_dim), np.nan, dtype=np.float32
        )
        for cls in self.present_classes():
            protos[cls] = feats[self.y_train == cls].mean(axis=0)
        return protos

    def public_knowledge(self, x: np.ndarray) -> Dict[str, np.ndarray]:
        """One uplink bundle: logits on ``x``, local prototypes, class counts.

        Bundling the three lets the runtime ship a client's entire dual-
        knowledge contribution (FedPKD's uplink) as a single task.
        """
        return {
            "logits": self.logits_on(x),
            "prototypes": self.compute_prototypes(),
            "class_counts": self.class_counts(),
        }

    # ------------------------------------------------------------------
    # evaluation
    # ------------------------------------------------------------------
    def evaluate(self) -> float:
        """Personalised accuracy on the local test set (paper ``C_acc``)."""
        return evaluate_accuracy(self.model, self.x_test, self.y_test)

    def evaluate_on(self, x: np.ndarray, y: np.ndarray) -> float:
        return evaluate_accuracy(self.model, x, y)
