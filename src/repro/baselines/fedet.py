"""FedET (Cho et al., 2022): ensemble knowledge transfer to a large server.

Small heterogeneous client models train locally and upload their *weights*;
the server forms a weighted ensemble of their predictions on the public set
(confidence-weighted, like FedET's variance-based weighting) and distils it
into a larger server model.  The server's knowledge then flows back to the
clients as logits on the public set.

As the paper notes, FedET's communication overhead is dominated by the
model-parameter uploads; this implementation reproduces that accounting.
The server already holds each client's uploaded weights, so ensemble
evaluation reads the client models directly without extra transfer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from ..core.aggregation import staleness_discounted_aggregate
from ..fl.client import FLClient
from ..fl.config import TrainingConfig
from ..fl.simulation import Federation, FederatedAlgorithm
from ..runtime import PUBLIC_X

__all__ = ["FedETConfig", "FedET"]


@dataclass
class FedETConfig:
    """Paper defaults for FedET: 10 local epochs, 10 server epochs."""

    local: TrainingConfig = field(
        default_factory=lambda: TrainingConfig(epochs=10, batch_size=32, lr=1e-3)
    )
    server: TrainingConfig = field(
        default_factory=lambda: TrainingConfig(epochs=10, batch_size=32, lr=1e-3)
    )
    public: TrainingConfig = field(
        default_factory=lambda: TrainingConfig(epochs=5, batch_size=32, lr=1e-3)
    )
    kd_weight: float = 0.5
    temperature: float = 1.0


class FedET(FederatedAlgorithm):
    name = "fedet"

    def __init__(
        self, federation: Federation, config: Optional[FedETConfig] = None, seed: int = 0
    ) -> None:
        super().__init__(federation, seed=seed)
        if not federation.server.has_model:
            raise ValueError("FedET requires a (large) server model")
        self.config = config or FedETConfig()

    def dispatch_state(self) -> Dict[str, Optional[np.ndarray]]:
        return {}

    def client_work(
        self, participants: List[FLClient], snapshot: Dict
    ) -> List[Dict[str, np.ndarray]]:
        self.map_clients(
            participants,
            "train_local",
            {"config": self.config.local},
            stage="local_train",
        )
        logits_list = self.map_clients(
            participants, "logits_on", {"x": PUBLIC_X}, stage="public_logits"
        )
        for client in participants:
            # FedET uploads model parameters (the expensive part).
            self.channel.upload(client.client_id, client.model.state_dict())
        return [{"logits": logits} for logits in logits_list]

    def server_update(
        self,
        contributions: List[Dict[str, np.ndarray]],
        client_weights: List[float],
        contributors: List[FLClient],
    ) -> Dict[str, float]:
        cfg = self.config
        ensemble = staleness_discounted_aggregate(
            [c["logits"] for c in contributions], client_weights, mode="variance"
        )
        pseudo = ensemble.argmax(axis=1)
        loss = self.server.train_distill(
            self.public_x,
            ensemble,
            cfg.server,
            kd_weight=cfg.kd_weight,
            pseudo_labels=pseudo,
            temperature=cfg.temperature,
        )
        server_logits = self.server.logits_on(self.public_x)
        participants = list(contributors)
        for client in participants:
            self.channel.download(client.client_id, {"server_logits": server_logits})
        self.map_clients(
            participants,
            "train_public_distill",
            {
                "x_public": PUBLIC_X,
                "teacher_logits": server_logits,
                "config": cfg.public,
                "kd_weight": cfg.kd_weight,
                "temperature": cfg.temperature,
            },
            stage="public_train",
        )
        return {"participants": float(len(participants)), "server_loss": loss}
