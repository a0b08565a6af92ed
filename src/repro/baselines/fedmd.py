"""FedMD (Li & Wang, 2019): heterogeneous FL via logit consensus.

There is no server model.  Each round clients train locally, send their
logits on the public set, the server averages them into a consensus, and
every client *digests* the consensus by distilling toward it on the public
set before the next round's local (*revisit*) training.
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

__all__ = ["FedMDConfig", "FedMD", "LogitUplink"]


class LogitUplink:
    """The client half of a logit-sharing round (FedMD, DS-FL, NaiveKD):
    local training on private data (``self.config.local``), then logits
    on the public set, uploaded.  Clients need no server state."""

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
        for client, logits in zip(participants, logits_list):
            self.channel.upload(client.client_id, {"logits": logits})
        return [{"logits": logits} for logits in logits_list]


@dataclass
class FedMDConfig:
    """Paper defaults: 10 local epochs, 20 digest epochs."""

    local: TrainingConfig = field(
        default_factory=lambda: TrainingConfig(epochs=10, batch_size=32, lr=1e-3)
    )
    digest: TrainingConfig = field(
        default_factory=lambda: TrainingConfig(epochs=20, batch_size=32, lr=1e-3)
    )
    kd_weight: float = 1.0  # pure distillation toward the consensus
    temperature: float = 1.0


class FedMD(LogitUplink, FederatedAlgorithm):
    name = "fedmd"

    def __init__(
        self, federation: Federation, config: Optional[FedMDConfig] = None, seed: int = 0
    ) -> None:
        super().__init__(federation, seed=seed)
        self.config = config or FedMDConfig()

    def server_update(
        self,
        contributions: List[Dict[str, np.ndarray]],
        client_weights: List[float],
        contributors: List[FLClient],
    ) -> Dict[str, float]:
        cfg = self.config
        consensus = staleness_discounted_aggregate(
            [c["logits"] for c in contributions], client_weights, mode="equal"
        )
        participants = list(contributors)
        for client in participants:
            self.channel.download(client.client_id, {"consensus": consensus})
        self.map_clients(
            participants,
            "train_public_distill",
            {
                "x_public": PUBLIC_X,
                "teacher_logits": consensus,
                "config": cfg.digest,
                "kd_weight": cfg.kd_weight,
                "temperature": cfg.temperature,
            },
            stage="digest",
        )
        return {"participants": float(len(participants))}
