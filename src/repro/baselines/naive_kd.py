"""The plain KD-based FL method from the paper's motivation (Sec. II-B).

Clients train locally, upload logits on the public set, the server equal-
averages them (Eq. 3) and distils the average into the server model with no
prototypes, filtering, or quality weighting.  This is the "KD-based method"
of Fig. 1 and the reference point FedPKD improves on.
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
from .fedmd import LogitUplink

__all__ = ["NaiveKDConfig", "NaiveKD"]


@dataclass
class NaiveKDConfig:
    local: TrainingConfig = field(
        default_factory=lambda: TrainingConfig(epochs=10, batch_size=32, lr=1e-3)
    )
    server: TrainingConfig = field(
        default_factory=lambda: TrainingConfig(epochs=20, batch_size=32, lr=1e-3)
    )
    public: TrainingConfig = field(
        default_factory=lambda: TrainingConfig(epochs=5, batch_size=32, lr=1e-3)
    )
    kd_weight: float = 1.0
    distill_to_clients: bool = True


class NaiveKD(LogitUplink, FederatedAlgorithm):
    name = "naive_kd"

    def __init__(
        self, federation: Federation, config: Optional[NaiveKDConfig] = None, seed: int = 0
    ) -> None:
        super().__init__(federation, seed=seed)
        if not federation.server.has_model:
            raise ValueError("NaiveKD distils into a server model; none was built")
        self.config = config or NaiveKDConfig()

    def server_update(
        self,
        contributions: List[Dict[str, np.ndarray]],
        client_weights: List[float],
        contributors: List[FLClient],
    ) -> Dict[str, float]:
        cfg = self.config
        aggregated = staleness_discounted_aggregate(
            [c["logits"] for c in contributions], client_weights, mode="equal"
        )
        loss = self.server.train_distill(
            self.public_x, aggregated, cfg.server, kd_weight=cfg.kd_weight
        )
        participants = list(contributors)
        if cfg.distill_to_clients:
            server_logits = self.server.logits_on(self.public_x)
            for client in participants:
                self.channel.download(
                    client.client_id, {"server_logits": server_logits}
                )
            self.map_clients(
                participants,
                "train_public_distill",
                {
                    "x_public": PUBLIC_X,
                    "teacher_logits": server_logits,
                    "config": cfg.public,
                    "kd_weight": cfg.kd_weight,
                },
                stage="public_train",
            )
        return {"participants": float(len(participants)), "server_loss": loss}
