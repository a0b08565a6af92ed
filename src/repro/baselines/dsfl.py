"""DS-FL (Itahara et al., 2020): distillation FL with entropy reduction.

Same skeleton as FedMD (no server model, logit exchange on an unlabelled
public set), but the server sharpens the averaged client predictions with
Entropy Reduction Aggregation (ERA) before broadcasting, which counteracts
the flat, low-confidence consensus that non-IID clients produce.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from ..core.aggregation import entropy_reduction_aggregate
from ..fl.client import FLClient
from ..fl.config import TrainingConfig
from ..fl.simulation import Federation, FederatedAlgorithm
from ..runtime import PUBLIC_X
from .fedmd import LogitUplink

__all__ = ["DSFLConfig", "DSFL"]


@dataclass
class DSFLConfig:
    """Paper defaults: 10 local epochs, 20 distillation epochs, ERA T=0.1."""

    local: TrainingConfig = field(
        default_factory=lambda: TrainingConfig(epochs=10, batch_size=32, lr=1e-3)
    )
    digest: TrainingConfig = field(
        default_factory=lambda: TrainingConfig(epochs=20, batch_size=32, lr=1e-3)
    )
    era_temperature: float = 0.1
    kd_weight: float = 1.0


class DSFL(LogitUplink, FederatedAlgorithm):
    name = "dsfl"

    def __init__(
        self, federation: Federation, config: Optional[DSFLConfig] = None, seed: int = 0
    ) -> None:
        super().__init__(federation, seed=seed)
        self.config = config or DSFLConfig()

    def server_update(
        self,
        contributions: List[Dict[str, np.ndarray]],
        client_weights: List[float],
        contributors: List[FLClient],
    ) -> Dict[str, float]:
        cfg = self.config
        consensus = entropy_reduction_aggregate(
            [c["logits"] for c in contributions],
            temperature=cfg.era_temperature,
            client_weights=client_weights,
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
            },
            stage="digest",
        )
        return {"participants": float(len(participants))}
