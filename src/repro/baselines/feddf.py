"""FedDF (Lin et al., 2020): ensemble distillation for robust model fusion.

Round structure: broadcast global weights → clients train locally → upload
weights → server computes the FedAvg average **and** fine-tunes it by
distilling the client *ensemble*'s averaged predictions on the unlabelled
public set.  Because weights are exchanged, client and server architectures
must match (the paper runs ResNet-20 everywhere for FedDF).

The server already holds every client's weights after the upload, so it can
evaluate the ensemble on the public set without extra communication; in
this simulation it reads the (identical) weights straight from the client
models.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from ..core.aggregation import staleness_discounted_aggregate
from ..fl.client import FLClient
from ..fl.config import TrainingConfig
from ..fl.simulation import Federation
from ..runtime import PUBLIC_X
from .fedavg import FedAvg

__all__ = ["FedDFConfig", "FedDF"]


@dataclass
class FedDFConfig:
    """Paper defaults for FedDF: 30 local epochs, 5 server epochs."""

    local: TrainingConfig = field(
        default_factory=lambda: TrainingConfig(epochs=30, batch_size=32, lr=1e-3)
    )
    server: TrainingConfig = field(
        default_factory=lambda: TrainingConfig(epochs=5, batch_size=32, lr=1e-3)
    )
    kd_weight: float = 1.0  # FedDF distils with pure KL on the public set
    temperature: float = 1.0


class FedDF(FedAvg):
    name = "feddf"

    def __init__(
        self, federation: Federation, config: Optional[FedDFConfig] = None, seed: int = 0
    ) -> None:
        super().__init__(federation, config=None, seed=seed)
        self.config = config or FedDFConfig()

    def server_update(
        self,
        contributions: List[Dict[str, np.ndarray]],
        client_weights: List[float],
        contributors: List[FLClient],
    ) -> Dict[str, float]:
        cfg = self.config
        # Fusion step 1: parameter averaging (initialisation of the fusion).
        super().server_update(contributions, client_weights, contributors)
        # Fusion step 2: ensemble distillation on the public set.  The
        # server evaluates each uploaded client model; no extra transfer.
        participants = list(contributors)
        weight_of = {
            client.client_id: weight
            for client, weight in zip(contributors, client_weights)
        }
        # lint: disable=comm-unmetered-exchange — the server evaluates the
        # client weights uploaded (and metered) in client_work.
        logits_list = self.map_clients(
            participants, "logits_on", {"x": PUBLIC_X}, stage="public_logits"
        )
        ensemble = staleness_discounted_aggregate(
            logits_list,
            [weight_of[client.client_id] for client in participants],
            mode="equal",
        )
        with self.tracer.span(
            "server_distill",
            scope="server",
            attrs={"clients": len(participants), "epochs": cfg.server.epochs},
        ) as span:
            loss = self.server.train_distill(
                self.public_x,
                ensemble,
                cfg.server,
                kd_weight=cfg.kd_weight,
                temperature=cfg.temperature,
            )
            span.set_attr("loss", loss)
        self.tracer.event(
            "feddf/distill",
            scope="server",
            attrs={"loss": loss, "public_samples": len(self.public_x)},
        )
        if self.metrics.enabled:
            self.metrics.gauge("feddf/server_loss").set(loss)
        return {"participants": float(len(participants)), "server_loss": loss}
