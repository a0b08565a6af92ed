"""FedAvg (McMahan et al., 2017) — the classic parameter-averaging baseline.

Each round the server broadcasts the global weights, clients run local SGD
on private data, upload their weights, and the server replaces the global
model with the dataset-size-weighted average (Eq. 1).  Requires homogeneous
client/server architectures; the paper runs it with ResNet-20 everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from ..fl.client import FLClient
from ..fl.config import TrainingConfig
from ..fl.simulation import Federation, FederatedAlgorithm
from .model_averaging import weighted_average_states

__all__ = ["FedAvgConfig", "FedAvg"]


@dataclass
class FedAvgConfig:
    """Paper defaults: 10 local epochs, Adam, lr=1e-3, B=32."""

    local: TrainingConfig = field(
        default_factory=lambda: TrainingConfig(epochs=10, batch_size=32, lr=1e-3)
    )


class FedAvg(FederatedAlgorithm):
    name = "fedavg"

    def __init__(
        self, federation: Federation, config: Optional[FedAvgConfig] = None, seed: int = 0
    ) -> None:
        super().__init__(federation, seed=seed)
        if not federation.server.has_model:
            raise ValueError("FedAvg needs a server model to hold the global weights")
        self.config = config or FedAvgConfig()
        self._check_homogeneous()

    def _check_homogeneous(self) -> None:
        global_keys = set(self.server.model.state_dict())
        for client in self.clients:
            # lint: disable=comm-unmetered-exchange — construction-time
            # validation comparing key sets; no payload leaves the client.
            if set(client.model.state_dict()) != global_keys:
                raise ValueError(
                    "FedAvg requires identical architectures on every client "
                    "and the server"
                )

    def _local_training_kwargs(self, reference: Dict) -> Dict:
        """Hook overridden by FedProx to add the proximal term."""
        return {"config": self.config.local}

    def dispatch_state(self) -> Dict[str, np.ndarray]:
        return self.server.model.state_dict()

    def client_work(
        self, participants: List[FLClient], snapshot: Dict
    ) -> List[Dict[str, np.ndarray]]:
        for client in participants:
            self.channel.download(client.client_id, snapshot)
            client.model.load_state_dict(snapshot)
        self.map_clients(
            participants,
            "train_local",
            self._local_training_kwargs(snapshot),
            stage="local_train",
        )
        states = []
        for client in participants:
            state = client.model.state_dict()
            self.channel.upload(client.client_id, state)
            states.append(state)
        return states

    def server_update(
        self,
        contributions: List[Dict[str, np.ndarray]],
        client_weights: List[float],
        contributors: List[FLClient],
    ) -> Dict[str, float]:
        # Eq. 1 with each client's sample count scaled by its staleness
        # weight (exactly the sample count when the weight is 1.0)
        sizes = [
            client.num_samples * weight
            for client, weight in zip(contributors, client_weights)
        ]
        self.server.model.load_state_dict(
            weighted_average_states(contributions, sizes)
        )
        return {"participants": float(len(contributors))}
