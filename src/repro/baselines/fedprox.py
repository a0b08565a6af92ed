"""FedProx (Li et al., 2020): FedAvg plus a proximal term for heterogeneity.

Identical round structure to FedAvg; local training minimises
``CE + (mu/2) * ||w - w_global||^2``, damping client drift under non-IID
data and systems heterogeneity.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from ..fl.config import TrainingConfig
from ..fl.simulation import Federation
from .fedavg import FedAvg

__all__ = ["FedProxConfig", "FedProx"]


@dataclass
class FedProxConfig:
    """Paper defaults plus the standard mu=0.01 proximal coefficient."""

    local: TrainingConfig = field(
        default_factory=lambda: TrainingConfig(epochs=10, batch_size=32, lr=1e-3)
    )
    mu: float = 0.01

    def __post_init__(self) -> None:
        if self.mu < 0:
            raise ValueError(f"mu must be non-negative, got {self.mu}")


class FedProx(FedAvg):
    name = "fedprox"

    def __init__(
        self, federation: Federation, config: Optional[FedProxConfig] = None, seed: int = 0
    ) -> None:
        self.prox_config = config or FedProxConfig()
        super().__init__(federation, config=None, seed=seed)
        # FedAvg.__init__ set self.config to a FedAvgConfig; replace with ours
        # (both expose ``.local``, which is all FedAvg.client_work reads).
        self.config = self.prox_config

    def _local_training_kwargs(self, reference: Dict) -> Dict:
        return {
            "config": self.config.local,
            "prox_mu": self.prox_config.mu,
            "prox_reference": reference,
        }
