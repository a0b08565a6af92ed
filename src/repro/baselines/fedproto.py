"""FedProto (Tan et al., 2021): federated prototype learning.

Discussed in the paper's related work: clients exchange **only prototypes**
— no model weights, no logits, no public dataset.  Each round clients train
locally with CE plus a regulariser pulling features toward the global
prototypes, upload their per-class prototypes, and the server aggregates
them (data-size weighted) and broadcasts the result.  There is no server
model, so only the personalised client metric applies; communication per
round is a few KB, the cheapest of all methods here.

FedPKD subsumes this prototype loop (its Eq. 16 matches FedProto's local
objective) and adds the logit/distillation pathway on top; having FedProto
as a baseline isolates what the prototypes alone contribute.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from ..core.prototypes import aggregate_prototypes, merge_prototypes, prototype_coverage
from ..fl.client import FLClient
from ..fl.config import TrainingConfig
from ..fl.simulation import Federation, FederatedAlgorithm

__all__ = ["FedProtoConfig", "FedProto"]


@dataclass
class FedProtoConfig:
    local: TrainingConfig = field(
        default_factory=lambda: TrainingConfig(epochs=10, batch_size=32, lr=1e-3)
    )
    # weight of the prototype regulariser in the local objective
    proto_weight: float = 1.0

    def __post_init__(self) -> None:
        if self.proto_weight < 0:
            raise ValueError("proto_weight must be non-negative")


class FedProto(FederatedAlgorithm):
    name = "fedproto"
    carried_state = ("global_prototypes",)

    def __init__(
        self, federation: Federation, config: Optional[FedProtoConfig] = None, seed: int = 0
    ) -> None:
        super().__init__(federation, seed=seed)
        self.config = config or FedProtoConfig()
        self.global_prototypes: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    # round phases
    # ------------------------------------------------------------------
    def _local_phase(
        self, participants: List[FLClient], prototypes: Optional[np.ndarray]
    ) -> None:
        cfg = self.config
        use_protos = prototypes is not None and cfg.proto_weight > 0
        self.map_clients(
            participants,
            "train_local",
            {
                "config": cfg.local,
                "prototypes": prototypes if use_protos else None,
                "prototype_weight": cfg.proto_weight if use_protos else 0.0,
            },
            stage="local_train",
        )

    def _collect_prototypes(self, participants: List[FLClient]):
        protos_list = self.map_clients(
            participants, "compute_prototypes", stage="prototypes"
        )
        counts_list = []
        for client, protos in zip(participants, protos_list):
            counts = client.class_counts()
            present = prototype_coverage(protos)
            self.channel.upload(
                client.client_id,
                {"prototypes": protos[present], "class_counts": counts},
            )
            counts_list.append(counts)
        return protos_list, counts_list

    def _trace_drift(self, new_protos: np.ndarray) -> None:
        if not (self.tracer.enabled and self.global_prototypes is not None):
            return
        # round-over-round movement of the global prototypes: mean L2
        # over the classes finite in both the old and new tables
        old, new = self.global_prototypes, new_protos
        both = prototype_coverage(old) & prototype_coverage(new)
        drift = (
            float(np.linalg.norm(new[both] - old[both], axis=1).mean())
            if both.any()
            else float("nan")
        )
        self.tracer.event(
            "fedproto/prototype_drift",
            scope="server",
            attrs={"drift_l2": drift, "classes_compared": int(both.sum())},
        )

    def _merge_and_broadcast(
        self, new_protos: np.ndarray, participants: List[FLClient]
    ) -> np.ndarray:
        self._trace_drift(new_protos)
        self.global_prototypes = merge_prototypes(new_protos, self.global_prototypes)
        covered = prototype_coverage(self.global_prototypes)
        payload = {"global_prototypes": self.global_prototypes[covered]}
        for client in participants:
            self.channel.download(client.client_id, payload)
        return covered

    # ------------------------------------------------------------------
    # the round
    # ------------------------------------------------------------------
    def dispatch_state(self) -> Dict[str, Optional[np.ndarray]]:
        protos = self.global_prototypes
        return {"global_prototypes": None if protos is None else protos.copy()}

    def client_work(
        self, participants: List[FLClient], snapshot: Dict
    ) -> List[Dict[str, np.ndarray]]:
        self._local_phase(participants, snapshot.get("global_prototypes"))
        protos_list, counts_list = self._collect_prototypes(participants)
        return [
            {"prototypes": protos, "class_counts": counts}
            for protos, counts in zip(protos_list, counts_list)
        ]

    def server_update(
        self,
        contributions: List[Dict[str, np.ndarray]],
        client_weights: List[float],
        contributors: List[FLClient],
    ) -> Dict[str, float]:
        # a stale client's sample counts are discounted by its weight;
        # all-ones weights are the unweighted rule bit-for-bit
        new_protos = aggregate_prototypes(
            [c["prototypes"] for c in contributions],
            [c["class_counts"] for c in contributions],
            client_weights=client_weights,
        )
        covered = self._merge_and_broadcast(new_protos, list(contributors))
        return {
            "participants": float(len(contributors)),
            "proto_coverage": float(covered.mean()),
        }
