"""FedPKD — the paper's Algorithm 2, end to end.

One communication round:

1. **Client local training** — Eq. 4 in the first round; Eq. 16 (cross-
   entropy + ε·prototype MSE against last round's global prototypes) after.
2. **Dual knowledge transfer (uplink)** — each client sends its logits on
   the public set and its local per-class prototypes (plus class counts
   needed for the Eq. 8 weighting).
3. **Server aggregation** — variance-weighted logit ensemble (Eqs. 6–7),
   overlap-aware prototype aggregation (Eq. 8).
4. **Prototype-based data filtering** — Algorithm 1 keeps the θ fraction of
   each pseudo-class closest to its global prototype.
5. **Prototype-based ensemble distillation** — the server model trains on
   the filtered subset with δ·(KL+CE) + (1−δ)·prototype-MSE (Eqs. 11–13).
6. **Server knowledge transfer (downlink)** — server logits on the filtered
   subset, the subset's indices, and the global prototypes go to clients.
7. **Client public training** — Eq. 15: γ·KL + (1−γ)·CE against the server's
   pseudo-labels (Eq. 14) on the filtered subset.

Every transfer is metered through the federation's
:class:`~repro.fl.channel.CommChannel`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from ..fl.client import FLClient
from ..fl.compression import roundtrip
from ..fl.config import TrainingConfig
from ..fl.simulation import Federation, FederatedAlgorithm
from ..runtime import PUBLIC_X
from .aggregation import staleness_discounted_aggregate, variance_weights
from .distillation import prototype_ensemble_distill
from .filtering import FilterResult, prototype_filter, random_filter
from .prototypes import merge_prototypes, aggregate_prototypes, prototype_coverage

__all__ = ["FedPKDConfig", "FedPKD"]


@dataclass
class FedPKDConfig:
    """Hyper-parameters of FedPKD (paper Sec. V-A defaults).

    The ablation switches map to Fig. 8's arms: ``server_prototype_loss``
    off reproduces *w/o Pro*; ``use_filtering`` off reproduces *w/o D.F.*.
    ``aggregation`` and ``filter_mode`` support the extra ablations in
    DESIGN.md.
    """

    local: TrainingConfig = field(
        default_factory=lambda: TrainingConfig(epochs=15, batch_size=32, lr=1e-3)
    )
    public: TrainingConfig = field(
        default_factory=lambda: TrainingConfig(epochs=10, batch_size=32, lr=1e-3)
    )
    server: TrainingConfig = field(
        default_factory=lambda: TrainingConfig(epochs=40, batch_size=32, lr=1e-3)
    )
    select_ratio: float = 0.7  # θ
    delta: float = 0.5  # server loss mix (Eq. 13)
    epsilon: float = 0.5  # client prototype regulariser (Eq. 16)
    gamma: float = 0.5  # client public-training mix (Eq. 15)
    temperature: float = 1.0
    # "variance" (Eq. 6-7), "equal" (Eq. 3), or "entropy" (future-work
    # extension: scale-invariant confidence weighting)
    aggregation: str = "variance"
    use_filtering: bool = True
    filter_mode: str = "prototype"  # "prototype" (Alg. 1) or "random" (ablation)
    # Extension (paper future work): keep the full public set for the first
    # N rounds, while the server's feature space is still untrained, then
    # switch to θ-filtering.  0 reproduces the paper exactly.
    filter_warmup_rounds: int = 0
    server_prototype_loss: bool = True  # off = Fig. 8 "w/o Pro"
    client_prototype_loss: bool = True  # Eq. 16's ε term
    # Extension: lossy wire format for logits ("float32" = paper-exact,
    # "float16" or "int8" trade negligible accuracy for 2-4x less traffic).
    logit_compression: str = "float32"

    def __post_init__(self) -> None:
        if not 0.0 < self.select_ratio <= 1.0:
            raise ValueError(f"select_ratio must be in (0, 1], got {self.select_ratio}")
        for name in ("delta", "epsilon", "gamma"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        if self.aggregation not in ("variance", "equal", "entropy"):
            raise ValueError(f"unknown aggregation '{self.aggregation}'")
        if self.filter_mode not in ("prototype", "random"):
            raise ValueError(f"unknown filter_mode '{self.filter_mode}'")
        if self.filter_warmup_rounds < 0:
            raise ValueError("filter_warmup_rounds must be >= 0")
        from ..fl.compression import SCHEMES

        if self.logit_compression not in SCHEMES:
            raise ValueError(
                f"unknown logit_compression '{self.logit_compression}'; "
                f"choose from {SCHEMES}"
            )


class FedPKD(FederatedAlgorithm):
    """Prototype-based knowledge distillation FL (the paper's contribution)."""

    name = "fedpkd"
    carried_state = ("global_prototypes",)

    def __init__(
        self, federation: Federation, config: Optional[FedPKDConfig] = None, seed: int = 0
    ) -> None:
        super().__init__(federation, seed=seed)
        if not federation.server.has_model:
            raise ValueError("FedPKD requires a server model")
        self.config = config or FedPKDConfig()
        self.global_prototypes: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    # round phases
    # ------------------------------------------------------------------
    def _client_local_phase(
        self, participants: List[FLClient], prototypes: Optional[np.ndarray]
    ) -> None:
        cfg = self.config
        use_protos = (
            cfg.client_prototype_loss
            and prototypes is not None
            and cfg.epsilon > 0.0
        )
        self.map_clients(
            participants,
            "train_local",
            {
                "config": cfg.local,
                "prototypes": prototypes if use_protos else None,
                "prototype_weight": cfg.epsilon if use_protos else 0.0,
            },
            stage="local_train",
        )

    def _collect_dual_knowledge(self, participants: List[FLClient]):
        """Uplink: logits on the public set + prototypes + class counts."""
        knowledge = self.map_clients(
            participants,
            "public_knowledge",
            {"x": PUBLIC_X},
            stage="public_knowledge",
        )
        logits_list, protos_list, counts_list = [], [], []
        for client, bundle in zip(participants, knowledge):
            # the server sees the (possibly lossy) wire version
            logits, wire_logits = roundtrip(
                bundle["logits"], self.config.logit_compression
            )
            protos = bundle["prototypes"]
            counts = bundle["class_counts"]
            present = prototype_coverage(protos)
            self.channel.upload(
                client.client_id,
                {
                    "logits": wire_logits,
                    "prototypes": protos[present],
                    "class_counts": counts,
                },
            )
            logits_list.append(logits)
            protos_list.append(protos)
            counts_list.append(counts)
        return logits_list, protos_list, counts_list

    def _aggregate(
        self, logits_list, protos_list, counts_list, client_weights
    ) -> np.ndarray:
        cfg = self.config
        # staleness discounts (alpha ** s) scale the Eq. 6-7 (or ablation)
        # mixing weights; with every weight 1.0 this is the exact
        # undiscounted rule
        aggregated = staleness_discounted_aggregate(
            logits_list, client_weights, mode=cfg.aggregation
        )
        new_protos = aggregate_prototypes(
            protos_list, counts_list, client_weights=client_weights
        )
        self.global_prototypes = merge_prototypes(new_protos, self.global_prototypes)
        if self.tracer.enabled:
            attrs = {"mode": cfg.aggregation, "clients": len(logits_list)}
            if cfg.aggregation == "variance":
                # how contested the ensemble is: spread of the Eq. 7 mixing
                # weights across clients, summarised per pseudo-class
                weights = variance_weights(logits_list)  # (C, S)
                per_sample_var = weights.var(axis=0)  # (S,)
                pseudo = aggregated.argmax(axis=1)
                attrs["mean_weight_var"] = float(per_sample_var.mean())
                attrs["per_class_weight_var"] = [
                    float(per_sample_var[pseudo == k].mean())
                    if bool((pseudo == k).any())
                    else float("nan")
                    for k in range(aggregated.shape[1])
                ]
            self.tracer.event("fedpkd/aggregate", scope="server", attrs=attrs)
        return aggregated

    def _filter(self, aggregated: np.ndarray) -> FilterResult:
        cfg = self.config
        num_public = len(self.public_x)
        in_warmup = self.round_index < cfg.filter_warmup_rounds
        if not cfg.use_filtering or in_warmup:
            pseudo = aggregated.argmax(axis=1).astype(np.int64)
            result = FilterResult(
                selected=np.arange(num_public, dtype=np.int64),
                pseudo_labels=pseudo,
                distances=np.full(num_public, np.nan),
            )
            mode = "none"
        elif cfg.filter_mode == "random":
            result = random_filter(num_public, aggregated, cfg.select_ratio, self.rng)
            mode = "random"
        else:
            features = self.server.model.extract_features(self.public_x)
            result = prototype_filter(
                features, aggregated, self.global_prototypes, cfg.select_ratio
            )
            mode = "prototype"
        self._publish_filter(result, num_public, mode, in_warmup)
        return result

    def _publish_filter(
        self, result: FilterResult, num_public: int, mode: str, in_warmup: bool
    ) -> None:
        """Trace/meter one Algorithm-1 pass (no-op when obs is disabled)."""
        if not self.obs.enabled:
            return
        accepted = int(result.num_selected)
        rejected = num_public - accepted
        self.tracer.event(
            "fedpkd/filter",
            scope="server",
            attrs={
                "mode": mode,
                "warmup": in_warmup,
                "accepted": accepted,
                "rejected": rejected,
                "num_public": num_public,
            },
        )
        if self.metrics.enabled:
            self.metrics.counter("fedpkd/filter_accepted").inc(accepted)
            self.metrics.counter("fedpkd/filter_rejected").inc(rejected)

    def _server_phase(
        self, aggregated: np.ndarray, result: FilterResult
    ) -> float:
        cfg = self.config
        prototypes = self.global_prototypes if cfg.server_prototype_loss else None
        with self.obs.profile_stage("server_distill"), self.obs.profile_model(
            "server"
        ), self.tracer.span(
            "server_distill",
            scope="server",
            attrs={
                "num_selected": int(result.num_selected),
                "epochs": cfg.server.epochs,
            },
        ) as span:
            loss = prototype_ensemble_distill(
                self.server.model,
                self.public_x[result.selected],
                aggregated[result.selected],
                result.pseudo_labels,
                prototypes,
                cfg.delta,
                cfg.server,
                self.server.rng,
                temperature=cfg.temperature,
            )
            span.set_attr("loss", loss)
        if self.metrics.enabled:
            self.metrics.gauge("fedpkd/server_loss").set(loss)
        return loss

    def _client_public_phase(
        self, participants: List[FLClient], result: FilterResult
    ) -> None:
        cfg = self.config
        x_subset = self.public_x[result.selected]
        server_logits = self.server.model.predict_logits(x_subset)
        # clients receive the (possibly lossy) wire version
        server_logits, wire_logits = roundtrip(server_logits, cfg.logit_compression)
        covered = prototype_coverage(self.global_prototypes)
        payload = {
            "server_logits": wire_logits,
            "selected_indices": result.selected.astype(np.float32),
            "global_prototypes": self.global_prototypes[covered],
        }
        pseudo = server_logits.argmax(axis=1)  # Eq. 14
        for client in participants:
            self.channel.download(client.client_id, payload)
        self.map_clients(
            participants,
            "train_public_distill",
            {
                "x_public": x_subset,
                "teacher_logits": server_logits,
                "config": cfg.public,
                "kd_weight": cfg.gamma,
                "pseudo_labels": pseudo,
                "temperature": cfg.temperature,
            },
            stage="public_train",
        )

    # ------------------------------------------------------------------
    # the round: steps 1-2 per client, steps 3-7 on the server
    # ------------------------------------------------------------------
    def dispatch_state(self) -> Dict[str, Optional[np.ndarray]]:
        protos = self.global_prototypes
        return {
            "global_prototypes": None if protos is None else protos.copy()
        }

    def client_work(
        self, participants: List[FLClient], snapshot: Dict
    ) -> List[Dict[str, np.ndarray]]:
        self._client_local_phase(participants, snapshot.get("global_prototypes"))
        logits_list, protos_list, counts_list = self._collect_dual_knowledge(
            participants
        )
        return [
            {"logits": logits, "prototypes": protos, "class_counts": counts}
            for logits, protos, counts in zip(logits_list, protos_list, counts_list)
        ]

    def server_update(
        self,
        contributions: List[Dict[str, np.ndarray]],
        client_weights: List[float],
        contributors: List[FLClient],
    ) -> Dict[str, float]:
        aggregated = self._aggregate(
            [c["logits"] for c in contributions],
            [c["prototypes"] for c in contributions],
            [c["class_counts"] for c in contributions],
            client_weights,
        )
        result = self._filter(aggregated)
        server_loss = self._server_phase(aggregated, result)
        self._client_public_phase(list(contributors), result)
        return {
            "server_loss": server_loss,
            "num_selected": float(result.num_selected),
            "proto_coverage": float(prototype_coverage(self.global_prototypes).mean()),
        }
