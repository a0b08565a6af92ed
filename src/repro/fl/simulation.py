"""Federation construction and the algorithm interface.

:func:`build_federation` turns a data bundle plus a
:class:`~repro.fl.config.FederationConfig` into concrete clients and a
server.  :class:`FederatedAlgorithm` is the base class every algorithm
(FedPKD and the eight baselines) derives from: subclasses implement the
three round phases and the round engine
(:class:`~repro.fl.async_engine.AsyncRoundEngine`) handles dispatch,
evaluation, communication snapshots, failure injection, and history
recording.
"""

from __future__ import annotations

import abc
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..data.datasets import FederatedDataBundle
from ..data.partition import (
    partition_by_classes,
    partition_dirichlet,
    partition_iid,
    partition_shards,
)
from ..nn.models import build_model
from ..obs import Observability
from ..runtime import Executor, make_executor
from .async_engine import AsyncRoundEngine
from .channel import CommChannel
from .client import FLClient
from .config import FederationConfig
from .failures import DropoutLog, ParticipationSampler
from .metrics import RoundRecord, RunHistory, nan_mean
from .registry import ClientRegistry
from .server import FLServer

__all__ = ["build_federation", "Federation", "FederatedAlgorithm"]


class Federation:
    """Clients + server + channel (+ executor) for one experiment.

    ``clients`` is the :class:`~repro.fl.registry.ClientRegistry`
    :func:`build_federation` constructs: a Sequence that derives clients
    lazily, with a bounded live set when ``max_live_clients`` is set.
    ``registry`` names the same object.  ``config`` is the
    :class:`~repro.fl.config.FederationConfig` it was built from; the
    round engine, autosave and sampled evaluation read their knobs there.
    """

    def __init__(
        self,
        config: FederationConfig,
        clients: ClientRegistry,
        server: FLServer,
        bundle: FederatedDataBundle,
        channel: CommChannel,
        participation: ParticipationSampler,
        executor: Executor,
        obs: Observability,
    ) -> None:
        self.config = config
        self.clients = clients
        self.registry = clients
        self.server = server
        self.bundle = bundle
        self.channel = channel
        self.participation = participation
        # observability must exist before bind(): executors read it there
        self.obs = obs
        self.channel.attach_metrics(self.obs.metrics)
        self.registry.attach_metrics(self.obs.metrics)
        self.executor = executor.bind(self)

    @property
    def num_clients(self) -> int:
        return len(self.clients)

    @property
    def public_x(self) -> np.ndarray:
        return self.bundle.public

    def eval_client_ids(self, round_index: int) -> Sequence[int]:
        """Ids evaluated for the ``C_acc`` metric at ``round_index``.

        With ``eval_clients`` set, a per-round sample drawn from a
        *stateless* seeded generator keyed on ``(seed + 7000, round)`` — no
        RNG stream to checkpoint, and a resumed run replays the identical
        sample (the FaultPlan idiom).
        """
        sample = self.config.eval_clients
        if sample is None or sample >= self.num_clients:
            return range(self.num_clients)
        rng = np.random.default_rng((self.config.seed + 7000, int(round_index)))
        ids = rng.choice(self.num_clients, size=sample, replace=False)
        return [int(cid) for cid in np.sort(ids)]

    def close(self) -> None:
        """Release executor, registry/spill-store, and observability."""
        self.executor.close()
        self.registry.close()
        self.obs.close()


def _partition_indices(bundle: FederatedDataBundle, config: FederationConfig):
    kind, kwargs = config.partition
    if kind == "iid":
        return partition_iid(bundle.train, config.num_clients, seed=config.seed)
    if kind == "dirichlet":
        return partition_dirichlet(
            bundle.train, config.num_clients, seed=config.seed, **kwargs
        )
    if kind == "shards":
        return partition_shards(
            bundle.train, config.num_clients, seed=config.seed, **kwargs
        )
    if kind == "by_classes":
        return partition_by_classes(bundle.train, seed=config.seed, **kwargs)
    raise ValueError(f"unknown partition kind '{kind}'")


def build_federation(
    bundle: FederatedDataBundle, config: FederationConfig
) -> Federation:
    """Register clients lazily (a :class:`ClientRegistry`) and build the server.

    Clients are *registered*, not materialised: the registry derives each
    ``FLClient`` on first touch from the identical per-client seeds the
    historical eager builder used, so any derived client — and therefore
    any run — is bit-identical to the eager construction.  With
    ``max_live_clients`` set, at most that many materialised clients carry
    across rounds; mutated state spills to the registry's append-only log.
    """
    parts = _partition_indices(bundle, config)
    model_cycle = (
        [config.client_models]
        if isinstance(config.client_models, str)
        else list(config.client_models)
    )
    if not model_cycle:
        raise ValueError("client_models list is empty")
    registry = ClientRegistry(
        bundle,
        parts,
        model_cycle,
        feature_dim=config.feature_dim,
        test_fraction=config.local_test_fraction,
        base_seed=config.seed,
        max_live=config.max_live_clients,
        spill_dir=config.spill_dir,
    )
    server_model = None
    if config.server_model is not None:
        server_model = build_model(
            config.server_model,
            bundle.num_classes,
            bundle.image_shape,
            feature_dim=config.feature_dim,
            rng=config.seed + 4000,
        )
    server = FLServer(server_model, seed=config.seed + 5000)
    participation = ParticipationSampler(
        num_clients=len(registry),
        dropout_prob=config.dropout_prob,
        seed=config.seed + 6000,
        clients_per_round=config.clients_per_round,
    )
    return Federation(
        config,
        registry,
        server,
        bundle,
        CommChannel(),
        participation,
        executor=make_executor(config),
        obs=Observability.from_config(config),
    )


class FederatedAlgorithm(abc.ABC):
    """Base class of every FL algorithm: one round is three phases.

    - :meth:`dispatch_state` — the server state a client trains against,
      frozen per server version;
    - :meth:`client_work` — the clients' local work against that snapshot,
      returning one uplink contribution per client;
    - :meth:`server_update` — fold a buffer of contributions into the
      server, each weighted by its staleness discount.

    The round engine the algorithm owns from construction
    (``self.engine``, built from the federation's config) calls them;
    :meth:`run` delegates to it.  Use ``self.federation`` for
    clients/server/public data and ``self.channel`` for every transfer.
    Per-client stages go through :meth:`map_clients`, which routes them to
    the federation's executor (serial or parallel) and turns irrecoverable
    worker faults into per-round dropouts.

    State an algorithm carries from one round to the next (outside the
    models) is declared by name in :attr:`carried_state`; checkpoints hold
    exactly those attributes.  Once the engine's first round starts,
    rebinding any other attribute raises ``AttributeError``, so state a
    resume would lose cannot be written.
    """

    name = "base"
    #: Attributes a round may rebind; :meth:`extra_state` exports them.
    carried_state: Tuple[str, ...] = ()
    #: The base's own per-round names: the engine (a resume may rebuild
    #: it) and the round counter.
    _ROUND_ATTRS = frozenset({"engine", "round_index"})
    _sealed = False

    def __init__(self, federation: Federation, seed: int = 0) -> None:
        self.federation = federation
        self.rng = np.random.default_rng(seed)
        self.round_index = 0
        self.obs = federation.obs
        self.dropout_log = DropoutLog(metrics=self.obs.metrics)
        # registers itself as self.engine
        AsyncRoundEngine.from_config(self, federation.config)

    def __setattr__(self, name: str, value) -> None:
        if (
            self._sealed
            and name not in self._ROUND_ATTRS
            and name not in self.carried_state
        ):
            raise AttributeError(
                f"{type(self).__name__}.{name} is rebound during a run but is "
                f"not declared in carried_state, so a checkpoint would not "
                f"carry it"
            )
        object.__setattr__(self, name, value)

    def _seal(self) -> None:
        """Allow only :attr:`carried_state` and the base's per-round names
        to be rebound from now on (the engine calls this as a run starts)."""
        object.__setattr__(self, "_sealed", True)

    # convenient aliases -------------------------------------------------
    @property
    def clients(self) -> ClientRegistry:
        return self.federation.clients

    @property
    def server(self) -> FLServer:
        return self.federation.server

    @property
    def channel(self) -> CommChannel:
        return self.federation.channel

    @property
    def bundle(self) -> FederatedDataBundle:
        return self.federation.bundle

    @property
    def public_x(self) -> np.ndarray:
        return self.federation.public_x

    @property
    def executor(self) -> Executor:
        return self.federation.executor

    @property
    def tracer(self):
        return self.obs.tracer

    @property
    def metrics(self):
        return self.obs.metrics

    def map_clients(
        self,
        participants: List[FLClient],
        method: str,
        kwargs: Optional[Dict] = None,
        stage: Optional[str] = None,
    ) -> List:
        """Run ``method(**kwargs)`` on every participant via the executor.

        Returns the per-client return values in participant order.  A
        client whose task irrecoverably fails (timeout / repeated worker
        death under the parallel executor) is removed from
        ``participants`` *in place* — so later phases of the same round
        naturally skip it — and recorded in :attr:`dropout_log`; the
        returned values align with the surviving participants.
        """
        if not participants:
            return []
        values, failures = self.executor.run_stage(
            participants, method, kwargs, stage=stage
        )
        if failures:
            failed_ids = {f.client_id for f in failures}
            participants[:] = [
                c for c in participants if c.client_id not in failed_ids
            ]
            for failure in failures:
                self.dropout_log.record(
                    self.round_index + 1, failure.client_id, failure.stage,
                    failure.reason,
                )
        return values

    # ------------------------------------------------------------------
    # the round contract
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def dispatch_state(self) -> Dict[str, Optional[np.ndarray]]:
        """Server state a dispatch trains against, as a flat dict of arrays
        (``None`` for "not yet").  The engine takes one per server version
        and checkpoints it, so it must be a copy, not a live view."""

    @abc.abstractmethod
    def client_work(
        self, participants: List[FLClient], snapshot: Dict
    ) -> List[Dict[str, np.ndarray]]:
        """Run the clients' round against ``snapshot`` and meter their
        uplink; return one flat dict of arrays per client.

        ``participants`` shrinks in place when a client drops at runtime
        (:meth:`map_clients`); the result aligns with the survivors.
        """

    @abc.abstractmethod
    def server_update(
        self,
        contributions: List[Dict[str, np.ndarray]],
        client_weights: List[float],
        contributors: List[FLClient],
    ) -> Dict[str, float]:
        """Fold one buffer of contributions into the server (one round);
        return the round's extra metrics.

        ``client_weights[i]`` discounts contribution ``i`` for staleness
        (``alpha ** s``); with every weight 1.0 the rule must reduce to the
        algorithm's unweighted arithmetic exactly.
        """

    # ------------------------------------------------------------------
    # algorithm-specific cross-round state (exact-resume checkpointing)
    # ------------------------------------------------------------------
    def extra_state(self) -> Dict[str, np.ndarray]:
        """The :attr:`carried_state` attributes that are set, as arrays."""
        return {
            name: np.asarray(getattr(self, name))
            for name in self.carried_state
            if getattr(self, name) is not None
        }

    def load_extra_state(self, state: Dict[str, np.ndarray]) -> None:
        """Inverse of :meth:`extra_state`."""
        for name in self.carried_state:
            if name in state:
                setattr(self, name, np.asarray(state[name]).copy())

    def evaluate_server(self) -> float:
        with self.obs.profile_model("server"):
            return self.server.evaluate(self.bundle.test.x, self.bundle.test.y)

    def evaluate_clients(self) -> List[float]:
        """Per-client ``C_acc`` — over everyone, or the federation's seeded
        per-round sample when ``eval_clients`` caps the evaluation cost.
        Clients with an empty local test set report NaN."""
        ids = self.federation.eval_client_ids(self.round_index)
        prof = self.obs.profiler
        registry = self.federation.registry
        if prof is None:
            return [registry.peek(cid).evaluate() for cid in ids]
        accs = []
        for cid in ids:
            client = registry.peek(cid)
            with prof.model(client.model_name):
                accs.append(client.evaluate())
        return accs

    # ------------------------------------------------------------------
    # round bookkeeping (called by the engine's run loop)
    # ------------------------------------------------------------------
    def _record_if_due(
        self,
        history: RunHistory,
        extras: Dict[str, float],
        final_round: bool,
        eval_every: int,
        verbose: bool = False,
    ) -> None:
        """Evaluate and append a :class:`RoundRecord` at eval boundaries.

        Its ``runtime_dropouts`` counts the dropout log's clients over the
        rounds the record covers (see :class:`RunHistory`).
        """
        if not (final_round or self.round_index % eval_every == 0):
            return
        tracer = self.tracer
        snap = self.channel.mark_round()
        extras = dict(extras)
        since = (
            history.records[-1].round_index if history.records
            else history.start_round
        )
        dropouts = sum(
            self.dropout_log.count_for_round(r)
            for r in range(since + 1, self.round_index + 1)
        )
        if dropouts:
            extras.setdefault("runtime_dropouts", float(dropouts))
        with self.obs.profile_stage("eval"), tracer.span(
            "eval", scope="stage", attrs={"round": self.round_index}
        ) as eval_span:
            server_acc = self.evaluate_server()
            client_accs = self.evaluate_clients()
            eval_span.set_attr("server_acc", server_acc)
        if self.metrics.enabled:
            self.metrics.gauge("run/server_acc").set(server_acc)
            # NaN-aware: empty-test-set clients report NaN and must not
            # poison (or, as 0.0 once did, silently drag down) the mean
            self.metrics.gauge("run/mean_client_acc").set(nan_mean(client_accs))
            self.metrics.gauge("run/round_index").set(self.round_index)
            for key, value in self.metrics.snapshot().items():
                extras.setdefault(key, value)
        record = RoundRecord(
            round_index=self.round_index,
            server_acc=server_acc,
            client_accs=client_accs,
            comm_uplink_bytes=snap.uplink,
            comm_downlink_bytes=snap.downlink,
            extras=extras,
        )
        history.append(record)
        tracer.event(
            "round_record",
            scope="round",
            attrs={
                "round": record.round_index,
                "server_acc": record.server_acc,
                "mean_client_acc": record.mean_client_acc,
                "comm_mb": record.comm_total_mb,
            },
        )
        self.obs.export_metrics()
        if verbose:
            print(
                f"[{self.name}] round {self.round_index}: "
                f"S_acc={record.server_acc:.3f} "
                f"C_acc={record.mean_client_acc:.3f} "
                f"comm={record.comm_total_mb:.2f}MB"
            )

    def run(
        self,
        rounds: int,
        eval_every: int = 1,
        history: Optional[RunHistory] = None,
        verbose: bool = False,
        checkpoint_every: Optional[int] = None,
        checkpoint_path: Optional[str] = None,
    ) -> RunHistory:
        """Run ``rounds`` communication rounds, recording metrics.

        Evaluation happens every ``eval_every`` rounds and always on the
        final round.  An existing ``history`` may be passed to continue a
        run (a resumed run passes the history restored from the
        checkpoint).

        ``checkpoint_every`` / ``checkpoint_path`` enable autosave: every
        that-many rounds (and on the final round) the full training state —
        including ``history`` so far — is written atomically to
        ``checkpoint_path`` via :func:`repro.fl.checkpoint.save_checkpoint`.
        Both default to the federation's configured values
        (:class:`~repro.fl.config.FederationConfig`).  ``checkpoint_every``
        need not align with ``eval_every``: a record's runtime dropouts
        are counted from the checkpointed dropout log.

        When observability is enabled (``FederationConfig(trace_path=...)``
        or ``metrics_path=...``), each round and evaluation is traced as a
        span and the metrics-registry snapshot is merged into every
        record's ``extras``.

        The rounds themselves are the engine's (``self.engine``; the full
        barrier unless the federation's config sets an async knob).
        """
        return self.engine.run(
            rounds,
            eval_every=eval_every,
            history=history,
            verbose=verbose,
            checkpoint_every=checkpoint_every,
            checkpoint_path=checkpoint_path,
        )
