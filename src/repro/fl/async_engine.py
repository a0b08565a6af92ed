"""Event-driven asynchronous round engine with staleness-aware aggregation.

The synchronous engine (:meth:`~repro.fl.simulation.FederatedAlgorithm.run`)
imposes a barrier: every participant must finish before the server moves.
One straggler therefore stalls the whole federation.  This module replaces
the barrier with an event loop over a **virtual clock**:

- Each *dispatch* hands one client a frozen snapshot of the server state
  (its *version*) and schedules an arrival event at
  ``clock + delay_factor``.  Delays come from the
  :class:`~repro.fl.failures.FaultPlan` (stragglers, seeded jitter), not
  from wall time — tests never sleep, and the event order is a pure
  function of the seed.
- Client work is computed **lazily when its arrival event pops**.  A
  contribution whose snapshot is more than ``max_staleness`` versions old
  is discarded *without being computed* — this is where the real
  wall-clock win over the barrier comes from.
- Contributions buffer until ``buffer_size`` of them have arrived (or the
  pipeline drains); the buffered batch is folded into the server with
  per-contribution staleness discounts ``alpha ** s`` (FedBuff-style; see
  :func:`repro.core.aggregation.staleness_discounted_aggregate`).  Each
  aggregation bumps the server version and counts as one round for
  evaluation/recording purposes.

**Degenerate-mode contract** — with ``max_staleness=0``, a full buffer
(``buffer_size=None``), and no fault plan, this engine replays exactly the
operation sequence of the synchronous engine and produces a bit-identical
:class:`~repro.fl.metrics.RunHistory` (modulo wall-time extras).  The
equivalence is CI-enforced; it holds because the engine shares the sync
loop's record path (``_collect_round_costs`` / ``_record_if_due``), the
participation sampler's draw order, and aggregation rules that short-
circuit to the undiscounted code when every weight is 1.0.

Algorithms opt in by setting ``supports_async = True`` and implementing
the three-method protocol (see :class:`~repro.core.fedpkd.FedPKD`):

- ``async_dispatch_state() -> dict`` — server state a dispatch trains
  against, frozen per version;
- ``async_client_work(participants, snapshot) -> contribution | None`` —
  one client's uplink payload (``None`` = runtime dropout);
- ``async_server_update(contributions, weights, contributors) -> extras``
  — fold one buffer into the server.

Checkpointing: the engine registers itself as ``algo.async_engine`` and
:mod:`repro.fl.checkpoint` persists its state (clock, version, in-flight
dispatches, buffered contributions, dispatch snapshots) alongside the
models, so an interrupted chaos run resumes bit-identically — fault draws
are stateless, so no extra RNG state is needed.  See docs/ASYNC.md.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from .failures import FaultPlan
from .metrics import RunHistory

__all__ = ["AsyncRoundEngine", "Dispatch", "EngineStalledError"]

#: Consecutive waves that dispatch zero clients (everyone churned out)
#: before the engine gives up instead of spinning.
_MAX_STALL_WAVES = 64


class EngineStalledError(RuntimeError):
    """The engine cannot make progress: no contribution can ever arrive
    (typically every client has left the cohort with no rejoining)."""


@dataclass
class Dispatch:
    """One in-flight unit of client work."""

    client_id: int
    version: int  # server version of the snapshot it trains against
    seq: int  # global dispatch counter (deterministic tie-break)
    arrival: float  # virtual-clock completion time


class AsyncRoundEngine:
    """Buffered-asynchronous round engine over a virtual clock.

    Parameters
    ----------
    algo:
        A :class:`~repro.fl.simulation.FederatedAlgorithm` with
        ``supports_async = True``.
    max_staleness:
        Contributions older than this many server versions at arrival are
        dropped (and never computed).  0 keeps only same-version work.
    staleness_alpha:
        Discount base: a contribution ``s`` versions old is aggregated
        with weight ``alpha ** s``.
    buffer_size:
        Aggregate once this many contributions have arrived; ``None``
        drains the whole pipeline first (full-barrier degenerate mode).
    fault_plan:
        ``None``, a :class:`~repro.fl.failures.FaultPlan`, a dict, or a
        JSON path (coerced via :meth:`FaultPlan.resolve`).
    """

    name = "async"

    def __init__(
        self,
        algo,
        max_staleness: int = 0,
        staleness_alpha: float = 0.5,
        buffer_size: Optional[int] = None,
        fault_plan=None,
    ) -> None:
        if not getattr(algo, "supports_async", False):
            raise ValueError(
                f"algorithm '{algo.name}' does not implement the async "
                "engine protocol (supports_async is not set)"
            )
        if max_staleness < 0:
            raise ValueError("max_staleness must be >= 0")
        if not 0.0 < staleness_alpha <= 1.0:
            raise ValueError(
                f"staleness_alpha must be in (0, 1], got {staleness_alpha}"
            )
        if buffer_size is not None and buffer_size < 1:
            raise ValueError(f"buffer_size must be >= 1, got {buffer_size}")
        self.algo = algo
        self.max_staleness = int(max_staleness)
        self.staleness_alpha = float(staleness_alpha)
        self.buffer_size = buffer_size
        self.plan = FaultPlan.resolve(fault_plan)
        # virtual-clock event state -------------------------------------
        self._clock = 0.0
        self._seq = 0
        self._version = int(algo.round_index)
        self._heap: List[Tuple[float, int, Dispatch]] = []
        self._in_flight: set = set()
        self._buffer: List[dict] = []
        # dispatch-time server snapshots, keyed by version and freed once
        # no in-flight dispatch references them
        self._snapshots: Dict[int, dict] = {}
        self._snapshot_refs: Dict[int, int] = {}
        # the checkpoint layer looks this attribute up by name
        algo.async_engine = self

    @classmethod
    def from_config(cls, algo, config) -> "AsyncRoundEngine":
        """Build the engine a :class:`~repro.fl.config.RunKnobs` carrier
        (a ``FederationConfig`` or an ``ExperimentSetting``) describes."""
        return cls(
            algo,
            max_staleness=config.max_staleness,
            staleness_alpha=config.staleness_alpha,
            buffer_size=config.buffer_size,
            fault_plan=config.fault_plan,
        )

    # ------------------------------------------------------------------
    # convenient handles
    # ------------------------------------------------------------------
    @property
    def version(self) -> int:
        """Completed aggregations (== ``algo.round_index`` between rounds)."""
        return self._version

    @property
    def clock(self) -> float:
        """Current virtual time (unit = one nominal client service time)."""
        return self._clock

    @property
    def in_flight(self) -> int:
        return len(self._heap)

    @property
    def _tracer(self):
        return self.algo.tracer

    @property
    def _metrics(self):
        return self.algo.metrics

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------
    def _take_snapshot_ref(self, version: int) -> None:
        if version not in self._snapshots:
            self._snapshots[version] = self.algo.async_dispatch_state()
            self._snapshot_refs[version] = 0
        self._snapshot_refs[version] += 1

    def _drop_snapshot_ref(self, version: int) -> dict:
        snapshot = self._snapshots[version]
        self._snapshot_refs[version] -= 1
        if self._snapshot_refs[version] <= 0:
            del self._snapshots[version]
            del self._snapshot_refs[version]
        return snapshot

    def _dispatch_wave(self) -> int:
        """Dispatch fresh work to every idle, available sampled client.

        Draws the participation sampler exactly once — the same RNG
        cadence as one synchronous round — so the degenerate mode sees
        identical participant sets.
        """
        algo = self.algo
        version = self._version
        dispatched = 0
        for cid in algo.federation.participation.sample():
            if cid in self._in_flight:
                continue  # still working against an older snapshot
            if algo.federation.client_train_size(cid) == 0:
                # empty derived shard: never dispatched, logged like the
                # sync engine's participation guard (O(1) under a
                # registry — no client is materialised to find out)
                algo.dropout_log.record(
                    algo.round_index + 1, cid, "async_dispatch", "empty_shard"
                )
                continue
            if self.plan is not None and not self.plan.available(cid, version):
                # churn: the client has left the cohort at this version
                algo.dropout_log.record(
                    algo.round_index + 1, cid, "async_dispatch", "injected_leave"
                )
                self._publish_fault("engine/churn", cid, version, "injected_leave")
                continue
            delay = (
                self.plan.delay_factor(cid, version)
                if self.plan is not None
                else 1.0
            )
            dispatch = Dispatch(
                client_id=cid,
                version=version,
                seq=self._seq,
                arrival=self._clock + delay,
            )
            self._seq += 1
            self._take_snapshot_ref(version)
            heapq.heappush(self._heap, (dispatch.arrival, dispatch.seq, dispatch))
            self._in_flight.add(cid)
            dispatched += 1
            if self.algo.obs.enabled:
                self._tracer.event(
                    "engine/dispatch",
                    scope="engine",
                    attrs={
                        "client_id": cid,
                        "version": version,
                        "arrival": dispatch.arrival,
                        "delay": delay,
                    },
                )
        if self._metrics.enabled:
            self._metrics.counter("engine/waves").inc()
        return dispatched

    # ------------------------------------------------------------------
    # arrivals
    # ------------------------------------------------------------------
    def _publish_fault(
        self, event: str, client_id: int, version: int, cause: str
    ) -> None:
        if self.algo.obs.enabled:
            self._tracer.event(
                event,
                scope="engine",
                attrs={"client_id": client_id, "version": version, "cause": cause},
            )
        if self._metrics.enabled:
            self._metrics.counter("engine/injected_faults").inc()

    def _process_next_event(self) -> None:
        """Pop the earliest arrival; compute its contribution lazily."""
        algo = self.algo
        arrival, _, dispatch = heapq.heappop(self._heap)
        self._clock = max(self._clock, arrival)
        self._in_flight.discard(dispatch.client_id)
        snapshot = self._drop_snapshot_ref(dispatch.version)
        staleness = self._version - dispatch.version
        cause = (
            self.plan.crash_cause(dispatch.client_id, dispatch.version)
            if self.plan is not None
            else None
        )
        if cause is not None:
            # the dispatch died mid-flight: no work, no contribution
            algo.dropout_log.record(
                algo.round_index + 1, dispatch.client_id, "async_work", cause
            )
            self._publish_fault(
                "engine/fault", dispatch.client_id, dispatch.version, cause
            )
            return
        if staleness > self.max_staleness:
            # too stale to use — and, because compute is lazy, never paid for
            if algo.obs.enabled:
                self._tracer.event(
                    "engine/stale_drop",
                    scope="engine",
                    attrs={
                        "client_id": dispatch.client_id,
                        "version": dispatch.version,
                        "staleness": staleness,
                    },
                )
            if self._metrics.enabled:
                self._metrics.counter("engine/dropped_contributions").inc()
            return
        participants = [algo.clients[dispatch.client_id]]
        contribution = algo.async_client_work(participants, snapshot)
        if contribution is None:
            # runtime dropout (already recorded via map_clients)
            return
        self._buffer.append(
            {
                "client_id": dispatch.client_id,
                "version": dispatch.version,
                "data": contribution,
            }
        )
        if staleness > 0 and self._metrics.enabled:
            self._metrics.counter("engine/stale_contributions").inc()

    # ------------------------------------------------------------------
    # aggregation
    # ------------------------------------------------------------------
    def _buffer_full(self) -> bool:
        return (
            self.buffer_size is not None
            and len(self._buffer) >= self.buffer_size
        )

    def _aggregate_buffer(self) -> Dict[str, float]:
        algo = self.algo
        weights = [
            float(self.staleness_alpha ** (self._version - entry["version"]))
            for entry in self._buffer
        ]
        extras = algo.async_server_update(
            [entry["data"] for entry in self._buffer],
            weights,
            [algo.clients[entry["client_id"]] for entry in self._buffer],
        )
        max_staleness_seen = max(
            self._version - entry["version"] for entry in self._buffer
        )
        extras = dict(extras or {})
        self._buffer = []
        self._version += 1
        if self._metrics.enabled:
            self._metrics.gauge("engine/version").set(self._version)
            self._metrics.gauge("engine/clock").set(self._clock)
            self._metrics.gauge("engine/max_staleness_aggregated").set(
                max_staleness_seen
            )
        return extras

    def _run_engine_round(self) -> Dict[str, float]:
        """Gather until the buffer triggers, aggregate once, refill."""
        stalls = 0
        while True:
            if not self._heap and not self._buffer:
                if self._dispatch_wave() == 0:
                    stalls += 1
                    if stalls > _MAX_STALL_WAVES:
                        raise EngineStalledError(
                            "async engine stalled: no dispatchable client in "
                            f"{stalls} consecutive waves at version "
                            f"{self._version} (did every client leave the "
                            "cohort with no rejoining?)"
                        )
                    continue
                stalls = 0
            while self._heap and not self._buffer_full():
                self._process_next_event()
            if self._buffer_full() or (self._buffer and not self._heap):
                break
            # pipeline drained with an empty buffer (everything crashed or
            # went stale) — dispatch again
        extras = self._aggregate_buffer()
        if self._metrics.enabled:
            self._metrics.gauge("engine/in_flight").set(len(self._heap))
        # keep the pipeline full for the next round: same sampler cadence
        # as the sync engine's per-round active_clients() draw
        self._dispatch_wave()
        return extras

    # ------------------------------------------------------------------
    # the run loop — mirrors FederatedAlgorithm.run() record-for-record
    # ------------------------------------------------------------------
    def run(
        self,
        rounds: int,
        eval_every: int = 1,
        history: Optional[RunHistory] = None,
        verbose: bool = False,
        checkpoint_every: Optional[int] = None,
        checkpoint_path: Optional[str] = None,
    ) -> RunHistory:
        """Run ``rounds`` aggregations, recording metrics.

        The signature, autosave behaviour, and record path are identical
        to :meth:`~repro.fl.simulation.FederatedAlgorithm.run` — a round
        here is one buffered aggregation.
        """
        algo = self.algo
        if checkpoint_every is None:
            checkpoint_every = getattr(algo.federation, "checkpoint_every", 0)
        if checkpoint_path is None:
            checkpoint_path = getattr(algo.federation, "checkpoint_path", None)
        autosave = bool(
            checkpoint_every and checkpoint_every > 0 and checkpoint_path
        )
        if autosave:
            from .checkpoint import save_checkpoint
        if history is None:
            history = RunHistory(
                algo.name, dataset=algo.bundle.name, config={"rounds": rounds}
            )
        tracer = algo.tracer
        with algo.obs.profile_session(), tracer.span(
            "run",
            scope="run",
            attrs={
                "algorithm": algo.name,
                "rounds": rounds,
                "eval_every": eval_every,
                "start_round": algo.round_index,
                "num_clients": algo.federation.num_clients,
                "executor": algo.executor.name,
                "engine": self.name,
                "max_staleness": self.max_staleness,
                "staleness_alpha": self.staleness_alpha,
                "buffer_size": self.buffer_size,
                "fault_plan": self.plan.describe() if self.plan else None,
            },
        ):
            for r in range(rounds):
                start = time.perf_counter()
                with tracer.span("round", scope="round") as round_span:
                    round_span.set_attr("round", algo.round_index + 1)
                    round_span.set_attr("engine", self.name)
                    extras = self._run_engine_round()
                algo.round_index += 1
                algo._collect_round_costs(time.perf_counter() - start)
                final_round = r == rounds - 1
                algo._record_if_due(
                    history, extras, final_round, eval_every, verbose
                )
                if autosave and (
                    final_round or algo.round_index % checkpoint_every == 0
                ):
                    save_checkpoint(algo, checkpoint_path, history=history)
                # round boundary: evict the registry's live set back to
                # its budget (in-flight dispatches hold no client refs —
                # arrival-time compute re-materialises on demand)
                algo.federation.settle_clients()
        algo.obs.publish_profile()
        algo.obs.export_metrics()
        return history

    # ------------------------------------------------------------------
    # exact-resume state (persisted by repro.fl.checkpoint)
    # ------------------------------------------------------------------
    def align_to(self, round_index: int) -> None:
        """Adopt a *sync* checkpoint's round counter.

        A sync checkpoint carries no pipeline, so resuming it under the
        async engine is exact as long as the engine starts empty at the
        checkpoint's version.
        """
        if self._heap or self._buffer:
            raise ValueError(
                "cannot align a non-empty async-engine pipeline to a sync "
                "checkpoint"
            )
        self._version = int(round_index)

    def state_dict(self) -> dict:
        """JSON-serialisable engine state (arrays go via state_arrays)."""
        return {
            "clock": float(self._clock),
            "seq": int(self._seq),
            "version": int(self._version),
            "in_flight": [
                {
                    "client_id": d.client_id,
                    "version": d.version,
                    "seq": d.seq,
                    "arrival": d.arrival,
                }
                for _, _, d in sorted(self._heap)
            ],
            "buffer": [
                {
                    "client_id": entry["client_id"],
                    "version": entry["version"],
                    "keys": sorted(entry["data"]),
                }
                for entry in self._buffer
            ],
            "snapshot_versions": sorted(self._snapshots),
            "config": {
                "max_staleness": self.max_staleness,
                "staleness_alpha": self.staleness_alpha,
                "buffer_size": self.buffer_size,
                "fault_plan": self.plan.to_dict() if self.plan else None,
            },
        }

    def state_arrays(self) -> Dict[str, np.ndarray]:
        """Buffered contributions and dispatch snapshots, as npz arrays."""
        arrays: Dict[str, np.ndarray] = {}
        for i, entry in enumerate(self._buffer):
            for key, value in entry["data"].items():
                arrays[f"buffer{i}::{key}"] = np.asarray(value)
        for version, snapshot in self._snapshots.items():
            for key, value in snapshot.items():
                if value is not None:
                    arrays[f"snapshot{version}::{key}"] = np.asarray(value)
        return arrays

    def load_state_dict(
        self, state: dict, arrays: Dict[str, np.ndarray]
    ) -> None:
        """Inverse of :meth:`state_dict` + :meth:`state_arrays`.

        Raises ``ValueError`` when the checkpoint was produced under
        different engine knobs — a silent mismatch would break the
        exact-resume contract (different buffer triggers, different
        discounts) without any visible error.
        """
        saved = state.get("config", {})
        live = {
            "max_staleness": self.max_staleness,
            "staleness_alpha": self.staleness_alpha,
            "buffer_size": self.buffer_size,
            "fault_plan": self.plan.to_dict() if self.plan else None,
        }
        for key, value in live.items():
            if key in saved and saved[key] != value:
                raise ValueError(
                    f"async-engine checkpoint mismatch: '{key}' was "
                    f"{saved[key]!r} at save time but is {value!r} now; "
                    "resume with the original engine configuration"
                )
        self._clock = float(state["clock"])
        self._seq = int(state["seq"])
        self._version = int(state["version"])
        self._heap = []
        self._in_flight = set()
        self._snapshots = {}
        self._snapshot_refs = {}
        for version in state.get("snapshot_versions", []):
            prefix = f"snapshot{version}::"
            self._snapshots[int(version)] = {
                key[len(prefix):]: value
                for key, value in arrays.items()
                if key.startswith(prefix)
            }
            self._snapshot_refs[int(version)] = 0
        for raw in state["in_flight"]:
            dispatch = Dispatch(
                client_id=int(raw["client_id"]),
                version=int(raw["version"]),
                seq=int(raw["seq"]),
                arrival=float(raw["arrival"]),
            )
            heapq.heappush(
                self._heap, (dispatch.arrival, dispatch.seq, dispatch)
            )
            self._in_flight.add(dispatch.client_id)
            if dispatch.version not in self._snapshot_refs:
                raise ValueError(
                    f"async-engine checkpoint is missing the version-"
                    f"{dispatch.version} snapshot its in-flight dispatches "
                    "reference"
                )
            self._snapshot_refs[dispatch.version] += 1
        self._buffer = []
        for i, raw in enumerate(state.get("buffer", [])):
            prefix = f"buffer{i}::"
            self._buffer.append(
                {
                    "client_id": int(raw["client_id"]),
                    "version": int(raw["version"]),
                    "data": {
                        key[len(prefix):]: value
                        for key, value in arrays.items()
                        if key.startswith(prefix)
                    },
                }
            )
