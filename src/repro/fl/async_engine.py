"""The round loop: an event engine over a virtual clock.

Every algorithm runs here (:meth:`~repro.fl.simulation.FederatedAlgorithm.run`
delegates to the engine the algorithm owns).  A round is one server
update, reached by an event loop:

- Each *dispatch* hands one sampled client a frozen snapshot of the
  server state (its *version*, from ``algo.dispatch_state()``) and
  schedules an arrival at ``clock + delay_factor``.  Delays come from the
  :class:`~repro.fl.failures.FaultPlan` (stragglers, seeded jitter), not
  from wall time — tests never sleep, and the event order is a pure
  function of the seed.
- Client work is computed **lazily when its arrival pops**.  Every
  arrival due at the same instant against the same version is one
  ``algo.client_work(participants, snapshot)`` batch, capped at the
  buffer's remaining room; crashed dispatches and contributions more than
  ``max_staleness`` versions old are skipped before the batch forms, so
  they are never computed.
- Contributions buffer until ``buffer_size`` of them have arrived (or the
  pipeline drains); ``algo.server_update(contributions, client_weights,
  contributors)`` then folds them in with per-contribution staleness
  discounts ``alpha ** s`` (FedBuff-style).  Each update bumps the server
  version and counts as one round for evaluation and recording.

**The full barrier** — ``max_staleness=0``, ``buffer_size=None`` and no
fault plan (``engine="sync"``): every sampled client arrives at the same
instant, so a round is one ``client_work`` call over all participants and
one ``server_update`` with all-ones weights, which every algorithm's
update rule reduces to its unweighted arithmetic.

Checkpointing: the engine registers itself as ``algo.engine`` and
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
        The :class:`~repro.fl.simulation.FederatedAlgorithm` to drive; the
        engine replaces ``algo.engine``.
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

    def __init__(
        self,
        algo,
        max_staleness: int = 0,
        staleness_alpha: float = 0.5,
        buffer_size: Optional[int] = None,
        fault_plan=None,
    ) -> None:
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
        # the previous round's update ends with a dispatch wave, run at the
        # start of the next round so its dropouts land in that round
        self._refill_due = False
        # the checkpoint layer looks this attribute up by name
        algo.engine = self

    @classmethod
    def from_config(cls, algo, config) -> "AsyncRoundEngine":
        """Build the engine a :class:`~repro.fl.config.RunKnobs` carrier
        (a ``FederationConfig`` or an ``ExperimentSetting``) describes;
        ``None`` or ``engine="sync"`` is the full barrier."""
        if config is None or config.engine == "sync":
            return cls(algo)
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
    def name(self) -> str:
        """``"sync"`` for the full barrier, else ``"async"`` (trace attrs)."""
        barrier = self.max_staleness == 0 and self.buffer_size is None
        return "sync" if barrier and self.plan is None else "async"

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
            self._snapshots[version] = self.algo.dispatch_state()
            self._snapshot_refs[version] = 0
        self._snapshot_refs[version] += 1

    def _drop_snapshot_ref(self, version: int) -> None:
        self._snapshot_refs[version] -= 1
        if self._snapshot_refs[version] <= 0:
            del self._snapshots[version]
            del self._snapshot_refs[version]

    def _dispatch_wave(self) -> int:
        """Dispatch fresh work to every idle, available sampled client.

        Draws the participation sampler exactly once per wave, so a
        full-barrier run draws it once per round.  A client skipped here
        is logged against the round its dispatch would have joined.
        """
        algo = self.algo
        version = self._version
        dispatched = 0
        for cid in algo.federation.participation.sample():
            if cid in self._in_flight:
                continue  # still working against an older snapshot
            if algo.federation.client_train_size(cid) == 0:
                # empty derived shard (the by_classes partitioner can hand
                # one out): never dispatched, logged as a dropout — O(1)
                # under a registry, no client is materialised to find out
                algo.dropout_log.record(
                    version + 1, cid, "async_dispatch", "empty_shard"
                )
                continue
            if self.plan is not None and not self.plan.available(cid, version):
                # churn: the client has left the cohort at this version
                algo.dropout_log.record(
                    version + 1, cid, "async_dispatch", "injected_leave"
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

    def _usable(self, dispatch: Dispatch) -> bool:
        """Whether a popped arrival is worth computing: a crashed dispatch
        or an over-stale one is logged and skipped."""
        cause = (
            self.plan.crash_cause(dispatch.client_id, dispatch.version)
            if self.plan is not None
            else None
        )
        if cause is not None:
            # the dispatch died mid-flight: no work, no contribution
            self.algo.dropout_log.record(
                self._version + 1, dispatch.client_id, "async_work", cause
            )
            self._publish_fault(
                "engine/fault", dispatch.client_id, dispatch.version, cause
            )
            return False
        staleness = self._version - dispatch.version
        if staleness > self.max_staleness:
            # too stale to use — and, because compute is lazy, never paid for
            if self.algo.obs.enabled:
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
            return False
        return True

    def _process_arrivals(self) -> None:
        """Pop every arrival due at the earliest instant against one
        version, up to the buffer's remaining room, and compute the usable
        ones as one ``client_work`` batch."""
        algo = self.algo
        arrival, _, head = self._heap[0]
        version = head.version
        snapshot = self._snapshots[version]
        room = (
            None
            if self.buffer_size is None
            else self.buffer_size - len(self._buffer)
        )
        self._clock = max(self._clock, arrival)
        batch: List[int] = []
        while self._heap and (room is None or len(batch) < room):
            due, _, dispatch = self._heap[0]
            if due != arrival or dispatch.version != version:
                break
            heapq.heappop(self._heap)
            self._in_flight.discard(dispatch.client_id)
            self._drop_snapshot_ref(version)
            if self._usable(dispatch):
                batch.append(dispatch.client_id)
        if not batch:
            return
        participants = [algo.clients[cid] for cid in batch]
        # runtime dropouts shrink participants in place (map_clients)
        contributions = algo.client_work(participants, snapshot)
        for client, contribution in zip(participants, contributions):
            self._buffer.append(
                {
                    "client_id": client.client_id,
                    "version": version,
                    "data": contribution,
                }
            )
        if self._version > version and self._metrics.enabled:
            self._metrics.counter("engine/stale_contributions").inc(
                len(contributions)
            )

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
        extras = algo.server_update(
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
        """Refill, gather until the buffer triggers, aggregate once."""
        if self._refill_due:
            # keep the pipeline full: one wave per completed update
            self._refill_due = False
            self._dispatch_wave()
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
                self._process_arrivals()
            if self._buffer_full() or (self._buffer and not self._heap):
                break
            # pipeline drained with an empty buffer (everything crashed or
            # went stale) — dispatch again
        extras = self._aggregate_buffer()
        if self._metrics.enabled:
            self._metrics.gauge("engine/in_flight").set(len(self._heap))
        self._refill_due = True
        return extras

    # ------------------------------------------------------------------
    # the run loop (FederatedAlgorithm.run delegates here)
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
        """Run ``rounds`` server updates, recording metrics; see
        :meth:`~repro.fl.simulation.FederatedAlgorithm.run` for the
        evaluation, autosave and observability behaviour."""
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
        """Adopt the round counter of a checkpoint without engine state.

        Such a checkpoint (the layout written before every algorithm ran
        under this engine) was taken at a round barrier with nothing in
        flight, so resuming it under any knobs is exact as long as the
        engine starts empty at the checkpoint's version.
        """
        if self._heap or self._buffer:
            raise ValueError(
                "cannot align a non-empty engine pipeline to a checkpoint "
                "without engine state"
            )
        self._version = int(round_index)

    def state_dict(self) -> dict:
        """JSON-serialisable engine state (arrays go via state_arrays)."""
        return {
            "clock": float(self._clock),
            "seq": int(self._seq),
            "version": int(self._version),
            "refill_due": self._refill_due,
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
        """Buffered contributions and dispatch snapshots, as blob arrays."""
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
        self._refill_due = bool(state.get("refill_due", False))
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
