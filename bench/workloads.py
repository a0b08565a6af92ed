"""The six workloads, as run inside one child process.

Each workload is a function of a :class:`Context`: it builds its inputs
from ``ctx.seed``, calls ``ctx.ready()`` when the algorithm or scheduler
object exists (end of set-up, start of the timed section), runs through
public calls only, calls ``ctx.done()`` when the last history is back, and
then registers histories and correctness checks.  ``repro`` is reached
through module attributes (``harness.make_bundle``), never through names
bound here, so the traced rep's wrappers see every call.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import statistics
import time
from dataclasses import replace
from typing import Callable, Dict, List, Optional

from .schema import ALGORITHMS

#: pool size of parallel_clients and sweep_grid (the box has 2 cores)
WORKERS = 2


class SetupDone(Exception):
    """Raised by :meth:`Context.ready` in a set-up-only child."""


class Context:
    """One rep of one workload: inputs, clocks, and what was observed."""

    def __init__(
        self,
        seed: int,
        tmp: str,
        t0: float,
        smoke: bool = False,
        traced: bool = False,
        setup_only: bool = False,
    ) -> None:
        self.seed = seed
        self.tmp = tmp
        self.smoke = smoke
        self.traced = traced
        self.setup_only = setup_only
        self.t0 = t0
        self.t_ready: Optional[float] = None
        self.t_done: Optional[float] = None
        #: set by a workload whose reported wall is not ready -> done
        self.wall_s: Optional[float] = None
        self.histories: Dict[str, object] = {}
        self.checks: List[dict] = []
        self.ops_attempted = 0
        self.ops_failed = 0
        #: numbers that must repeat exactly for a seed
        self.counts: Dict[str, float] = {}
        #: workload-side clock readings (sweep phases, the serial run)
        self.timings: Dict[str, float] = {}

    # ------------------------------------------------------------------
    def obs(self, tag: str) -> dict:
        """Observability fields for a setting/config: the program's own
        profiler, tracer and metrics export, on in the traced rep only."""
        if not self.traced:
            return {}
        return {
            "profile": True,
            "trace_path": os.path.join(self.tmp, f"{tag}.trace.jsonl"),
            "metrics_path": os.path.join(self.tmp, f"{tag}.metrics.jsonl"),
        }

    def ready(self) -> None:
        self.t_ready = time.perf_counter()
        if self.setup_only:
            raise SetupDone()

    def done(self) -> None:
        self.t_done = time.perf_counter()

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append({"name": name, "ok": bool(ok), "detail": detail})

    def attempt(self, attempted: int, failed: int = 0) -> None:
        self.ops_attempted += attempted
        self.ops_failed += failed

    def guarded(self, label: str, rounds: int, fn: Callable[[], object]):
        """Run ``fn`` (``rounds`` federated rounds); an exception fails the
        rounds instead of the benchmark, so the ratio is still reported."""
        try:
            return fn()
        except Exception as exc:  # noqa: BLE001 - a failed operation is data
            self.attempt(rounds, rounds)
            self.check(f"{label}: runs", False, f"{type(exc).__name__}: {exc}")
            return None

    def add_history(self, label: str, history, rounds: int, channel=None) -> None:
        """Register a finished run: its rounds count as operations, a
        record with a non-finite value where the algorithm promises a
        finite one counts as a failed round."""
        from repro.algorithms import algorithm_supports

        self.histories[label] = history
        needs_server = algorithm_supports(history.algorithm, "server_model")
        needs_client = algorithm_supports(history.algorithm, "client_metric")
        bad = 0
        for record in history.records:
            # the algorithm's own extras; "scope/name" keys are registry
            # gauges, NaN by design where a model does not exist
            values = [v for k, v in record.extras.items() if "/" not in k]
            if needs_server:
                values.append(record.server_acc)
            if needs_client:
                values.append(record.mean_client_acc)
            if not all(math.isfinite(v) for v in values):
                bad += 1
        missing = max(0, rounds - len(history.records))
        self.attempt(rounds, bad + missing)
        if channel is not None:
            last = history.records[-1]
            ledger = last.comm_uplink_bytes + last.comm_downlink_bytes
            self.check(
                f"{label}: ledger equals channel",
                ledger == channel.total_bytes,
                f"{ledger} vs {channel.total_bytes}",
            )

    # ------------------------------------------------------------------
    def comm_bytes(self) -> int:
        return sum(
            h.records[-1].comm_uplink_bytes + h.records[-1].comm_downlink_bytes
            for h in self.histories.values()
            if h.records
        )

    def quality(self) -> dict:
        return {
            label: {
                "algorithm": h.algorithm,
                "rounds": len(h.records),
                "final_server_acc": _finite(h.final_server_acc),
                "final_client_acc": _finite(h.final_client_acc),
            }
            for label, h in sorted(self.histories.items())
        }

    def history_sha256(self) -> str:
        text = json.dumps(
            {label: canonical_history(h) for label, h in self.histories.items()},
            sort_keys=True,
        )
        return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _finite(value: float) -> Optional[float]:
    return float(value) if math.isfinite(value) else None


def canonical_history(history) -> str:
    """Canonical JSON of what a change that leaves arithmetic alone must
    reproduce (a string, so NaN accuracies compare equal to themselves)."""
    return json.dumps(
        [
            [r.server_acc, list(r.client_accs), r.comm_uplink_bytes,
             r.comm_downlink_bytes]
            for r in history.records
        ],
        separators=(",", ":"),
    )


# ----------------------------------------------------------------------
# fedpkd_mlp / fedpkd_conv
# ----------------------------------------------------------------------
def _fedpkd(ctx: Context, tag: str, setting, rounds: int, min_server_acc=None) -> None:
    from repro import algorithms
    from repro.experiments import harness

    bundle = harness.make_bundle(setting)
    federation = harness.federation_for(setting, "fedpkd", bundle)
    try:
        algo = algorithms.build_algorithm(
            "fedpkd", federation, seed=ctx.seed,
            epoch_scale=setting.scale_config().epoch_scale,
        )
        ctx.ready()
        history = ctx.guarded(tag, rounds, lambda: algo.run(rounds))
        ctx.done()
        if history is None:
            return
        ctx.add_history("fedpkd", history, rounds, federation.channel)
        if min_server_acc is not None:
            ctx.check(
                f"final S_acc >= {min_server_acc}",
                history.final_server_acc >= min_server_acc,
                f"S_acc={history.final_server_acc:.4f}",
            )
    finally:
        federation.close()


def fedpkd_mlp(ctx: Context) -> None:
    from repro.experiments import harness

    setting = harness.ExperimentSetting(
        dataset="cifar10", partition="dir0.1", heterogeneous=True,
        scale="small", seed=ctx.seed, **ctx.obs("fedpkd_mlp"),
    )
    # chance is 0.10; one smoke round cannot be held to the 4-round floor
    _fedpkd(ctx, "fedpkd_mlp", setting, rounds=1 if ctx.smoke else 4,
            min_server_acc=0.15 if ctx.smoke else 0.30)


def fedpkd_conv(ctx: Context) -> None:
    from repro.experiments import harness

    setting = harness.ExperimentSetting(
        dataset="cifar10", partition="dir0.1", heterogeneous=True,
        scale="tiny", seed=ctx.seed,
        scale_overrides={"model_family": "resnet", "epoch_scale": 0.05},
        **ctx.obs("fedpkd_conv"),
    )
    _fedpkd(ctx, "fedpkd_conv", setting, rounds=1 if ctx.smoke else 2)


# ----------------------------------------------------------------------
# fig5_cells
# ----------------------------------------------------------------------
def fig5_cells(ctx: Context) -> None:
    from repro.experiments import harness

    cells = [("cifar10", "shards3"), ("cifar100", "dir0.5")]
    if ctx.smoke:
        cells = cells[:1]
    rounds = harness.SCALES["tiny"].rounds
    ctx.ready()
    for dataset, partition in cells:
        setting = harness.ExperimentSetting(
            dataset=dataset, partition=partition, scale="tiny", seed=ctx.seed,
            **ctx.obs(f"fig5_{dataset}"),
        )
        results = ctx.guarded(
            f"fig5 {dataset}", rounds * len(ALGORITHMS),
            lambda: harness.compare_algorithms(setting, list(ALGORITHMS)),
        )
        for name, history in (results or {}).items():
            ctx.add_history(f"{dataset}/{name}", history, rounds)
    ctx.done()

    def mb(name: str) -> float:
        history = ctx.histories.get(f"cifar10/{name}")
        return history.records[-1].comm_total_mb if history else float("nan")

    ctx.check(
        "cifar10 comm ordering FedProto < FedPKD < FedAvg",
        mb("fedproto") < mb("fedpkd") < mb("fedavg"),
        f"{mb('fedproto'):.3f} / {mb('fedpkd'):.3f} / {mb('fedavg'):.3f} MB",
    )
    ctx.check(
        "FedAvg = FedProx = FedDF bytes",
        mb("fedavg") == mb("fedprox") == mb("feddf"),
        f"{mb('fedavg')} / {mb('fedprox')} / {mb('feddf')} MB",
    )


# ----------------------------------------------------------------------
# parallel_clients
# ----------------------------------------------------------------------
def parallel_clients(ctx: Context) -> None:
    from repro import algorithms
    from repro.experiments import harness

    rounds = 1 if ctx.smoke else 3
    overrides = {
        "num_clients": 16, "n_train": 6400, "n_test": 640, "n_public": 200,
        "epoch_scale": 0.2,
    }
    base = harness.ExperimentSetting(
        dataset="cifar10", partition="dir0.5", heterogeneous=True,
        scale="tiny", seed=ctx.seed, scale_overrides=overrides,
    )
    bundle = harness.make_bundle(base)
    runs = {}
    for executor in ("serial", "parallel"):
        setting = replace(
            base, executor=executor,
            max_workers=WORKERS if executor == "parallel" else None,
            **ctx.obs(f"parallel_clients_{executor}"),
        )
        federation = harness.federation_for(setting, "fedpkd", bundle)
        algo = algorithms.build_algorithm(
            "fedpkd", federation, seed=ctx.seed, epoch_scale=overrides["epoch_scale"]
        )
        runs[executor] = (federation, algo)
    try:
        ctx.ready()
        for executor, (federation, algo) in runs.items():
            start = time.perf_counter()
            history = ctx.guarded(executor, rounds, lambda: algo.run(rounds))
            ctx.timings[f"{executor}_wall_s"] = time.perf_counter() - start
            if history is not None:
                ctx.add_history(executor, history, rounds, federation.channel)
        ctx.done()
    finally:
        for federation, _ in runs.values():
            federation.close()
    ctx.wall_s = ctx.timings["parallel_wall_s"]
    ctx.timings["speedup_vs_serial"] = (
        ctx.timings["serial_wall_s"] / ctx.timings["parallel_wall_s"]
    )
    dropouts = sum(len(algo.dropout_log) for _, algo in runs.values())
    ctx.counts["task_failures"] = dropouts
    ctx.check("zero task failures", dropouts == 0, f"{dropouts} dropouts")
    if len(ctx.histories) == 2:
        ctx.check(
            "serial and parallel histories equal",
            canonical_history(ctx.histories["serial"])
            == canonical_history(ctx.histories["parallel"]),
        )


# ----------------------------------------------------------------------
# sweep_grid
# ----------------------------------------------------------------------
def sweep_grid(ctx: Context) -> None:
    from repro import sweep

    if ctx.smoke:
        algos, n_seeds, n_resume, n_resubmits = ["fedmd", "fedproto"], 2, 1, 5
    else:
        algos, n_seeds, n_resume, n_resubmits = ["fedpkd", "fedmd", "fedproto"], 3, 2, 50
    rounds = 3
    seeds = [ctx.seed * 1000 + i for i in range(n_seeds + 1)]
    out_root = os.path.join(ctx.tmp, "sweep")

    def submit(seed_list, phase):
        spec = sweep.SweepSpec.from_dict({
            "name": "bench-sweep",
            "base": {"scale": "tiny", "heterogeneous": True, "rounds": rounds},
            "axes": {"algorithm": algos, "seed": seed_list},
        })
        scheduler = sweep.SweepScheduler(
            spec, out_root=out_root, run_workers=WORKERS, trace=True,
            # the op profiler rides along in the traced rep's cells only
            runtime_overrides={"profile": True} if ctx.traced else None,
        )
        start = time.perf_counter()
        result = scheduler.run()
        elapsed = time.perf_counter() - start
        ctx.timings[f"{phase}_s"] = ctx.timings.get(f"{phase}_s", 0.0) + elapsed
        failed = result.counts()["failed"]
        ctx.attempt(len(result.outcomes), failed)
        return scheduler, result, elapsed

    ctx.ready()
    _, cold, _ = submit(seeds[:-1], "cold")
    scheduler, extended, _ = submit(seeds, "extend")
    reference = {o.run_key: o.history for o in extended.outcomes if o.history}
    for outcome in extended.outcomes[:n_resume]:
        # the crash window: the run finished and checkpointed, but died
        # before its history reached the cache
        os.remove(scheduler.cache.history_path(outcome.run_key))
    _, resumed, _ = submit(seeds, "resume")
    hit_seconds, hits = [], []
    for _ in range(n_resubmits):
        _, hit, elapsed = submit(seeds, "cached")
        hit_seconds.append(elapsed)
        hits.append(hit)
    ctx.done()

    ctx.timings["cache_hit_ms"] = 1000.0 * statistics.median(hit_seconds)
    for outcome in extended.outcomes:
        if outcome.history is not None:
            ctx.histories[outcome.label] = outcome.history
    n_cold, n_all = len(algos) * n_seeds, len(algos) * (n_seeds + 1)
    ctx.counts.update({
        "completed": cold.counts()["completed"] + extended.counts()["completed"],
        "resumed": resumed.counts()["resumed"],
        "cached": extended.counts()["cached"] + resumed.counts()["cached"]
        + sum(h.counts()["cached"] for h in hits),
        "failed": sum(r.counts()["failed"] for r in [cold, extended, resumed] + hits),
    })
    expected = {
        "completed": n_all, "resumed": n_resume,
        "cached": n_cold + (n_all - n_resume) + n_resubmits * n_all, "failed": 0,
    }
    ctx.check(
        "sweep status counts",
        all(ctx.counts[k] == v for k, v in expected.items())
        and cold.counts()["completed"] == n_cold,
        f"got {ctx.counts}, expected {expected}",
    )
    replayed = resumed.outcomes + hits[-1].outcomes
    ctx.check(
        "resumed and cached histories equal the cold ones",
        all(
            o.history is not None and o.run_key in reference
            and canonical_history(o.history) == canonical_history(reference[o.run_key])
            for o in replayed
        ),
    )


# ----------------------------------------------------------------------
# cohort_async
# ----------------------------------------------------------------------
COHORT_MAX_LIVE = 32


def cohort_async(ctx: Context) -> None:
    from repro import algorithms
    from repro.data import SyntheticImageTask
    from repro.fl import async_engine, config, simulation

    rounds = 10 if ctx.smoke else 100
    task = SyntheticImageTask(
        num_classes=4, image_shape=(1, 4, 4), latent_dim=4,
        class_separation=2.0, seed=ctx.seed, name="cohort",
    )
    bundle = task.make_bundle(n_train=60_000, n_test=400, n_public=100,
                              seed=ctx.seed + 1)
    fed_config = config.FederationConfig(
        num_clients=5000, partition=("iid", {}), client_models="mlp_small",
        server_model=None, feature_dim=8, seed=ctx.seed, clients_per_round=16,
        max_live_clients=COHORT_MAX_LIVE, eval_clients=64,
        **ctx.obs("cohort_async"),
    )
    federation = simulation.build_federation(bundle, fed_config)
    try:
        algo = algorithms.build_algorithm(
            "fedproto", federation, seed=ctx.seed, epoch_scale=0.1
        )
        engine = async_engine.AsyncRoundEngine(
            algo, max_staleness=2, staleness_alpha=0.5, buffer_size=12,
            fault_plan={"seed": 3, "faults": [
                {"kind": "straggler", "client_id": 5, "factor": 10.0},
                {"kind": "flaky", "client_id": 7, "fail_prob": 0.5},
            ]},
        )
        ctx.ready()
        history = ctx.guarded("cohort_async", rounds, lambda: engine.run(rounds))
        ctx.done()
        if history is None:
            return
        ctx.add_history("fedproto", history, rounds, federation.channel)
        stats = federation.registry.stats()
        ctx.counts.update({k: v for k, v in stats.items() if k != "num_clients"})
        # injected faults are expected dropouts, not failures
        ctx.counts["dropouts"] = len(algo.dropout_log)
        ctx.check(
            "live set within max_live_clients",
            stats["live"] <= COHORT_MAX_LIVE,
            f"live={stats['live']}",
        )
    finally:
        federation.close()


WORKLOAD_FUNCTIONS: Dict[str, Callable[[Context], None]] = {
    "fedpkd_mlp": fedpkd_mlp,
    "fedpkd_conv": fedpkd_conv,
    "fig5_cells": fig5_cells,
    "parallel_clients": parallel_clients,
    "sweep_grid": sweep_grid,
    "cohort_async": cohort_async,
}
