#!/usr/bin/env python
"""Throughput trajectory benchmark: substrate ops/sec plus one FL round.

Measures three levels of the stack with ``time.perf_counter``:

- ``conv2d``        — one forward conv over a NCHW batch (the autograd
  engine's hottest kernel);
- ``matmul``        — a square Tensor matmul (the dense-layer primitive);
- ``fedpkd_round``  — one full FedPKD round at the ``tiny`` scale
  (local training, logit exchange, filtering, aggregation, distillation).

plus two robustness scenarios:

- ``straggler``     — one FedPKD round with one client injected to run
  10x slower than its peers, under the synchronous barrier engine vs the
  asynchronous buffered engine (``--scenario straggler``).  The barrier
  waits for the straggler; the async engine aggregates the fast clients
  and — because arrival-time compute is lazy — never even computes the
  straggler's work.  The acceptance bar is async < 0.5x the sync
  wall-clock.
- ``cohort``        — a 100k-client FedProto federation on the lazy
  client registry (``--scenario cohort``): 16 sampled participants per
  round, a 32-client live cap with spill-to-disk, sampled evaluation.
  The acceptance bar is that every round's peak traced allocation stays
  under a fixed ceiling — O(cohort) memory, not O(N) — asserted here
  and enforced by the ``cohort-smoke`` CI job.

plus a ``profile`` section: one *separately federated* FedPKD round run
under the op-level profiler (``repro.obs.profile``), recording where the
round's time actually goes (top ops per stage).  The timing reps above
stay unprofiled so the ops/sec trajectory is never perturbed by hook
overhead.

Writes the numbers as ``BENCH_9.json`` so successive PRs can compare the
end-to-end trajectory, not just micro-kernels:

    PYTHONPATH=src python scripts/bench_trajectory.py --out BENCH_9.json

Compare two snapshots (CI's perf gate) with::

    PYTHONPATH=src python -m repro trace compare BENCH_9.json \
        --baseline BENCH_8.json --threshold 0.5

The per-suite pytest-benchmark file (benchmarks/test_substrate_perf.py)
stays the fine-grained regression gate; this script is the coarse
snapshot committed alongside the PR.
"""

import argparse
import json
import platform
import time

import numpy as np

import repro
from repro.algorithms import build_algorithm
from repro.experiments.harness import ExperimentSetting, federation_for
from repro.nn import Tensor
from repro.nn import functional as F


def bench(fn, min_seconds=0.5, min_reps=3):
    """Repeat ``fn`` until both floors are met; return timing stats."""
    fn()  # warm-up (cold caches, first-touch allocations)
    reps = 0
    start = time.perf_counter()
    elapsed = 0.0
    while reps < min_reps or elapsed < min_seconds:
        fn()
        reps += 1
        elapsed = time.perf_counter() - start
    return {
        "reps": reps,
        "seconds": round(elapsed, 4),
        "ops_per_sec": round(reps / elapsed, 4),
    }


def bench_conv2d():
    rng = np.random.default_rng(0)
    x = Tensor(rng.normal(size=(16, 3, 16, 16)))
    weight = Tensor(rng.normal(size=(16, 3, 3, 3)))
    return bench(lambda: F.conv2d(x, weight, stride=1, padding=1))


def bench_matmul():
    rng = np.random.default_rng(1)
    a = Tensor(rng.normal(size=(256, 256)))
    b = Tensor(rng.normal(size=(256, 256)))
    return bench(lambda: a @ b)


def bench_fedpkd_round():
    setting = ExperimentSetting(scale="tiny", seed=0)
    federation = federation_for(setting, "fedpkd")
    try:
        algo = build_algorithm(
            "fedpkd",
            federation,
            seed=setting.seed,
            epoch_scale=setting.scale_config().epoch_scale,
        )
        # each rep advances training one round; throughput is what matters
        return bench(lambda: algo.run(1), min_seconds=1.0, min_reps=3)
    finally:
        federation.close()


SLOW_FACTOR = 10.0


def _timed_round(runner):
    start = time.perf_counter()
    runner.run(1)
    return time.perf_counter() - start


def _make_algo(setting):
    federation = federation_for(setting, "fedpkd")
    algo = build_algorithm(
        "fedpkd",
        federation,
        seed=setting.seed,
        epoch_scale=setting.scale_config().epoch_scale,
    )
    return federation, algo


def _inject_straggler(algo, client_id, sleep_s):
    """Make one client's local training take ``sleep_s`` extra seconds."""
    client = algo.clients[client_id]
    original = client.train_local

    def slow_train_local(*args, **kwargs):
        time.sleep(sleep_s)
        return original(*args, **kwargs)

    client.train_local = slow_train_local


def bench_straggler_scenario():
    """Sync-barrier vs async-engine wall-clock under one 10x straggler."""
    from repro.fl import AsyncRoundEngine

    setting = ExperimentSetting(scale="tiny", seed=0)

    # calibration: one clean synchronous round sets the nominal duration a
    # healthy client federation needs, and hence the straggler's slowdown
    federation, algo = _make_algo(setting)
    try:
        num_clients = federation.num_clients
        straggler_id = num_clients - 1
        t_nominal = _timed_round(algo)
    finally:
        federation.close()
    sleep_s = (SLOW_FACTOR - 1.0) * t_nominal

    # synchronous barrier: the round cannot finish before the straggler
    federation, algo = _make_algo(setting)
    try:
        _inject_straggler(algo, straggler_id, sleep_s)
        t_sync = _timed_round(algo)
    finally:
        federation.close()

    # async engine: buffer of n-1 aggregates the fast clients; the
    # straggler's dispatch stays in flight and (compute being lazy at
    # arrival) its training never runs, so the sleep is never paid
    federation, algo = _make_algo(setting)
    try:
        _inject_straggler(algo, straggler_id, sleep_s)
        engine = AsyncRoundEngine(
            algo,
            max_staleness=2,
            buffer_size=num_clients - 1,
            fault_plan={
                "faults": [
                    {
                        "kind": "straggler",
                        "client_id": straggler_id,
                        "factor": SLOW_FACTOR,
                    }
                ]
            },
        )
        t_async = _timed_round(engine)
    finally:
        federation.close()

    ratio = t_async / t_sync
    return {
        "num_clients": num_clients,
        "straggler_client": straggler_id,
        "slow_factor": SLOW_FACTOR,
        "injected_sleep_s": round(sleep_s, 4),
        "sync_round_s": round(t_sync, 4),
        "async_round_s": round(t_async, 4),
        "async_vs_sync_ratio": round(ratio, 4),
        "meets_half_sync_bar": ratio < 0.5,
    }


def bench_profiled_round():
    """One profiled FedPKD round: where does the round's time go?

    Runs on its own federation with the profiler active, so hook
    overhead never contaminates the unprofiled ops/sec reps.  Returns
    per-stage totals and the top ops of the heaviest stage.
    """
    setting = ExperimentSetting(scale="tiny", seed=0, profile=True)
    federation, algo = _make_algo(setting)
    try:
        algo.run(1)
        profiler = federation.obs.profiler
    finally:
        federation.close()
    stage_seconds = {
        stage: round(seconds, 4)
        for stage, seconds in sorted(
            profiler.stage_seconds().items(), key=lambda kv: -kv[1]
        )
    }
    top_stage = next(iter(stage_seconds), None)
    top_ops = [
        {
            "stage": row["stage"],
            "model": row["model"],
            "op": row["op"],
            "calls": row["calls"],
            "seconds": round(row["seconds"], 4),
            "flops": row["flops"],
        }
        for row in profiler.rows()
        if row["stage"] == top_stage
    ][:8]
    return {"stage_seconds": stage_seconds, "top_ops": top_ops}


# --------------------------------------------------------------------------
# cohort scenario: 100k registered clients, O(cohort) memory
# --------------------------------------------------------------------------

COHORT_NUM_CLIENTS = 100_000
COHORT_TRAIN_SAMPLES = 120_000
COHORT_CLIENTS_PER_ROUND = 16
COHORT_MAX_LIVE = 32
COHORT_EVAL_CLIENTS = 64
COHORT_ROUNDS = 3
#: per-round peak traced allocation ceiling.  The live set is bounded at
#: max_live carried clients + one round's touches (participants + eval
#: sample) over a tiny model, so rounds allocate a few MB; 64 MiB is an
#: order of magnitude of headroom while still catching any O(N)
#: materialisation regression (100k live clients would blow far past it).
COHORT_PEAK_CEILING_BYTES = 64 * 1024 * 1024


def bench_cohort_scenario():
    """100k-client smoke run on the lazy registry with bounded memory."""
    import tracemalloc

    from repro.data import SyntheticImageTask
    from repro.fl import FederationConfig, build_federation

    task = SyntheticImageTask(
        num_classes=4,
        image_shape=(1, 4, 4),
        latent_dim=4,
        class_separation=2.0,
        seed=0,
        name="cohort-smoke",
    )
    bundle = task.make_bundle(
        n_train=COHORT_TRAIN_SAMPLES, n_test=400, n_public=100, seed=1
    )
    config = FederationConfig(
        num_clients=COHORT_NUM_CLIENTS,
        partition=("iid", {}),
        client_models="mlp_small",
        server_model=None,
        feature_dim=8,
        seed=0,
        clients_per_round=COHORT_CLIENTS_PER_ROUND,
        max_live_clients=COHORT_MAX_LIVE,
        eval_clients=COHORT_EVAL_CLIENTS,
    )
    build_start = time.perf_counter()
    federation = build_federation(bundle, config)
    try:
        algo = build_algorithm("fedproto", federation, seed=0, epoch_scale=0.1)
        build_s = time.perf_counter() - build_start

        # trace only round-time allocations: the bounded-registry guarantee
        # is about what a *round* touches, not the one-off bundle build
        per_round_peak = []
        per_round_s = []
        tracemalloc.start()
        try:
            for _ in range(COHORT_ROUNDS):
                tracemalloc.reset_peak()
                start = time.perf_counter()
                algo.run(1, eval_every=1)
                per_round_s.append(round(time.perf_counter() - start, 4))
                per_round_peak.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        stats = federation.registry.stats()
    finally:
        federation.close()

    peak = max(per_round_peak)
    return {
        "num_clients": COHORT_NUM_CLIENTS,
        "train_samples": COHORT_TRAIN_SAMPLES,
        "clients_per_round": COHORT_CLIENTS_PER_ROUND,
        "max_live_clients": COHORT_MAX_LIVE,
        "eval_clients": COHORT_EVAL_CLIENTS,
        "rounds": COHORT_ROUNDS,
        "build_s": round(build_s, 4),
        "round_s": per_round_s,
        "per_round_peak_bytes": per_round_peak,
        "peak_bytes": peak,
        "peak_ceiling_bytes": COHORT_PEAK_CEILING_BYTES,
        "meets_ceiling": peak < COHORT_PEAK_CEILING_BYTES,
        "registry": stats,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="BENCH_9.json", metavar="PATH")
    parser.add_argument(
        "--scenario",
        choices=("all", "trajectory", "profile", "straggler", "cohort"),
        default="all",
        help="which benchmarks to run (default: all)",
    )
    args = parser.parse_args(argv)

    results = {
        "bench": "trajectory",
        "repro_version": repro.__version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "ops": {},
    }
    if args.scenario in ("all", "trajectory"):
        results["ops"].update(
            {
                "conv2d": bench_conv2d(),
                "matmul": bench_matmul(),
                "fedpkd_round": bench_fedpkd_round(),
            }
        )
    if args.scenario in ("all", "profile"):
        results["profile"] = bench_profiled_round()
    scenarios = {}
    if args.scenario in ("all", "straggler"):
        scenarios["straggler"] = bench_straggler_scenario()
    if args.scenario in ("all", "cohort"):
        scenarios["cohort"] = bench_cohort_scenario()
    if scenarios:
        results["scenarios"] = scenarios
    with open(args.out, "w", encoding="utf-8") as f:
        json.dump(results, f, indent=2)
        f.write("\n")
    for name, stats in results["ops"].items():
        print(f"{name:13} {stats['ops_per_sec']:10.3f} ops/s ({stats['reps']} reps)")
    if "profile" in results:
        hot = results["profile"]["top_ops"]
        if hot:
            named = ", ".join(f"{r['op']}={r['seconds']}s" for r in hot[:3])
            print(f"{'profile':13} hottest {hot[0]['stage']}: {named}")
    if "straggler" in scenarios:
        stats = scenarios["straggler"]
        print(
            f"{'straggler':13} sync={stats['sync_round_s']:.3f}s "
            f"async={stats['async_round_s']:.3f}s "
            f"ratio={stats['async_vs_sync_ratio']:.3f} "
            f"(bar: <0.5 {'met' if stats['meets_half_sync_bar'] else 'MISSED'})"
        )
    failed = False
    if "cohort" in scenarios:
        stats = scenarios["cohort"]
        print(
            f"{'cohort':13} {stats['num_clients']} clients, "
            f"peak={stats['peak_bytes'] / 1e6:.1f}MB per round "
            f"(ceiling {stats['peak_ceiling_bytes'] / 1e6:.1f}MB "
            f"{'met' if stats['meets_ceiling'] else 'EXCEEDED'}), "
            f"rounds={stats['round_s']}"
        )
        # the memory ceiling is an acceptance bar, not a report: fail loudly
        failed = failed or not stats["meets_ceiling"]
    print(f"written to {args.out}")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
