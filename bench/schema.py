"""Names, units and bounds of everything the benchmark reports.

This module is the single source of ``BENCHMARK.json`` (``python -m bench
manifest`` prints it; ``bench/tests/test_schema.py`` asserts the committed
file matches) and of the result-file validation in :func:`validate_result`.
It imports nothing from ``repro`` so the driver and the self-tests can use
it without numpy.
"""

from __future__ import annotations

import re
from typing import Dict, List, NamedTuple, Tuple

RESULT_SCHEMA_VERSION = 1

#: seconds one contract run measures for (``BENCHMARK.json: run_seconds``)
RUN_SECONDS = 20

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

# ----------------------------------------------------------------------
# workloads: name -> one-line why (≤ 200 characters, goes into BENCHMARK.json)
# ----------------------------------------------------------------------
WORKLOADS: Dict[str, str] = {
    "fedpkd_mlp": (
        "FedPKD, small scale, heterogeneous MLP clients, dir0.1, 4 rounds: the "
        "paper's headline setting on the dense path (matmul/adam inside "
        "server_distill dominate)"
    ),
    "fedpkd_conv": (
        "FedPKD, tiny scale, heterogeneous ResNet clients, 2 rounds: the paper's "
        "architecture family; conv2d/im2col dominate, so dense-path changes "
        "must not move it"
    ),
    "fig5_cells": (
        "All nine algorithms on two homogeneous Fig. 5 cells: weight payloads, "
        "proximal terms, 100-class logits; a FedPKD speed-up bought at a "
        "baseline's expense shows here"
    ),
    "parallel_clients": (
        "16-client FedPKD, serial then parallel (2 workers) on one bundle: "
        "runtime dispatch (state blobs, pool start) decides whether "
        "parallelism pays"
    ),
    "sweep_grid": (
        "Sweep of 3 algorithms x 3 seeds: cold, extend, crash-window resume, 50 "
        "cached resubmits: the sweep pool, per-round checkpoints and per-run "
        "tracing do the work"
    ),
    "cohort_async": (
        "5000-client FedProto cohort under the async engine with faults: "
        "registry materialise/spill/hydrate and the event loop dominate; "
        "compute changes predict no move"
    ),
}


class EndToEnd(NamedTuple):
    name: str
    unit: str
    better: str
    #: share of the baseline median a later change may worsen it by
    bound: float
    #: listed in BENCHMARK.json (the contract needs a non-zero number on
    #: every workload; the others live in result files and ``compare``)
    contract: bool
    definition: str


END_TO_END: Tuple[EndToEnd, ...] = (
    EndToEnd(
        "wall_s", "s", "lower", 0.25, True,
        "timed section: algorithm/scheduler object ready -> last history "
        "returned (parallel_clients: the parallel run only)",
    ),
    EndToEnd(
        "setup_s", "s", "lower", 0.25, True,
        "child main() entry -> algorithm/scheduler object ready (imports, "
        "make_bundle, federation_for/build_federation, build_algorithm)",
    ),
    EndToEnd(
        "peak_rss_mb", "MB", "lower", 0.10, True,
        "ru_maxrss of the child and the pool workers it waited for",
    ),
    EndToEnd(
        "comm_mb", "MB", "lower", 0.05, True,
        "CommChannel uplink+downlink summed over every run of the workload "
        "(the paper's Table 1 quantity); repeats exactly for a seed",
    ),
    EndToEnd(
        "speedup_vs_serial", "ratio", "higher", 0.10, False,
        "parallel_clients only: serial wall / parallel wall, base = serial",
    ),
    EndToEnd(
        "fail_ratio", "ratio", "lower", 0.0, False,
        "failed / attempted over rounds + sweep cells + correctness checks",
    ),
)


class PerLayer(NamedTuple):
    name: str
    unit: str
    better: str
    #: the end-to-end metric this number should move ...
    moves: str
    #: ... and the workloads it should move it on
    workloads: Tuple[str, ...]


_ALL = tuple(WORKLOADS)
_DENSE = ("fedpkd_mlp", "fig5_cells")
_TRAINING = ("fedpkd_mlp", "fedpkd_conv", "fig5_cells")
_FEDPKD = ("fedpkd_mlp", "fedpkd_conv", "fig5_cells", "parallel_clients")

ALGORITHMS = (
    "fedpkd", "fedavg", "fedprox", "feddf", "fedmd", "dsfl", "fedet",
    "fedproto", "naive_kd",
)


def _layer(prefix: str, moves: str, workloads, *specs) -> List[PerLayer]:
    return [
        PerLayer(f"{prefix}.{name}", unit, better, moves, tuple(workloads))
        for name, unit, better in specs
    ]


PER_LAYER: Tuple[PerLayer, ...] = tuple(
    # nn: busy seconds from the program's OpProfiler (a cross-cut of the
    # span view below, never added to it) plus outside probes
    _layer(
        "nn", "wall_s", _DENSE,
        ("matmul_s", "s", "lower"),
        ("adam_step_s", "s", "lower"),
        ("elementwise_s", "s", "lower"),
        ("backward_overhead_s", "s", "lower"),
        ("op_calls", "count", "lower"),
        ("flops", "count", "lower"),
        ("probe_matmul_us", "us", "lower"),
        ("probe_adam_step_us", "us", "lower"),
        ("probe_mlp_step_ms", "ms", "lower"),
    )
    + _layer(
        "nn", "wall_s", ("fedpkd_conv",),
        ("conv2d_s", "s", "lower"),
        ("probe_conv2d_us", "us", "lower"),
        ("probe_resnet20_step_ms", "ms", "lower"),
    )
    + _layer(
        "fl.training", "wall_s", _TRAINING,
        ("local_train_s", "s", "lower"),
        ("public_train_s", "s", "lower"),
        ("public_knowledge_s", "s", "lower"),
        ("server_train_s", "s", "lower"),
        ("glue_s", "s", "lower"),
    )
    + _layer(
        "core", "wall_s", ("fedpkd_mlp",),
        ("server_distill_s", "s", "lower"),
        ("aggregate_s", "s", "lower"),
        ("filter_s", "s", "lower"),
        ("filter_accept_ratio", "ratio", "higher"),
        ("proto_coverage", "ratio", "higher"),
    )
    + _layer(
        "baselines", "wall_s", ("fig5_cells",),
        *((f"{algo}_run_s", "s", "lower") for algo in ALGORITHMS),
    )
    + _layer(
        "fl.channel", "comm_mb", _ALL,
        ("uplink_bytes", "count", "lower"),
        ("downlink_bytes", "count", "lower"),
        ("payloads", "count", "lower"),
    )
    + _layer("fl.channel", "wall_s", ("fig5_cells",), ("busy_s", "s", "lower"))
    + _layer(
        "fl.checkpoint", "wall_s", ("sweep_grid",),
        ("save_s", "s", "lower"),
        ("load_s", "s", "lower"),
        ("bytes", "count", "lower"),
        ("saves", "count", "lower"),
        ("loads", "count", "lower"),
    )
    + _layer(
        "fl.registry", "wall_s", ("cohort_async",),
        ("materialisations", "count", "lower"),
        ("hydrations", "count", "lower"),
        ("spills", "count", "lower"),
        ("evictions", "count", "lower"),
        ("clean_rebuilds", "count", "lower"),
        ("getitem_s", "s", "lower"),
        ("settle_s", "s", "lower"),
    )
    + _layer(
        "fl.async_engine", "wall_s", ("cohort_async",),
        ("waves", "count", "lower"),
        ("injected_faults", "count", "lower"),
        ("stale_contributions", "count", "lower"),
        ("dropped_contributions", "count", "lower"),
        ("useful_ratio", "ratio", "higher"),
        ("self_s", "s", "lower"),
    )
    + _layer(
        "fl.simulation", "wall_s", _FEDPKD,
        ("eval_s", "s", "lower"),
        ("round_self_s", "s", "lower"),
    )
    + _layer("fl.simulation", "setup_s", _ALL, ("build_s", "s", "lower"))
    + _layer(
        "runtime", "wall_s", ("parallel_clients",),
        ("run_stage_s", "s", "lower"),
        ("task_s_sum", "s", "lower"),
        ("dispatch_overhead_s", "s", "lower"),
        ("tasks", "count", "lower"),
        ("task_failures", "count", "lower"),
        ("pool_recycles", "count", "lower"),
        ("serial_wall_s", "s", "lower"),
        ("speedup_vs_serial", "ratio", "higher"),
    )
    + _layer(
        "sweep", "wall_s", ("sweep_grid",),
        ("cold_s", "s", "lower"),
        ("extend_s", "s", "lower"),
        ("resume_s", "s", "lower"),
        ("cached_s", "s", "lower"),
        ("cache_hit_ms", "ms", "lower"),
        ("completed", "count", "higher"),
        ("resumed", "count", "higher"),
        ("cached", "count", "higher"),
        ("failed", "count", "lower"),
    )
    # obs is off in timed reps, so these move nothing end to end; they are
    # ROADMAP item 5's overhead budget line and are attached to wall_s
    # because that is what tracing would cost a user who switched it on
    + _layer(
        "obs", "wall_s", _ALL,
        ("trace_overhead_ratio", "ratio", "lower"),
        ("trace_events", "count", "lower"),
        ("trace_bytes", "count", "lower"),
        ("unattributed_s", "s", "lower"),
    )
    + _layer("data", "setup_s", _ALL, ("make_bundle_s", "s", "lower"))
    + _layer(
        "experiments", "wall_s", ("fig5_cells",), ("harness_self_s", "s", "lower")
    )
)

PER_LAYER_NAMES = tuple(m.name for m in PER_LAYER)
END_TO_END_BY_NAME = {m.name: m for m in END_TO_END}


def benchmark_json() -> dict:
    """The exact content of the root ``BENCHMARK.json``."""
    return {
        "command": ["python3", "-m", "bench", "measure"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [
            {"name": name, "why": why} for name, why in WORKLOADS.items()
        ],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
            if m.contract
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better}
            for m in PER_LAYER
        ],
    }


# ----------------------------------------------------------------------
# result-file validation
# ----------------------------------------------------------------------
def _summary_ok(summary) -> bool:
    if summary is None:
        return True
    keys = {"median", "q1", "q3", "min", "max", "n", "values"}
    return isinstance(summary, dict) and keys <= set(summary) and summary["n"] >= 1


def validate_result(result: dict) -> List[str]:
    """Problems with a ``python -m bench run`` result file ([] when valid)."""
    problems: List[str] = []
    if result.get("schema") != RESULT_SCHEMA_VERSION:
        problems.append(f"schema is {result.get('schema')!r}")
    for key in ("provenance", "workloads"):
        if not isinstance(result.get(key), dict):
            problems.append(f"missing '{key}' block")
    for key in ("nproc", "python", "numpy", "blas", "git_commit", "seed", "reps",
                "loadavg_start", "loadavg_end"):
        if key not in (result.get("provenance") or {}):
            problems.append(f"provenance lacks '{key}'")
    for name, block in (result.get("workloads") or {}).items():
        if name not in WORKLOADS:
            problems.append(f"unknown workload '{name}'")
            continue
        e2e = block.get("end_to_end") or {}
        for metric in END_TO_END:
            if metric.name not in e2e:
                problems.append(f"{name}: end_to_end lacks '{metric.name}'")
            elif not _summary_ok(e2e[metric.name]):
                problems.append(f"{name}: bad summary for '{metric.name}'")
        for key in ("attempted", "failed", "checks", "quality", "counts"):
            if key not in block:
                problems.append(f"{name}: lacks '{key}'")
        per_layer = block.get("per_layer")
        if per_layer is None:
            problems.append(f"{name}: lacks 'per_layer'")
            continue
        for metric_name in PER_LAYER_NAMES:
            if not isinstance(per_layer.get(metric_name), (int, float)):
                problems.append(f"{name}: per_layer lacks '{metric_name}'")
        unknown = sorted(set(per_layer) - set(PER_LAYER_NAMES))
        if unknown:
            problems.append(f"{name}: unknown per_layer metrics {unknown}")
    return problems
