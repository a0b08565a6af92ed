"""Per-layer numbers of one traced rep.

Three sources, all read from outside the program:

- the benchmark's own spans (:mod:`bench.instrument`): busy seconds are
  span *self* times, so the layers partition the traced wall and what no
  span covers is reported as ``obs.unattributed_s``;
- the program's public results: ``RunHistory`` records (whose ``extras``
  carry the metrics-registry counters once observability is on),
  ``ClientRegistry.stats()``, ``OpProfiler.rows()``;
- the program's own trace files, for work done inside pool workers
  (``client_task`` durations, ``checkpoint/*`` events, ``profile/op``).

The ``nn.*_s`` numbers and ``fl.training.glue_s`` come from the op
profiler and cut across the span view (an op runs inside some stage
span); they are never added to the layer self times.
"""

from __future__ import annotations

import os
import statistics
from typing import Dict, Iterable, List, Optional, Tuple

from .schema import ALGORITHMS, PER_LAYER_NAMES
from .spans import Span, total_by
from .workloads import WORKERS, Context

_OP_GROUPS = {
    "nn.matmul_s": ("matmul", "matmul.bwd"),
    "nn.adam_step_s": ("adam.step",),
    "nn.conv2d_s": ("conv2d", "conv2d.bwd", "pad2d", "pad2d.bwd"),
    "nn.elementwise_s": (
        "add", "add.bwd", "mul", "mul.bwd", "div", "div.bwd", "sum", "sum.bwd",
    ),
    "nn.backward_overhead_s": ("backward.overhead",),
    "fl.training.glue_s": ("train.glue",),
}

#: inline stage name -> the fl.training metric its self time belongs to
_STAGE_METRIC = {
    "local_train": "fl.training.local_train_s",
    "public_train": "fl.training.public_train_s",
    "digest": "fl.training.public_train_s",
    "public_knowledge": "fl.training.public_knowledge_s",
    "public_logits": "fl.training.public_knowledge_s",
    "prototypes": "fl.training.public_knowledge_s",
}

#: span name -> the per-layer metric its self time is added to
_SPAN_METRIC = {
    "data.make_bundle": "data.make_bundle_s",
    "fl.simulation.federation_for": "fl.simulation.build_s",
    "fl.simulation.build_federation": "fl.simulation.build_s",
    "fl.simulation.build_algorithm": "fl.simulation.build_s",
    "fl.simulation.run": "fl.simulation.round_self_s",
    "fl.simulation.eval": "fl.simulation.eval_s",
    "experiments.run_algorithm": "experiments.harness_self_s",
    "experiments.compare_algorithms": "experiments.harness_self_s",
    "fl.async_engine.run": "fl.async_engine.self_s",
    "fl.training.server_train": "fl.training.server_train_s",
    "runtime.run_stage": "runtime.run_stage_s",
    "fl.channel.upload": "fl.channel.busy_s",
    "fl.channel.download": "fl.channel.busy_s",
    "fl.channel.broadcast": "fl.channel.busy_s",
    "fl.checkpoint.save": "fl.checkpoint.save_s",
    "fl.checkpoint.load": "fl.checkpoint.load_s",
    "fl.registry.getitem": "fl.registry.getitem_s",
    "fl.registry.settle": "fl.registry.settle_s",
    "core.aggregate": "core.aggregate_s",
    "core.filter": "core.filter_s",
    "core.server_distill": "core.server_distill_s",
}


def span_metric(span: Span) -> Optional[str]:
    if span["name"] == "fl.training.stage":
        return _STAGE_METRIC.get(span["attrs"]["stage"], "fl.training.public_knowledge_s")
    return _SPAN_METRIC.get(span["name"])


def span_layer(span: Span) -> str:
    """``fl.channel.upload`` -> ``fl.channel``: the module doing the work."""
    return str(span["name"]).rsplit(".", 1)[0]


# ----------------------------------------------------------------------
# the program's own outputs
# ----------------------------------------------------------------------
def trace_files(root: str) -> List[str]:
    found = []
    for directory, _, names in os.walk(root):
        found.extend(
            os.path.join(directory, n) for n in names if n.endswith("trace.jsonl")
        )
    return sorted(found)


def _trace_facts(paths: Iterable[str]) -> dict:
    """One pass over the program's trace files."""
    from repro.obs.trace_analysis import load_trace, profile_rows

    facts = {
        "events": 0, "bytes": 0, "rows": [],
        "ckpt": {"save_s": 0.0, "load_s": 0.0, "bytes": 0, "saves": 0, "loads": 0},
        "parallel_task_s": 0.0, "parallel_tasks": 0, "task_failures": 0,
        "dispatches": 0, "local_train_tasks": 0,
    }
    for path in paths:
        events = load_trace(path)
        facts["events"] += len(events)
        facts["bytes"] += os.path.getsize(path)
        facts["rows"].append(profile_rows(events))
        parallel = any(
            e.get("name") == "run" and (e.get("attrs") or {}).get("executor") == "parallel"
            for e in events
        )
        for e in events:
            name, attrs = e.get("name"), e.get("attrs") or {}
            if name == "checkpoint/save":
                facts["ckpt"]["save_s"] += attrs["dur_s"]
                facts["ckpt"]["bytes"] += attrs["bytes"]
                facts["ckpt"]["saves"] += 1
            elif name == "checkpoint/load":
                facts["ckpt"]["load_s"] += attrs["dur_s"]
                facts["ckpt"]["loads"] += 1
            elif name == "client_task":
                if parallel:
                    facts["parallel_task_s"] += attrs["dur_s"]
                    facts["parallel_tasks"] += 1
                if attrs.get("stage") == "local_train":
                    facts["local_train_tasks"] += 1
            elif name == "task_failure":
                facts["task_failures"] += 1
            elif name == "engine/dispatch":
                facts["dispatches"] += 1
    return facts


def _counter(ctx: Context, key: str) -> float:
    """A metrics-registry counter, summed over the workload's runs: the
    registry snapshot rides in every record's extras once obs is on."""
    return sum(
        h.records[-1].extras.get(key, 0.0) for h in ctx.histories.values() if h.records
    )


def _profiler_rows(algos, traced_rows) -> List[dict]:
    """Op rows of every run: live profilers of the algorithms built in
    this process, trace ``profile/op`` events for runs in pool workers."""
    rows: List[dict] = []
    seen = set()
    for algo in algos:
        profiler = algo.obs.profiler
        if profiler is not None and id(profiler) not in seen:
            seen.add(id(profiler))
            rows.extend(profiler.rows())
    if not rows:
        for file_rows in traced_rows:
            rows.extend(file_rows)
    return rows


# ----------------------------------------------------------------------
def derive(ctx: Context, spans: List[Span], algos) -> Tuple[Dict[str, float], Dict[str, float]]:
    """``(per_layer metrics, layer self seconds)`` of a traced rep.

    Every name in the schema gets a number; a layer the workload never
    enters reads 0.
    """
    m: Dict[str, float] = dict.fromkeys(PER_LAYER_NAMES, 0.0)
    m.update(total_by(spans, span_metric))
    facts = _trace_facts(trace_files(ctx.tmp))

    # nn + training glue: the op profiler's view
    rows = _profiler_rows(algos, facts["rows"])
    for metric, ops in _OP_GROUPS.items():
        m[metric] = sum(r["seconds"] for r in rows if r["op"] in ops)
    m["nn.op_calls"] = sum(r["calls"] for r in rows)
    m["nn.flops"] = sum(r["flops"] for r in rows)

    # core: what FedPKD's mechanisms did
    accepted = _counter(ctx, "fedpkd/filter_accepted")
    rejected = _counter(ctx, "fedpkd/filter_rejected")
    if accepted + rejected:
        m["core.filter_accept_ratio"] = accepted / (accepted + rejected)
    coverage = [
        h.records[-1].extras["proto_coverage"]
        for h in ctx.histories.values()
        if h.algorithm == "fedpkd" and h.records
    ]
    if coverage:
        m["core.proto_coverage"] = statistics.fmean(coverage)

    # baselines: whole algo.run() calls, by algorithm
    by_algo = total_by(
        spans,
        lambda s: s["attrs"]["algo"] if s["name"] == "fl.simulation.run" else None,
        self_time=False,
    )
    for algo in ALGORITHMS:
        m[f"baselines.{algo}_run_s"] = by_algo.get(algo, 0.0)

    # channel
    records = [h.records[-1] for h in ctx.histories.values() if h.records]
    m["fl.channel.uplink_bytes"] = sum(r.comm_uplink_bytes for r in records)
    m["fl.channel.downlink_bytes"] = sum(r.comm_downlink_bytes for r in records)
    m["fl.channel.payloads"] = _counter(ctx, "channel/uplink_payloads") + _counter(
        ctx, "channel/downlink_payloads"
    )

    # checkpoint: spans cover saves in this process, trace events the
    # saves inside sweep workers; a save is never in both
    for key, value in facts["ckpt"].items():
        m[f"fl.checkpoint.{key}"] += value

    # registry
    for algo in algos:
        registry = algo.federation.registry
        if registry is not None:
            stats = registry.stats()
            for key in ("materialisations", "hydrations", "spills", "evictions",
                        "clean_rebuilds"):
                m[f"fl.registry.{key}"] += stats[key]

    # async engine
    for key in ("waves", "injected_faults", "stale_contributions",
                "dropped_contributions"):
        m[f"fl.async_engine.{key}"] = _counter(ctx, f"engine/{key}")
    if facts["dispatches"]:
        # every contribution that was computed got aggregated: the run ends
        # on an aggregation, so nothing is left in the buffer
        m["fl.async_engine.useful_ratio"] = (
            facts["local_train_tasks"] / facts["dispatches"]
        )

    # runtime
    m["runtime.task_s_sum"] = facts["parallel_task_s"]
    m["runtime.tasks"] = facts["parallel_tasks"]
    m["runtime.task_failures"] = facts["task_failures"]
    m["runtime.pool_recycles"] = _counter(ctx, "runtime/pool_recycles")
    if facts["parallel_tasks"]:
        m["runtime.dispatch_overhead_s"] = (
            m["runtime.run_stage_s"] - facts["parallel_task_s"] / WORKERS
        )
    m["runtime.serial_wall_s"] = ctx.timings.get("serial_wall_s", 0.0)
    m["runtime.speedup_vs_serial"] = ctx.timings.get("speedup_vs_serial", 0.0)

    # sweep
    for key in ("cold_s", "extend_s", "resume_s", "cached_s", "cache_hit_ms"):
        m[f"sweep.{key}"] = ctx.timings.get(key, 0.0)
    for key in ("completed", "resumed", "cached", "failed"):
        m[f"sweep.{key}"] = ctx.counts.get(key, 0) if "cold_s" in ctx.timings else 0

    # obs (trace_overhead_ratio needs the untraced reps: the driver fills it)
    m["obs.trace_events"] = facts["events"]
    m["obs.trace_bytes"] = facts["bytes"]
    # the accounting covers the timed section: set-up spans are metrics
    # of their own (make_bundle_s, build_s) but no part of wall_s
    timed = [s for s in spans if s["start"] >= ctx.t_ready]
    layer_self = total_by(timed, span_layer)
    m["obs.unattributed_s"] = (ctx.t_done - ctx.t_ready) - sum(layer_self.values())
    return m, layer_self
