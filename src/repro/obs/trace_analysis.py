"""Post-hoc analytics over JSONL traces and metrics exports.

Everything here consumes *files already on disk* — the trace a run wrote
through :class:`repro.obs.Tracer` and the metrics export from
:class:`repro.obs.MetricsRegistry` — and reduces them to the tables the
``repro trace`` CLI prints:

* stage-time aggregation (count / mean / p50 / p95 / total per stage),
* top-K hot ops from ``profile/op`` events with cumulative coverage of
  the owning stage's wall time,
* critical-path reconstruction for async-engine runs (per-client
  dispatch→arrival timelines, staleness distributions, fault causes),
* cohort registry summaries from ``registry/*`` metric records.

Imports only the stdlib and numpy: the analysis layer must not pull in
the experiment harness (which imports ``repro.nn`` and would create an
import cycle through the profiler hooks).
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "load_trace",
    "load_metrics",
    "stage_summary",
    "profile_rows",
    "hot_ops",
    "stage_coverage",
    "critical_path",
    "registry_summary",
]


# ----------------------------------------------------------------------
# loading
# ----------------------------------------------------------------------
def load_trace(path: str) -> List[dict]:
    """Parse a JSONL trace file into a list of event dicts."""
    events: List[dict] = []
    with open(path, "r", encoding="utf-8") as f:
        for line in f:
            line = line.strip()
            if line:
                events.append(json.loads(line))
    return events


def load_metrics(path: str) -> List[dict]:
    """Parse a ``.json``/``.jsonl`` metrics export into record dicts."""
    return load_trace(path)


# ----------------------------------------------------------------------
# stage timing
# ----------------------------------------------------------------------
def _stage_name(event: dict) -> str:
    """Stage spans are named ``stage`` with the real name in attrs."""
    attrs = event.get("attrs") or {}
    return str(attrs.get("stage", event.get("name", "?")))


def stage_summary(events: Sequence[dict]) -> List[Dict[str, Any]]:
    """Per-stage wall-time statistics over all rounds.

    One row per distinct stage with ``count``/``total_s``/``mean_s``/
    ``p50_s``/``p95_s`` computed from the stage-span durations.  Rows are
    sorted by descending total time.
    """
    durations: Dict[str, List[float]] = {}
    for e in events:
        if e.get("scope") == "stage" and e.get("dur_s") is not None:
            durations.setdefault(_stage_name(e), []).append(float(e["dur_s"]))
    rows = []
    for name, vals in durations.items():
        arr = np.asarray(vals, dtype=np.float64)
        rows.append(
            {
                "stage": name,
                "count": int(arr.size),
                "total_s": float(arr.sum()),
                "mean_s": float(arr.mean()),
                "p50_s": float(np.percentile(arr, 50)),
                "p95_s": float(np.percentile(arr, 95)),
            }
        )
    rows.sort(key=lambda r: -r["total_s"])
    return rows


def _stage_wall(events: Sequence[dict]) -> Dict[str, float]:
    """Summed stage-span wall seconds keyed by stage name."""
    wall: Dict[str, float] = {}
    for e in events:
        if e.get("scope") == "stage" and e.get("dur_s") is not None:
            name = _stage_name(e)
            wall[name] = wall.get(name, 0.0) + float(e["dur_s"])
    return wall


# ----------------------------------------------------------------------
# profiled ops
# ----------------------------------------------------------------------
def profile_rows(events: Sequence[dict]) -> List[Dict[str, Any]]:
    """Final per-op aggregates from ``profile/op`` events.

    The profiler publishes *cumulative* aggregates (possibly more than
    once if a run publishes mid-flight), so only the **last** event per
    ``(stage, model, op)`` key counts.  Rows sort by descending seconds.
    """
    latest: Dict[Tuple[str, str, str], Dict[str, Any]] = {}
    for e in events:
        if e.get("scope") != "profile" or e.get("name") != "profile/op":
            continue
        a = e.get("attrs") or {}
        key = (str(a.get("stage")), str(a.get("model")), str(a.get("op")))
        latest[key] = {
            "stage": key[0],
            "model": key[1],
            "op": key[2],
            "calls": int(a.get("calls", 0)),
            "seconds": float(a.get("seconds", 0.0)),
            "flops": float(a.get("flops", 0.0)),
            "bytes": float(a.get("bytes", 0.0)),
        }
    rows = list(latest.values())
    rows.sort(key=lambda r: (-r["seconds"], r["stage"], r["model"], r["op"]))
    return rows


def hot_ops(
    events: Sequence[dict],
    stage: Optional[str] = None,
    top_k: int = 10,
) -> List[Dict[str, Any]]:
    """Top-K ops by time, with cumulative share of the stage wall time.

    ``cum_frac`` is measured against the *stage-span wall time* (the
    honest denominator: it includes any glue the profiler missed), or
    against total profiled seconds when no stage spans exist / when
    aggregating across all stages.
    """
    rows = profile_rows(events)
    if stage is not None:
        rows = [r for r in rows if r["stage"] == stage]
    wall = _stage_wall(events)
    if stage is not None and wall.get(stage, 0.0) > 0.0:
        denom = wall[stage]
    else:
        denom = sum(r["seconds"] for r in rows)
    out = []
    cum = 0.0
    for r in rows[: max(top_k, 0)]:
        cum += r["seconds"]
        row = dict(r)
        row["frac"] = r["seconds"] / denom if denom > 0 else 0.0
        row["cum_frac"] = cum / denom if denom > 0 else 0.0
        if r["seconds"] > 0:
            row["gflops_per_s"] = r["flops"] / r["seconds"] / 1e9
        else:
            row["gflops_per_s"] = 0.0
        out.append(row)
    return out


def stage_coverage(events: Sequence[dict]) -> List[Dict[str, Any]]:
    """Per-stage profiled-op seconds vs. stage-span wall seconds.

    ``coverage`` near 1.0 means the profiler accounts for essentially
    all of the stage's wall time; a low value flags untimed glue.
    """
    wall = _stage_wall(events)
    prof: Dict[str, float] = {}
    for r in profile_rows(events):
        prof[r["stage"]] = prof.get(r["stage"], 0.0) + r["seconds"]
    rows = []
    for name, wall_s in wall.items():
        ops_s = prof.get(name, 0.0)
        rows.append(
            {
                "stage": name,
                "wall_s": wall_s,
                "ops_s": ops_s,
                "coverage": ops_s / wall_s if wall_s > 0 else 0.0,
            }
        )
    rows.sort(key=lambda r: -r["wall_s"])
    return rows


# ----------------------------------------------------------------------
# async critical path
# ----------------------------------------------------------------------
def critical_path(events: Sequence[dict]) -> Dict[str, Any]:
    """Reconstruct async-engine dispatch/arrival behaviour from a trace.

    Returns per-client timelines (dispatch count, delay stats, last
    arrival on the virtual clock), the staleness distribution of dropped
    contributions, injected-fault causes, and the overall critical path:
    the clients whose arrivals gated the run (largest total delay).
    Returns an empty dict when the trace has no engine events (sync run).
    """
    dispatches: Dict[int, List[dict]] = {}
    stale: List[int] = []
    faults: Dict[str, int] = {}
    for e in events:
        if e.get("scope") != "engine":
            continue
        a = e.get("attrs") or {}
        name = e.get("name")
        if name == "engine/dispatch":
            dispatches.setdefault(int(a["client_id"]), []).append(a)
        elif name == "engine/stale_drop":
            stale.append(int(a.get("staleness", 0)))
        elif name in ("engine/fault", "engine/churn"):
            cause = str(a.get("cause", "unknown"))
            faults[cause] = faults.get(cause, 0) + 1
    if not dispatches and not stale and not faults:
        return {}

    clients = []
    for cid in sorted(dispatches):
        rows = dispatches[cid]
        delays = np.asarray([float(r.get("delay", 0.0)) for r in rows])
        arrivals = [float(r.get("arrival", 0.0)) for r in rows]
        clients.append(
            {
                "client_id": cid,
                "dispatches": len(rows),
                "mean_delay": float(delays.mean()) if delays.size else 0.0,
                "max_delay": float(delays.max()) if delays.size else 0.0,
                "total_delay": float(delays.sum()) if delays.size else 0.0,
                "last_arrival": max(arrivals) if arrivals else 0.0,
            }
        )
    # the critical path is the set of slowest clients: they bound the
    # virtual clock and therefore every version bump behind them
    ranked = sorted(clients, key=lambda c: -c["total_delay"])
    summary: Dict[str, Any] = {
        "clients": clients,
        "critical_clients": [c["client_id"] for c in ranked[:3]],
        "stale_drops": len(stale),
        "faults": faults,
    }
    if stale:
        arr = np.asarray(stale, dtype=np.float64)
        summary["staleness"] = {
            "count": int(arr.size),
            "mean": float(arr.mean()),
            "max": int(arr.max()),
            "p95": float(np.percentile(arr, 95)),
        }
    return summary


# ----------------------------------------------------------------------
# registry / cohort memory
# ----------------------------------------------------------------------
def registry_summary(metric_records: Sequence[dict]) -> Dict[str, float]:
    """Extract ``registry/*`` counters and gauges from a metrics export.

    These come from :meth:`repro.fl.registry.ClientRegistry.attach_metrics`
    (spill writes, hydrations, clean rebuilds, live-set size, shard
    bytes); absent keys simply don't appear.
    """
    out: Dict[str, float] = {}
    for record in metric_records:
        name = record.get("metric", "")
        if not name.startswith("registry/"):
            continue
        if record.get("kind") == "histogram":
            out[name + "/count"] = float(record.get("count", 0))
            out[name + "/sum"] = float(record.get("sum", 0.0))
        elif record.get("value") is not None:
            out[name] = float(record["value"])
    return out

