"""The driver process: starts one child per rep, aggregates, reports.

Closed loop, one child at a time.  Two front ends share :func:`run_rep`:

- :func:`run_suite` (``python -m bench run``): a discarded warm-up pass,
  ``reps`` timed passes and one traced pass over the workloads, interleaved
  round-robin so machine drift hits every workload equally;
- :func:`measure` (``python -m bench measure``, the ``BENCHMARK.json``
  command): one workload for a number of seconds, medians as one JSON line.

The driver never imports numpy or ``repro``; everything it knows about a
rep comes from the child's result file and from ``wait4``'s rusage.
"""

from __future__ import annotations

import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from typing import Dict, List, Optional, Sequence

from . import ROOT
from .child import BLAS_ENV
from .schema import END_TO_END, PER_LAYER, RESULT_SCHEMA_VERSION

#: every file a rep writes lands in a private directory under here (the
#: checkout is the only place the benchmark may write); removed afterwards
TMP_ROOT = os.path.join(ROOT, ".bench_tmp")

#: a child that has not exited by then is killed with its process group
CHILD_TIMEOUT_S = 170.0

#: set-up samples one ``measure`` run reports the median of
MIN_SETUP_SAMPLES = 3


class ChildFailed(RuntimeError):
    """A child exited non-zero, timed out, or left no result."""


# ----------------------------------------------------------------------
# one child
# ----------------------------------------------------------------------
def _tail(path: str, limit: int = 2000) -> str:
    try:
        with open(path, "r", encoding="utf-8", errors="replace") as f:
            return f.read()[-limit:]
    except OSError:
        return ""


def spawn_child(child_args: Sequence[str]) -> dict:
    """Run ``python -m bench.child`` to completion; returns its result with
    ``peak_rss_mb`` (child plus the pool workers it waited for) and
    ``child_s`` (spawn to exit) added."""
    os.makedirs(TMP_ROOT, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="rep-", dir=TMP_ROOT)
    out = os.path.join(tmp, "result.json")
    env = dict(os.environ)
    env.update({name: "1" for name in BLAS_ENV})
    env["TMPDIR"] = tmp  # the registry's spill store asks tempfile for a dir
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (ROOT, os.environ.get("PYTHONPATH")) if p
    )
    argv = [sys.executable, "-m", "bench.child", "--out", out, *child_args]
    log = os.open(os.path.join(tmp, "child.log"), os.O_WRONLY | os.O_CREAT, 0o600)
    start = time.perf_counter()
    try:
        pid = os.posix_spawn(
            sys.executable, argv, env, setsid=True,
            file_actions=[
                (os.POSIX_SPAWN_DUP2, log, 1),
                (os.POSIX_SPAWN_DUP2, log, 2),
            ],
        )
        os.close(log)
        # its own session, so one signal reaches the pool workers too
        watchdog = threading.Timer(CHILD_TIMEOUT_S, _kill_group, args=(pid,))
        watchdog.start()
        try:
            _, status, rusage = os.wait4(pid, 0)
        finally:
            watchdog.cancel()
            _kill_group(pid)  # workers orphaned by a crashed child
        code = os.waitstatus_to_exitcode(status)
        if code != 0 or not os.path.exists(out):
            raise ChildFailed(
                f"child {' '.join(child_args)} exited {code}:\n"
                + _tail(os.path.join(tmp, "child.log"))
            )
        with open(out, "r", encoding="utf-8") as f:
            result = json.load(f)
        result["peak_rss_mb"] = rusage.ru_maxrss / 1024.0  # Linux reports KiB
        result["child_s"] = time.perf_counter() - start
        return result
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(TMP_ROOT)
        except OSError:
            pass  # another rep's directory is still there


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def run_rep(
    workload: str,
    seed: int,
    traced: bool = False,
    smoke: bool = False,
    setup_only: bool = False,
    inject_failure: bool = False,
) -> dict:
    args = ["--workload", workload, "--seed", str(seed)]
    for flag, on in (("--traced", traced), ("--smoke", smoke),
                     ("--setup-only", setup_only),
                     ("--inject-failure", inject_failure)):
        if on:
            args.append(flag)
    return spawn_child(args)


def run_probes(smoke: bool = False) -> Dict[str, float]:
    result = spawn_child(["--probes"] + (["--smoke"] if smoke else []))
    return {k: v for k, v in result.items() if k.startswith("nn.probe_")}


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
def summarize(values: Sequence[Optional[float]]) -> Optional[dict]:
    """Median, quartiles, range and n.  With n <= 10 no higher percentile
    is reported: it would have no samples beyond it."""
    values = [v for v in values if v is not None]
    if not values:
        return None
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "min": min(values),
        "max": max(values),
        "n": len(values),
        "values": list(values),
    }


def _exact_facts(rep: dict) -> dict:
    """What must repeat exactly across reps of one seed."""
    return {"counts": rep["counts"], "history_sha256": rep["history_sha256"]}


def consistency_checks(reps: Sequence[dict], traced: Optional[dict]) -> List[dict]:
    """Driver-side checks with teeth: counts, bytes and history hashes are
    equal across same-seed reps, and switching observability on does not
    change the history."""
    first = _exact_facts(reps[0])
    same = all(_exact_facts(rep) == first for rep in reps[1:])
    checks = [{
        "name": "counts (incl. comm bytes) and history_sha256 repeat across reps",
        "ok": same,
        "detail": f"{len(reps)} reps",
    }]
    if traced is not None:
        checks.append({
            "name": "traced rep reproduces history_sha256",
            "ok": traced["history_sha256"] == first["history_sha256"],
            "detail": "",
        })
    return checks


# ----------------------------------------------------------------------
# provenance
# ----------------------------------------------------------------------
def _git_commit() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, check=True, timeout=10,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def provenance(seed: int, reps: int, smoke: bool) -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "numpy": None,  # filled from the first child: the driver has no numpy
        "blas": None,
        "blas_threads": 1,
        "git_commit": _git_commit(),
        "seed": seed,
        "reps": reps,
        "smoke": smoke,
        "loadavg_start": os.getloadavg()[0],
        "loadavg_end": None,
    }


def _warn_if_loaded(when: str) -> None:
    load, nproc = os.getloadavg()[0], os.cpu_count() or 1
    if load > nproc:
        print(f"warning: 1-min loadavg {load:.2f} > nproc {nproc} at {when}; "
              "timings will be noisy", file=sys.stderr)


# ----------------------------------------------------------------------
# python -m bench run
# ----------------------------------------------------------------------
def workload_block(reps: List[dict], traced: dict, probes: Dict[str, float]) -> dict:
    """Everything the result file records for one workload."""
    checks = list(reps[-1]["checks"]) + consistency_checks(reps, traced)
    driver_checks = checks[len(reps[-1]["checks"]):]
    driver_failed = sum(not c["ok"] for c in driver_checks)
    attempted = sum(r["attempted"] for r in reps) + len(driver_checks)
    failed = sum(r["failed"] for r in reps) + driver_failed
    per_rep = {
        "wall_s": [r["wall_s"] for r in reps],
        "setup_s": [r["setup_s"] for r in reps],
        "peak_rss_mb": [r["peak_rss_mb"] for r in reps],
        "comm_mb": [r["comm_mb"] for r in reps],
        "speedup_vs_serial": [r["speedup_vs_serial"] for r in reps],
        # the driver-side checks are about all reps, so each rep carries them
        "fail_ratio": [
            (r["failed"] + driver_failed) / (r["attempted"] + len(driver_checks))
            for r in reps
        ],
    }
    end_to_end = {m.name: summarize(per_rep[m.name]) for m in END_TO_END}
    per_layer = dict(traced["per_layer"], **probes)
    per_layer["obs.trace_overhead_ratio"] = (
        traced["wall_s"] / end_to_end["wall_s"]["median"]
    )
    timed = traced["timed_section_s"]
    return {
        "end_to_end": end_to_end,
        "attempted": attempted,
        "failed": failed,
        "checks": checks,
        "quality": reps[0]["quality"],
        "history_sha256": reps[0]["history_sha256"],
        "counts": reps[0]["counts"],
        "per_layer": per_layer,
        "layer_self_s": traced["layer_self_s"],
        "traced": {
            "wall_s": traced["wall_s"],
            "setup_s": traced["setup_s"],
            "timed_section_s": timed,
            "attributed_share": 1.0 - per_layer["obs.unattributed_s"] / timed,
        },
    }


def run_suite(
    workloads: Sequence[str],
    seed: int = 0,
    reps: int = 5,
    smoke: bool = False,
    inject_failure: Optional[str] = None,
) -> dict:
    """Warm-up pass (discarded), ``reps`` timed passes, one traced pass."""
    info = provenance(seed, reps, smoke)
    _warn_if_loaded("start")
    timed: Dict[str, List[dict]] = {name: [] for name in workloads}
    passes = ([] if smoke else ["warm-up"]) + [f"rep {i + 1}/{reps}" for i in range(reps)]
    for label in passes:
        for name in workloads:
            rep = run_rep(name, seed, smoke=smoke,
                          inject_failure=inject_failure == name)
            print(f"[{label}] {name}: wall {rep['wall_s']:.3f} s, "
                f"setup {rep['setup_s']:.3f} s, rss {rep['peak_rss_mb']:.0f} MB")
            if label != "warm-up":
                timed[name].append(rep)
    traced = {}
    for name in workloads:
        traced[name] = run_rep(name, seed, traced=True, smoke=smoke)
        print(f"[traced] {name}: wall {traced[name]['wall_s']:.3f} s")
    probes = run_probes(smoke=smoke)
    first = timed[workloads[0]][0]
    info.update(numpy=first["versions"]["numpy"], blas=first["versions"]["blas"],
                loadavg_end=os.getloadavg()[0])
    _warn_if_loaded("end")
    return {
        "schema": RESULT_SCHEMA_VERSION,
        "provenance": info,
        "workloads": {
            name: workload_block(timed[name], traced[name], probes)
            for name in workloads
        },
        "spans": {name: traced[name]["spans"] for name in workloads},
    }


def format_report(result: dict) -> str:
    """Every metric by name, with its unit."""
    lines = []
    units = {m.name: m.unit for m in PER_LAYER}
    for name, block in result["workloads"].items():
        lines.append(f"== {name}  ({block['failed']} failed / "
                     f"{block['attempted']} attempted)")
        for metric in END_TO_END:
            s = block["end_to_end"][metric.name]
            if s is None:
                lines.append(f"  {metric.name:<34} null")
                continue
            lines.append(
                f"  {metric.name:<34} {s['median']:>12.4f} {metric.unit:<6}"
                f" q1 {s['q1']:.4f} q3 {s['q3']:.4f}"
                f" min {s['min']:.4f} max {s['max']:.4f} n={s['n']}"
                f" (bound {metric.bound:.0%})"
            )
        for key, value in block["per_layer"].items():
            if value:
                shown = f"{value:>12.0f}" if units[key] == "count" else f"{value:>12.4f}"
                lines.append(f"  {key:<34} {shown} {units[key]}")
        share = block["traced"]["attributed_share"]
        lines.append(f"  layer self times cover {share:.1%} of the traced timed section")
        for check in block["checks"]:
            if not check["ok"]:
                lines.append(f"  CHECK FAILED: {check['name']} {check['detail']}")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# python -m bench measure  (the BENCHMARK.json command)
# ----------------------------------------------------------------------
def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One contract run: the JSON object printed as the last line."""
    if trace:
        untraced = run_rep(workload, seed)
        traced = run_rep(workload, seed, traced=True)
        per_layer = dict(traced["per_layer"], **run_probes())
        per_layer["obs.trace_overhead_ratio"] = traced["wall_s"] / untraced["wall_s"]
        reps, checks = [untraced, traced], consistency_checks([untraced], traced)
        metrics = {m.name: _metric(float(per_layer[m.name]), m.unit) for m in PER_LAYER}
    else:
        start = time.perf_counter()
        reps = []
        while True:
            reps.append(run_rep(workload, seed))
            elapsed = time.perf_counter() - start
            # another rep only if it ends inside the budget
            if elapsed + 1.1 * reps[-1]["child_s"] > seconds:
                break
        setups = [r["setup_s"] for r in reps]
        while len(setups) < MIN_SETUP_SAMPLES:
            setups.append(run_rep(workload, seed, setup_only=True)["setup_s"])
        checks = consistency_checks(reps, None)
        medians = {
            "wall_s": statistics.median(r["wall_s"] for r in reps),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
            "comm_mb": statistics.median(r["comm_mb"] for r in reps),
        }
        metrics = {
            m.name: _metric(medians[m.name], m.unit) for m in END_TO_END if m.contract
        }
    attempted = sum(r["attempted"] for r in reps) + len(checks)
    failed = sum(r["failed"] for r in reps) + sum(not c["ok"] for c in checks)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
