"""One rep of one workload, in its own process.

``python -m bench.child --workload W --seed N --out FILE [--traced]
[--smoke] [--setup-only] [--inject-failure]``, or ``--probes`` for the
outside ``repro.nn`` probes.  The driver starts a fresh child per rep
because a user pays imports and cold caches on every ``repro run``; the
clock for ``setup_s`` therefore starts at :func:`main`'s first line, before
numpy or ``repro`` is imported.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from . import SRC

BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _pin_blas() -> None:
    """One BLAS thread, decided before numpy loads its BLAS."""
    if "numpy" in sys.modules:
        raise RuntimeError("numpy was imported before the BLAS threads were pinned")
    for name in BLAS_ENV:
        os.environ[name] = "1"


def run_workload(args, t0: float) -> dict:
    from .workloads import WORKLOAD_FUNCTIONS, Context, SetupDone

    ctx = Context(
        seed=args.seed, tmp=os.path.dirname(os.path.abspath(args.out)), t0=t0,
        smoke=args.smoke, traced=args.traced, setup_only=args.setup_only,
    )
    recorder = algos = None
    if args.traced:
        import repro.sweep  # noqa: F401 - every namespace to patch must exist

        from .instrument import install
        from .spans import SpanRecorder

        recorder = SpanRecorder(rep=f"{args.workload}/seed{args.seed}/traced")
        algos = install(recorder)
    try:
        WORKLOAD_FUNCTIONS[args.workload](ctx)
    except SetupDone:
        return {"workload": args.workload, "setup_s": ctx.t_ready - t0}
    if args.inject_failure:
        ctx.check("injected failure (self-test hook)", False)

    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    failed_checks = sum(not c["ok"] for c in ctx.checks)
    wall = ctx.wall_s if ctx.wall_s is not None else ctx.t_done - ctx.t_ready
    comm = ctx.comm_bytes()
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "traced": args.traced,
        "setup_s": ctx.t_ready - t0,
        "wall_s": wall,
        "comm_mb": comm / (1024.0 * 1024.0),
        "speedup_vs_serial": ctx.timings.get("speedup_vs_serial"),
        "attempted": ctx.ops_attempted + len(ctx.checks),
        "failed": ctx.ops_failed + failed_checks,
        "checks": ctx.checks,
        "quality": ctx.quality(),
        "history_sha256": ctx.history_sha256(),
        "counts": dict(ctx.counts, comm_bytes=comm,
                       rounds_recorded=sum(len(h.records) for h in ctx.histories.values())),
        "timings": ctx.timings,
        "versions": {
            "numpy": numpy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
        },
    }
    if args.traced:
        from .layers import derive

        per_layer, layer_self = derive(ctx, recorder.spans, algos)
        result.update(
            per_layer=per_layer,
            layer_self_s=layer_self,
            timed_section_s=ctx.t_done - ctx.t_ready,
            spans=recorder.spans,
        )
    return result


def main(argv=None) -> int:
    t0 = time.perf_counter()
    _pin_blas()
    sys.path.insert(0, SRC)
    parser = argparse.ArgumentParser(prog="python -m bench.child")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", required=True)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--inject-failure", action="store_true")
    parser.add_argument("--probes", action="store_true")
    args = parser.parse_args(argv)
    if args.probes:
        from .probes import run_probes

        result = run_probes(calls=20 if args.smoke else 200)
    else:
        result = run_workload(args, t0)
    with open(args.out, "w", encoding="utf-8") as f:
        json.dump(result, f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
