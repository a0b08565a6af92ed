"""``python -m bench {run,compare,measure,manifest}`` — see bench/README.md."""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import SRC
from .schema import RUN_SECONDS, WORKLOADS, benchmark_json, validate_result


def _require_program() -> None:
    """The benchmark measures ``src/repro`` of the checkout it sits in."""
    if not os.path.isdir(os.path.join(SRC, "repro")):
        sys.exit(f"bench: no program to measure: {os.path.join(SRC, 'repro')} "
                 "does not exist")


def _cmd_run(args) -> int:
    from .driver import format_report, run_suite

    _require_program()
    names = args.workloads.split(",") if args.workloads else list(WORKLOADS)
    unknown = [n for n in names + [args.inject_failure] if n and n not in WORKLOADS]
    if unknown:
        sys.exit(f"bench: unknown workload(s) {unknown}; choose from {list(WORKLOADS)}")
    reps = 1 if args.smoke and args.reps is None else (args.reps or 5)
    result = run_suite(names, seed=args.seed, reps=reps, smoke=args.smoke,
                       inject_failure=args.inject_failure)
    spans = result.pop("spans")
    problems = validate_result(result)
    with open(args.out, "w", encoding="utf-8") as f:
        json.dump(result, f, indent=1)
        f.write("\n")
    with open(args.out + ".spans.json", "w", encoding="utf-8") as f:
        json.dump(spans, f)
    print(format_report(result))
    for problem in problems:
        print(f"SCHEMA: {problem}", file=sys.stderr)
    failed = sum(block["failed"] for block in result["workloads"].values())
    return 1 if failed or problems else 0


def _cmd_compare(args) -> int:
    from .compare import compare

    with open(args.a, "r", encoding="utf-8") as fa, open(args.b, "r", encoding="utf-8") as fb:
        lines, regressed = compare(json.load(fa), json.load(fb))
    print("\n".join(lines))
    return 1 if regressed else 0


def _cmd_measure(args) -> int:
    from .driver import measure

    _require_program()
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


def _cmd_manifest(args) -> int:
    print(json.dumps(benchmark_json(), indent=2))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m bench", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="all workloads: warm-up, timed reps, traced rep")
    run.add_argument("--out", required=True, help="result file (plus <out>.spans.json)")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--reps", type=int, default=None, help="timed passes (default 5)")
    run.add_argument("--workloads", default=None, help="comma-separated subset")
    run.add_argument("--smoke", action="store_true",
                     help="1 rep, cut rounds, no warm-up; all checks still on")
    run.add_argument("--inject-failure", default=None, metavar="WORKLOAD",
                     help="self-test hook: add a failing check to this workload")
    run.set_defaults(fn=_cmd_run)

    cmp_ = sub.add_parser("compare", help="B against baseline A; exit 1 on a regression")
    cmp_.add_argument("a")
    cmp_.add_argument("b")
    cmp_.set_defaults(fn=_cmd_compare)

    measure = sub.add_parser("measure", help="the BENCHMARK.json command: one workload")
    measure.add_argument("--workload", required=True, choices=list(WORKLOADS))
    measure.add_argument("--seed", type=int, required=True)
    measure.add_argument("--seconds", type=float, default=RUN_SECONDS)
    measure.add_argument("--trace", type=int, choices=(0, 1), default=0)
    measure.set_defaults(fn=_cmd_measure)

    manifest = sub.add_parser("manifest", help="print BENCHMARK.json from bench/schema.py")
    manifest.set_defaults(fn=_cmd_manifest)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
