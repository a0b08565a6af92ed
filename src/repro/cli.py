"""Command-line interface.

Six subcommands::

    python -m repro run --algorithm fedpkd --dataset cifar10 \
        --partition dir0.1 --scale tiny --rounds 5 --out history.json \
        --trace trace.jsonl --metrics-out metrics.jsonl

    python -m repro sweep grid.json --out-root results

    python -m repro experiment fig5 --scale small --out-dir results/fig5

    python -m repro results history1.json history2.json --target 0.5
    python -m repro results --registry results/registry --where algorithm=fedpkd

    python -m repro lint src

    python -m repro trace summarize trace.jsonl --metrics metrics.jsonl
    python -m repro trace validate trace.jsonl --metrics metrics.jsonl \
        --expect-scopes run,round --expect-events server_distill

``run`` executes one algorithm and writes its RunHistory as JSON (with
optional observability outputs; see docs/OBSERVABILITY.md); ``sweep``
expands a grid spec into a deduplicated run queue and executes it through
the result cache and run registry (docs/SWEEP.md); ``experiment``
regenerates one paper figure/table and prints its rows; ``results``
tabulates saved history JSON files or queries a sweep registry (with
``--aggregate seed`` collapsing same-config runs into mean±std rows);
``lint`` runs the repo's static analysis rules (docs/LINT.md); ``trace``
post-processes a run's JSONL trace into stage-time tables, hot-op
rankings and async critical paths, or validates it (and a metrics
export) against the observability schema (docs/OBSERVABILITY.md).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional, get_args, get_type_hints

from .algorithms import ALGORITHMS
from .experiments import (
    FIGURES, PARTITIONS, SCALES, ExperimentSetting, run_algorithm, save_results,
)
from .fl.config import RUN_KNOBS, RunKnobs

_METAVARS = {int: "N", float: "X", str: "PATH"}


def _csv(value: str) -> List[str]:
    return [item for item in value.split(",") if item]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="FedPKD reproduction command line"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one FL algorithm and save its history")
    run_p.add_argument("--algorithm", choices=sorted(ALGORITHMS), default="fedpkd")
    run_p.add_argument("--dataset", choices=("cifar10", "cifar100"), default="cifar10")
    run_p.add_argument("--partition", choices=sorted(PARTITIONS), default="dir0.5")
    run_p.add_argument("--scale", choices=sorted(SCALES), default="tiny")
    run_p.add_argument("--heterogeneous", action="store_true")
    run_p.add_argument("--rounds", type=int, default=None)
    run_p.add_argument("--seed", type=int, default=0)
    hints = get_type_hints(RunKnobs)
    for f in RUN_KNOBS:
        flag = f.metadata["flag"] or "--" + f.name.replace("_", "-")
        shared = {"dest": f.name, "help": f.metadata["help"]}
        # Optional[int] -> int; the CLI spelling of a fault plan is its path
        kind = (get_args(hints[f.name]) or (hints[f.name],))[0]
        if kind is bool:
            run_p.add_argument(flag, action="store_true", **shared)
            continue
        choices = f.metadata["choices"]
        run_p.add_argument(
            flag,
            type=kind,
            default=f.default,
            choices=choices,
            metavar=None if choices else _METAVARS[kind],
            **shared,
        )
    # on the command line, naming a checkpoint file means autosaving to it
    run_p.set_defaults(checkpoint_every=1)
    run_p.add_argument(
        "--resume",
        action="store_true",
        help="resume from --checkpoint if it exists; the finished run is "
        "bit-identical to one that never stopped",
    )
    run_p.add_argument("--out", default=None, help="path for the history JSON")
    run_p.add_argument("--verbose", action="store_true")

    exp_p = sub.add_parser("experiment", help="regenerate one paper figure/table")
    exp_p.add_argument("name", choices=sorted(FIGURES))
    exp_p.add_argument("--scale", choices=sorted(SCALES), default="tiny")
    exp_p.add_argument("--seed", type=int, default=0)
    exp_p.add_argument(
        "--out-dir",
        default=None,
        metavar="DIR",
        help="also write the experiment's raw result dict as <DIR>/<name>.json",
    )

    from .lint.cli import add_lint_parser

    add_lint_parser(sub)

    from .sweep.cli import add_sweep_parser

    add_sweep_parser(sub)

    trace_p = sub.add_parser(
        "trace", help="analyse a JSONL trace (timings, hot ops, critical path)"
    )
    trace_sub = trace_p.add_subparsers(dest="trace_command", required=True)

    sum_p = trace_sub.add_parser(
        "summarize",
        help="stage-time table plus top-K hot ops from profile events",
    )
    sum_p.add_argument("trace", help="JSONL trace from `repro run --trace`")
    sum_p.add_argument(
        "--metrics",
        default=None,
        metavar="PATH",
        help="also summarise registry/* gauges from this metrics export",
    )
    sum_p.add_argument(
        "--stage",
        default=None,
        help="restrict the hot-op table to one stage (e.g. local_train)",
    )
    sum_p.add_argument(
        "--top-k", type=int, default=10, help="hot ops to show (default 10)"
    )

    cp_p = trace_sub.add_parser(
        "critical-path",
        help="round-engine dispatch/arrival timelines and staleness",
    )
    cp_p.add_argument(
        "trace",
        help="JSONL trace of a run (async knobs such as --max-staleness, "
        "--buffer-size or --fault-plan give it stragglers and staleness)",
    )

    val_p = trace_sub.add_parser(
        "validate",
        help="check a trace (and metrics export) against the obs schema",
    )
    val_p.add_argument("trace", help="JSONL trace from `repro run --trace`")
    val_p.add_argument(
        "--metrics", default=None, metavar="PATH",
        help="also validate this metrics export",
    )
    val_p.add_argument(
        "--expect-scopes", type=_csv, default=(), metavar="S1,S2",
        help="fail unless every listed scope appears",
    )
    val_p.add_argument(
        "--expect-events", type=_csv, default=(), metavar="N1,N2",
        help="fail unless every listed span/event name appears",
    )

    res_p = sub.add_parser(
        "results", help="tabulate saved RunHistory JSON files or registry runs"
    )
    res_p.add_argument(
        "files", nargs="*", help="history JSON files from `repro run --out`"
    )
    res_p.add_argument(
        "--registry",
        default=None,
        metavar="DIR",
        help="also tabulate runs from a sweep registry directory "
        "(e.g. results/registry; see docs/SWEEP.md)",
    )
    res_p.add_argument(
        "--where",
        action="append",
        default=[],
        metavar="FIELD=VALUE",
        help="filter registry runs (repeatable), e.g. --where algorithm=fedpkd "
        "--where partition=dir0.5 --where status=completed",
    )
    res_p.add_argument(
        "--aggregate",
        choices=("seed",),
        default=None,
        help="with --registry: collapse runs identical up to this field "
        "into mean±std rows (n_seeds column shows group size)",
    )
    res_p.add_argument(
        "--target",
        type=float,
        default=None,
        help="also report cumulative MB until this accuracy is reached",
    )
    res_p.add_argument(
        "--metric",
        choices=("server", "client"),
        default="server",
        help="accuracy metric used for --target (default: server)",
    )
    res_p.add_argument(
        "--csv",
        default=None,
        metavar="PATH",
        help="export the per-round records of a single history as CSV",
    )

    parser.add_argument(
        "--log-level",
        default=None,
        choices=("debug", "info", "warning", "error"),
        help="configure the repro logger on stderr",
    )
    return parser


def _cmd_run(args: argparse.Namespace) -> int:
    if args.resume and not args.checkpoint_path:
        print("--resume requires --checkpoint", file=sys.stderr)
        return 2
    knobs = {f.name: getattr(args, f.name) for f in RUN_KNOBS}
    if not args.checkpoint_path:
        knobs["checkpoint_every"] = 0
    setting = ExperimentSetting(
        dataset=args.dataset,
        partition=args.partition,
        heterogeneous=args.heterogeneous,
        scale=args.scale,
        seed=args.seed,
        **knobs,
    )
    history = run_algorithm(
        setting, args.algorithm, rounds=args.rounds, resume=args.resume
    )
    last = history.records[-1]
    print(
        f"{args.algorithm} on {args.dataset}/{args.partition}: "
        f"S_acc={history.final_server_acc:.3f} "
        f"C_acc={history.final_client_acc:.3f} "
        f"comm={last.comm_total_mb:.2f}MB over {len(history)} rounds"
    )
    if args.out:
        with open(args.out, "w") as f:
            json.dump(history.to_dict(), f, indent=2)
        print(f"history written to {args.out}")
    if args.trace_path:
        print(f"trace written to {args.trace_path}")
    if args.metrics_path:
        print(f"metrics written to {args.metrics_path}")
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    figure = FIGURES[args.name]
    results = figure.run(scale=args.scale, seed=args.seed)
    print(figure.table(results))
    if args.out_dir:
        save_results(results, args.out_dir, args.name)
        print(f"results written to {args.out_dir}/{args.name}.json")
    return 0


def _cmd_trace_validate(args: argparse.Namespace) -> int:
    from .obs import SchemaError, validate_metrics_file, validate_trace_file

    path = args.trace
    try:
        count = validate_trace_file(path, args.expect_scopes, args.expect_events)
        print(f"ok {path}: {count} records")
        if args.metrics:
            path = args.metrics
            count = validate_metrics_file(path)
            print(f"ok {path}: {count} metrics")
    except (SchemaError, OSError) as exc:
        print(f"INVALID {path}: {exc}", file=sys.stderr)
        return 1
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    if args.trace_command == "validate":
        return _cmd_trace_validate(args)

    from .experiments.harness import format_table
    from .obs import trace_analysis as ta

    try:
        events = ta.load_trace(args.trace)
    except (OSError, ValueError) as exc:
        print(f"cannot read trace '{args.trace}': {exc}", file=sys.stderr)
        return 2

    if args.trace_command == "critical-path":
        summary = ta.critical_path(events)
        if not summary:
            print("no engine events in trace", file=sys.stderr)
            return 2
        rows = [
            [
                c["client_id"],
                c["dispatches"],
                c["mean_delay"],
                c["max_delay"],
                c["total_delay"],
                c["last_arrival"],
                "*" if c["client_id"] in summary["critical_clients"] else "",
            ]
            for c in summary["clients"]
        ]
        print(
            format_table(
                [
                    "client", "dispatches", "mean_delay", "max_delay",
                    "total_delay", "last_arrival", "critical",
                ],
                rows,
                title="async dispatch/arrival timelines (virtual clock)",
            )
        )
        print(f"\nstale drops: {summary['stale_drops']}")
        if "staleness" in summary:
            s = summary["staleness"]
            print(
                f"staleness of drops: mean={s['mean']:.2f} "
                f"p95={s['p95']:.2f} max={s['max']}"
            )
        if summary["faults"]:
            causes = ", ".join(
                f"{k}={v}" for k, v in sorted(summary["faults"].items())
            )
            print(f"injected faults: {causes}")
        return 0

    # summarize
    stage_rows = ta.stage_summary(events)
    if stage_rows:
        print(
            format_table(
                ["stage", "count", "total_s", "mean_s", "p50_s", "p95_s"],
                [
                    [r["stage"], r["count"], r["total_s"], r["mean_s"],
                     r["p50_s"], r["p95_s"]]
                    for r in stage_rows
                ],
                title="stage times (across rounds)",
            )
        )
    hot = ta.hot_ops(events, stage=args.stage, top_k=args.top_k)
    if hot:
        scope = args.stage or "all stages"
        print(
            "\n"
            + format_table(
                ["stage", "model", "op", "calls", "seconds", "gflops/s", "cum%"],
                [
                    [r["stage"], r["model"], r["op"], r["calls"], r["seconds"],
                     r["gflops_per_s"], f"{100 * r['cum_frac']:.0f}%"]
                    for r in hot
                ],
                title=f"top-{args.top_k} hot ops ({scope})",
            )
        )
        cov = ta.stage_coverage(events)
        if cov:
            print(
                "\n"
                + format_table(
                    ["stage", "wall_s", "ops_s", "coverage"],
                    [
                        [r["stage"], r["wall_s"], r["ops_s"],
                         f"{100 * r['coverage']:.1f}%"]
                        for r in cov
                    ],
                    title="profiled-op coverage of stage wall time",
                )
            )
    else:
        print("\nno profile events (re-run with --profile to get hot ops)")
    if args.metrics:
        try:
            reg = ta.registry_summary(ta.load_metrics(args.metrics))
        except (OSError, ValueError) as exc:
            print(f"cannot read metrics '{args.metrics}': {exc}", file=sys.stderr)
            return 2
        if reg:
            print(
                "\n"
                + format_table(
                    ["metric", "value"],
                    sorted(reg.items()),
                    title="cohort registry (spill/hydration) summary",
                )
            )
    return 0


def _aggregate_by_seed(records: List[dict]) -> List[dict]:
    """Collapse registry records identical up to ``setting.seed``.

    Returns synthetic rows carrying ``mean±std`` strings for the result
    fields and an ``n_seeds`` count; groups of one pass through as-is.
    """
    import re
    import statistics

    groups: dict = {}
    for record in records:
        config = record.get("config") or {}
        setting = dict(config.get("setting") or {})
        setting.pop("seed", None)
        key = json.dumps(
            {**config, "setting": setting}, sort_keys=True, default=str
        )
        groups.setdefault(key, []).append(record)

    def agg(values: List[float]) -> str:
        values = [v for v in values if v is not None]
        if not values:
            return "N/A"
        mean = statistics.fmean(values)
        std = statistics.stdev(values) if len(values) > 1 else 0.0
        return f"{mean:.3f}±{std:.3f}"

    rows = []
    for members in groups.values():
        members.sort(key=lambda r: r["run_key"])
        first = members[0]
        label = re.sub(r"/s\d+", "", first.get("label", "?"))
        statuses = {m["status"] for m in members}
        rows.append(
            {
                "label": label,
                "sweep": first.get("sweep", "?"),
                "status": next(iter(statuses)) if len(statuses) == 1 else "mixed",
                "n_seeds": len(members),
                "rounds": first.get("rounds"),
                "final_server_acc": agg([m.get("final_server_acc") for m in members]),
                "best_server_acc": agg([m.get("best_server_acc") for m in members]),
                "final_client_acc": agg([m.get("final_client_acc") for m in members]),
                "comm_mb": agg([m.get("comm_mb") for m in members]),
            }
        )
    rows.sort(key=lambda r: r["label"])
    return rows


def _cmd_registry_results(args: argparse.Namespace) -> int:
    from .experiments.harness import format_table
    from .sweep import RegistryError, RunRegistry, parse_where

    registry = RunRegistry(args.registry)
    try:
        records = registry.query(parse_where(args.where))
    except RegistryError as exc:
        print(f"registry error: {exc}", file=sys.stderr)
        return 2
    if getattr(args, "aggregate", None) == "seed":
        rows = _aggregate_by_seed(records)
        print(
            format_table(
                [
                    "label", "sweep", "status", "n_seeds", "rounds",
                    "final_S_acc", "best_S_acc", "final_C_acc", "comm_MB",
                ],
                [
                    [
                        r["label"], r["sweep"], r["status"], r["n_seeds"],
                        r["rounds"], r["final_server_acc"], r["best_server_acc"],
                        r["final_client_acc"], r["comm_mb"],
                    ]
                    for r in rows
                ],
                title=f"registry: {args.registry} (aggregated over seeds)",
            )
        )
        return 0
    records.sort(key=lambda r: (r.get("label", ""), r["run_key"]))
    headers = [
        "run_key",
        "sweep",
        "status",
        "label",
        "rounds",
        "final_S_acc",
        "best_S_acc",
        "final_C_acc",
        "comm_MB",
    ]
    rows = [
        [
            record["run_key"][:12],
            record.get("sweep", "?"),
            record["status"],
            record.get("label", "?"),
            record.get("rounds"),
            record.get("final_server_acc"),
            record.get("best_server_acc"),
            record.get("final_client_acc"),
            record.get("comm_mb"),
        ]
        for record in records
    ]
    print(format_table(headers, rows, title=f"registry: {args.registry}"))
    return 0


def _cmd_results(args: argparse.Namespace) -> int:
    from .experiments.harness import format_table
    from .fl.metrics import RunHistory

    if args.registry is not None:
        if args.files or args.csv:
            print(
                "--registry does not combine with history files or --csv",
                file=sys.stderr,
            )
            return 2
        return _cmd_registry_results(args)
    if args.where or args.aggregate:
        print("--where/--aggregate requires --registry", file=sys.stderr)
        return 2
    if not args.files:
        print("results: no history files given", file=sys.stderr)
        return 2

    histories = []
    for path in args.files:
        try:
            with open(path) as f:
                histories.append((path, RunHistory.from_dict(json.load(f))))
        except (OSError, ValueError, KeyError, TypeError) as exc:
            print(f"cannot read history '{path}': {exc}", file=sys.stderr)
            return 2

    if args.csv:
        if len(histories) != 1:
            print("--csv exports a single history file", file=sys.stderr)
            return 2
        with open(args.csv, "w") as f:
            f.write(histories[0][1].to_csv())
        print(f"per-round CSV written to {args.csv}")

    headers = [
        "file",
        "algorithm",
        "dataset",
        "rounds",
        "final_S_acc",
        "best_S_acc",
        "final_C_acc",
        "best_C_acc",
        "comm_MB",
    ]
    if args.target is not None:
        headers.append(f"MB_to_{args.target:g}")
    rows = []
    for path, history in histories:
        last_mb = history.records[-1].comm_total_mb if history.records else float("nan")
        row = [
            path,
            history.algorithm,
            history.dataset or "?",
            len(history),
            history.final_server_acc,
            history.best_server_acc,
            history.final_client_acc,
            history.best_client_acc,
            last_mb,
        ]
        if args.target is not None:
            row.append(history.comm_to_reach(args.target, metric=args.metric))
        rows.append(row)
    print(format_table(headers, rows))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    if getattr(args, "log_level", None):
        from .obs import configure_logging

        configure_logging(args.log_level)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "results":
        return _cmd_results(args)
    if args.command == "trace":
        return _cmd_trace(args)
    if args.command == "lint":
        from .lint.cli import cmd_lint

        return cmd_lint(args)
    if args.command == "sweep":
        from .sweep.cli import cmd_sweep

        return cmd_sweep(args)
    return _cmd_experiment(args)


if __name__ == "__main__":
    sys.exit(main())
