"""``repro lint`` subcommand::

    repro lint src/
    repro lint src/ --rules det-unseeded-rng,comm-unmetered-exchange

Every file under the given paths is analysed and reported as
``file:line:col`` text.  Exit codes: 0 clean, 1 findings, 2 usage
errors.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .engine import LintEngine

__all__ = ["add_lint_parser", "cmd_lint", "main"]


def add_lint_parser(sub) -> argparse.ArgumentParser:
    """Attach the ``lint`` subparser to a ``repro`` subparsers object."""
    lint_p = sub.add_parser("lint", help="static analysis of the source tree")
    lint_p.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files/directories to lint (default: src)",
    )
    lint_p.add_argument(
        "--rules",
        type=lambda value: [item for item in value.split(",") if item],
        default=None,
        metavar="R1,R2",
        help="run only these rule ids",
    )
    return lint_p


def cmd_lint(args: argparse.Namespace) -> int:
    engine = LintEngine()
    if args.rules:
        known = {rule.id: rule for rule in engine.rules}
        unknown = [r for r in args.rules if r not in known]
        if unknown:
            print(f"unknown rule id(s): {', '.join(unknown)}", file=sys.stderr)
            return 2
        engine.rules = [known[r] for r in args.rules]
    try:
        result = engine.lint_paths(args.paths)
    except OSError as exc:
        print(f"cannot lint: {exc}", file=sys.stderr)
        return 2
    print(result.render())
    return 0 if result.ok else 1


def main(argv: Optional[List[str]] = None) -> int:
    """Standalone entrypoint (``python -m repro.lint.cli``)."""
    if argv is None:
        argv = sys.argv[1:]
    parser = argparse.ArgumentParser(prog="repro lint")
    sub = parser.add_subparsers(dest="command", required=True)
    add_lint_parser(sub)
    return cmd_lint(parser.parse_args(["lint", *argv]))


if __name__ == "__main__":
    sys.exit(main())
