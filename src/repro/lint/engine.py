"""The lint engine: file discovery, parsing, rule dispatch, suppression.

Zero third-party dependencies — parsing is stdlib :mod:`ast`, so the
engine analyses exactly what CPython would execute and never needs the
code imported (fixture files with deliberate violations stay inert).
Every rule sees one parsed module at a time (``ctx.tree``).

Suppression: a ``# lint: disable`` pragma suppresses a finding if it
sits on any *candidate line* of the flagged construct — the anchor line,
any line of a multi-line simple statement, or the ``def``/decorator
lines of a function — so decorating or wrapping a statement never
strands a pragma.  The pragma is the only exception mechanism: a pass
with findings fails.
"""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Sequence, Tuple

from .findings import Finding
from .pragmas import PragmaIndex
from .registry import Rule, all_rules

__all__ = ["ModuleContext", "LintResult", "LintEngine", "module_name_for"]


def module_name_for(path: str) -> str:
    """Derive a dotted module name from a file path.

    ``src/repro/nn/tensor.py`` → ``repro.nn.tensor``.  Anything without a
    ``repro`` component gets its bare stem, which only unscoped rules
    match — callers who want package-scoped rules on loose files pass an
    explicit module name instead.
    """
    parts = os.path.normpath(path).split(os.sep)
    stem = [p[:-3] if p.endswith(".py") else p for p in parts]
    if stem and stem[-1] == "__init__":
        stem = stem[:-1]
    if "repro" in stem:
        stem = stem[stem.index("repro"):]
        return ".".join(stem)
    return stem[-1] if stem else ""


@dataclass
class ModuleContext:
    """Everything a rule needs to inspect one module."""

    path: str
    module: str
    source: str
    tree: ast.AST
    lines: List[str] = field(default_factory=list)

    @classmethod
    def from_source(
        cls, source: str, path: str, module: Optional[str] = None
    ) -> "ModuleContext":
        tree = ast.parse(source, filename=path)
        return cls(
            path=path,
            module=module if module is not None else module_name_for(path),
            source=source,
            tree=tree,
            lines=source.splitlines(),
        )

    def is_package_init(self) -> bool:
        return os.path.basename(self.path) == "__init__.py"


@dataclass
class LintResult:
    """Outcome of one lint pass."""

    findings: List[Finding] = field(default_factory=list)
    suppressed: int = 0
    files: int = 0

    @property
    def ok(self) -> bool:
        return not self.findings

    def render(self) -> str:
        """Text report: one ``file:line:col`` line per finding, then a tally."""
        lines = [f.render() for f in self.findings]
        lines.append(
            f"{self.files} file(s): {len(self.findings)} finding(s), "
            f"{self.suppressed} suppressed"
        )
        return "\n".join(lines)


def _iter_py_files(paths: Sequence[str]) -> Iterable[str]:
    for path in paths:
        if os.path.isdir(path):
            for dirpath, dirnames, filenames in os.walk(path):
                dirnames[:] = sorted(
                    d
                    for d in dirnames
                    if not d.startswith(".") and d != "__pycache__"
                )
                for name in sorted(filenames):
                    if name.endswith(".py"):
                        yield os.path.join(dirpath, name)
        else:
            yield path


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as f:
        return f.read()


def _position(node) -> Tuple[int, int]:
    return getattr(node, "lineno", 1), getattr(node, "col_offset", 0)


_HEADER_ONLY_STMTS = (
    ast.For,
    ast.AsyncFor,
    ast.While,
    ast.If,
    ast.With,
    ast.AsyncWith,
    ast.Try,
)


def _pragma_lines(node) -> List[int]:
    """Candidate lines on which a pragma suppresses this finding.

    - functions/classes: the ``def``/``class`` line and every decorator
      line, so ``# lint: disable`` above a decorated function works;
    - compound statements: the header line only (a pragma inside the
      body should not silence the header);
    - everything else: the node's full line span, so a pragma on any
      physical line of a multi-line statement counts.
    """
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.lineno] + [dec.lineno for dec in node.decorator_list]
    if isinstance(node, _HEADER_ONLY_STMTS):
        return [node.lineno]
    lineno = getattr(node, "lineno", 1)
    end = getattr(node, "end_lineno", None) or lineno
    return list(range(lineno, end + 1))


class LintEngine:
    """Run a set of rules over files, sources, or whole trees."""

    def __init__(
        self,
        rules: Optional[Sequence[Rule]] = None,
        root: Optional[str] = None,
    ) -> None:
        self.rules: List[Rule] = list(rules) if rules is not None else all_rules()
        self.root = root or os.getcwd()

    # ------------------------------------------------------------------
    # entry points
    # ------------------------------------------------------------------
    def lint_source(
        self,
        source: str,
        path: str = "<snippet>",
        module: Optional[str] = None,
    ) -> LintResult:
        """Lint one in-memory module."""
        return self._lint([(source, path, module)])

    def lint_paths(self, paths: Sequence[str]) -> LintResult:
        """Lint every ``.py`` file under ``paths``."""
        return self._lint(
            (_read(path), self._display(path), None)
            for path in _iter_py_files(paths)
        )

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _display(self, path: str) -> str:
        display = os.path.relpath(path, self.root)
        if display.startswith(".."):
            display = path
        return display.replace(os.sep, "/")

    def _lint(
        self, sources: Iterable[Tuple[str, str, Optional[str]]]
    ) -> LintResult:
        result = LintResult()
        for source, display, module in sources:
            result.files += 1
            try:
                ctx = ModuleContext.from_source(source, display, module=module)
            except SyntaxError as exc:
                result.findings.append(
                    Finding(
                        rule="syntax-error",
                        path=display,
                        line=exc.lineno or 1,
                        col=(exc.offset or 1) - 1,
                        message=f"cannot parse: {exc.msg}",
                    )
                )
                continue
            self._check(ctx, PragmaIndex.from_source(source), result)
        result.findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
        return result

    def _check(
        self, ctx: ModuleContext, pragmas: PragmaIndex, result: LintResult
    ) -> None:
        for rule in self.rules:
            if not rule.applies_to(ctx.module):
                continue
            for node, message in rule.check(ctx):
                if pragmas.suppresses_any(rule.id, _pragma_lines(node)):
                    result.suppressed += 1
                    continue
                line, col = _position(node)
                result.findings.append(
                    Finding(
                        rule=rule.id,
                        path=ctx.path,
                        line=line,
                        col=col,
                        message=message,
                        severity=rule.severity,
                    )
                )
