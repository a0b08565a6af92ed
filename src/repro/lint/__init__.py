"""repro.lint — AST-based static analysis for the repo's own invariants.

The headline guarantees (bit-identical serial/parallel histories, exact
resume, obs-off invariance, honest communication accounting) rest on
coding conventions; this package machine-checks them.  Zero third-party
dependencies: parsing is stdlib :mod:`ast`.

Pieces:

- :class:`LintEngine` — walks files, parses, dispatches registered rules,
  honours ``# lint: disable=`` pragmas (the only exception mechanism);
- rule packs under :mod:`repro.lint.rules` (determinism, comm, autograd,
  obs, hygiene), self-registered with catalog metadata;
- :meth:`LintResult.render` — the ``file:line:col`` text report.

Quickstart::

    repro lint src/

See ``docs/LINT.md`` for the rule catalog and the pragma workflow.
"""

from .engine import LintEngine, LintResult, ModuleContext, module_name_for
from .findings import SEVERITIES, Finding
from .pragmas import PragmaIndex
from .registry import Rule, all_rules, get_rule, packs, register

__all__ = [
    "Finding",
    "SEVERITIES",
    "LintEngine",
    "LintResult",
    "ModuleContext",
    "module_name_for",
    "PragmaIndex",
    "Rule",
    "register",
    "all_rules",
    "get_rule",
    "packs",
]
