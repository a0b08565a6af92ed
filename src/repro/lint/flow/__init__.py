"""repro.lint.flow — whole-program analysis behind the flow rule packs.

The syntactic rules in :mod:`repro.lint.rules` each look at one module in
isolation.  This package adds the project layer:

- :mod:`.summary` extracts a JSON-serialisable :class:`ModuleSummary` per
  module — imports, class/attribute model, dataclass fields, and a
  per-function dataflow summary (implicit-float64 allocation sites and
  the edges along which their values escape);
- :mod:`.project` assembles summaries into a :class:`ProjectModel`:
  resolved base-class hierarchy, call-graph edges, and the
  interprocedural float64 taint propagation the ``flow-*`` rules query.

Summaries are deliberately self-contained dicts so the incremental cache
(:mod:`repro.lint.cache`) can persist them per file: a warm lint pass
reloads summaries for unchanged files and only re-runs the cheap global
propagation, which is what keeps whole-program analysis inside the CI
wall-time budget.
"""

from .project import (
    ALWAYS_DTYPE_MODULES,
    DTYPE_ZONE,
    HOT_MODULE_PREFIXES,
    ProjectModel,
)
from .summary import SUMMARY_VERSION, ModuleSummary, summarize_module

__all__ = [
    "ModuleSummary",
    "ProjectModel",
    "SUMMARY_VERSION",
    "summarize_module",
    "HOT_MODULE_PREFIXES",
    "ALWAYS_DTYPE_MODULES",
    "DTYPE_ZONE",
]
