"""repro.lint.flow — whole-program analysis behind the flow rule packs.

The syntactic rules in :mod:`repro.lint.rules` each look at one module in
isolation.  This package adds the project layer:

- :mod:`.summary` extracts a plain-dict summary per module — imports,
  class/attribute model, dataclass fields, and a per-function dataflow
  summary (implicit-float64 allocation sites and the edges along which
  their values escape);
- :mod:`.project` assembles summaries into a :class:`ProjectModel`:
  resolved base-class hierarchy, call-graph edges, and the
  interprocedural float64 taint propagation the ``flow-*`` rules query.

Each file is parsed once; the global propagation then runs on the
summaries alone.
"""

from .project import (
    ALWAYS_DTYPE_MODULES,
    DTYPE_ZONE,
    HOT_MODULE_PREFIXES,
    ProjectModel,
)
from .summary import summarize_module

__all__ = [
    "ProjectModel",
    "summarize_module",
    "HOT_MODULE_PREFIXES",
    "ALWAYS_DTYPE_MODULES",
    "DTYPE_ZONE",
]
