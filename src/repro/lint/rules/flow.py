"""Flow rule packs — findings computed on the whole-program model.

These rules set ``requires_project=True``: the engine calls them once
per module *after* every file has been summarised, with ``ctx.project``
holding the assembled :class:`~repro.lint.flow.ProjectModel`.  Each rule
filters the relevant global analysis down to the module it is currently
reporting on, and yields ``(line, col, extra_lines)`` position tuples so
pragma suppression covers the whole flagged statement.

Packs:

- ``flow-dtype`` — interprocedural float64 taint: an implicit
  allocation is flagged where it is *created*, with the reason being
  what it can *reach* (wire payload / training hot path);
- ``flow-checkpoint`` — exact-resume completeness for
  ``FederatedAlgorithm`` (``extra_state`` round-trip).
"""

from __future__ import annotations

from ..registry import register

__all__ = []


def _module_findings(ctx, findings):
    for finding in findings:
        if finding["module"] != ctx.module:
            continue
        yield (
            (finding["line"], finding["col"], tuple(finding["lines"])),
            finding["message"],
        )


@register(
    "flow-implicit-float64",
    pack="flow-dtype",
    severity="error",
    summary="implicit float64 allocation that can reach the wire or hot path",
    description=(
        "`np.full`/`np.zeros`/`np.ones`/`np.empty` default to float64. The "
        "flow analysis tracks each dtype-less allocation through local "
        "dataflow, function calls, returns, and `self.*` attributes; a "
        "buffer that can reach a `CommChannel` upload/download/broadcast "
        "payload or the `repro.nn`/`repro.fl.training` hot path violates "
        "the float32 wire discipline (`repro.nn.serialize.WIRE_DTYPE`) or "
        "silently doubles training memory. In the always-strict modules "
        "(prototypes, client knowledge, compression, nn, training) every "
        "implicit allocation is flagged. Pass `dtype=` explicitly — "
        "`np.float32` for wire payloads, or a deliberate `np.float64` "
        "where accumulation precision demands it."
    ),
    packages=("repro.core", "repro.fl", "repro.baselines", "repro.nn"),
    requires_project=True,
)
def check_flow_implicit_float64(ctx):
    yield from _module_findings(ctx, ctx.project.dtype_findings())


@register(
    "flow-extra-state",
    pack="flow-checkpoint",
    severity="error",
    summary="algorithm state not round-tripped by extra_state/load_extra_state",
    description=(
        "Exact resume (PR 2) requires every mutable `self.*` attribute a "
        "`FederatedAlgorithm` subclass writes outside `__init__` to be "
        "exported by `extra_state()` and restored by `load_extra_state()`. "
        "The analysis diffs attributes assigned anywhere in the class "
        "(minus base-managed plumbing and attributes owned by project "
        "ancestors) against the round-trip pair, resolving the pair "
        "through the inheritance chain; `self.__dict__` exports and "
        "`setattr` restores count as covering everything. A miss here is "
        "a checkpoint that resumes to a diverging run."
    ),
    packages=("repro.core", "repro.baselines", "repro.fl"),
    requires_project=True,
)
def check_flow_extra_state(ctx):
    yield from _module_findings(ctx, ctx.project.extra_state_findings())
