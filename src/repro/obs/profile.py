"""Opt-in op-level profiler for the numpy substrate.

The profiler attributes wall time, estimated FLOPs, and allocated bytes
to named substrate ops (``matmul``, ``conv2d``, ``relu.bwd``, ...) and
aggregates them along two axes set by the caller: the federated *stage*
(``local_train`` / ``public_train`` / ``server_distill`` / ``eval``) and
the *model* architecture the op ran under.

Design constraints, in order:

1. **Zero cost when off.**  Hooks in ``repro.nn`` check the module
   global ``ACTIVE`` and fall through to the original code path when it
   is ``None`` (the default).  No timing, no allocation, no change to
   numerics — bit-identity of unprofiled runs is by construction, and
   CI enforces it.
2. **No numeric interference when on.**  Profiling only *times* ops; it
   never touches array values, dtypes, or RNG streams, so a profiled
   run produces the same history as an unprofiled one (modulo the
   ``profile/*`` metric gauges that ride along in round extras).
3. **Mergeable across processes.**  The parallel executor ships each
   worker's aggregate back as a plain dict (:meth:`OpProfiler.to_payload`)
   and folds it into the driver profiler (:meth:`OpProfiler.merge`), so
   per-worker attribution survives process-pool dispatch.

FLOPs are *estimates* from shape arithmetic (see docs/OBSERVABILITY.md
for the formulas); bytes are the forward output allocation
(``out.data.nbytes``).  Graph nodes' backward closures are wrapped at
forward time but re-check ``ACTIVE`` when they fire, so a backward pass
that happens outside a profiling session stays untimed and unperturbed.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional, Tuple

__all__ = [
    "ACTIVE",
    "OpProfiler",
    "activate",
    "wrap_backward",
]

#: The currently-active profiler, or ``None`` (the default: profiling
#: off).  Hooks read this on every call; ``activate`` swaps it.
ACTIVE: Optional["OpProfiler"] = None

#: Fallback attribution for ops recorded outside any stage/model context
#: (e.g. federation build, ad-hoc Tensor math in tests).
UNATTRIBUTED = "unattributed"

# key layout inside OpProfiler._stats values
_CALLS, _SECONDS, _FLOPS, _BYTES = range(4)


class OpProfiler:
    """Aggregates per-op cost keyed by ``(stage, model, op)``.

    Not thread-safe by design: the driver runs client work either inline
    (single thread) or in worker *processes*, each of which owns its own
    profiler instance.
    """

    __slots__ = ("_stats", "_stage_stack", "_model_stack")

    def __init__(self) -> None:
        self._stats: Dict[Tuple[str, str, str], List[float]] = {}
        self._stage_stack: List[str] = []
        self._model_stack: List[str] = []

    # ------------------------------------------------------------------
    # attribution contexts
    # ------------------------------------------------------------------
    @contextmanager
    def stage(self, name: str) -> Iterator[None]:
        """Attribute ops recorded inside the block to stage ``name``."""
        self._stage_stack.append(str(name))
        try:
            yield
        finally:
            self._stage_stack.pop()

    @contextmanager
    def model(self, name: Optional[str]) -> Iterator[None]:
        """Attribute ops recorded inside the block to model ``name``."""
        self._model_stack.append(str(name) if name else UNATTRIBUTED)
        try:
            yield
        finally:
            self._model_stack.pop()

    @property
    def current_stage(self) -> str:
        return self._stage_stack[-1] if self._stage_stack else UNATTRIBUTED

    @property
    def current_model(self) -> str:
        return self._model_stack[-1] if self._model_stack else UNATTRIBUTED

    # ------------------------------------------------------------------
    # recording and aggregation
    # ------------------------------------------------------------------
    def record(
        self, op: str, seconds: float, flops: float = 0.0, nbytes: float = 0.0
    ) -> None:
        """Add one op invocation under the current stage/model context."""
        key = (self.current_stage, self.current_model, op)
        cell = self._stats.get(key)
        if cell is None:
            cell = self._stats[key] = [0.0, 0.0, 0.0, 0.0]
        cell[_CALLS] += 1
        cell[_SECONDS] += seconds
        cell[_FLOPS] += flops
        cell[_BYTES] += nbytes

    def merge(self, payload: Optional[Dict[str, List[float]]]) -> None:
        """Fold a :meth:`to_payload` dict (e.g. from a worker) into this one."""
        if not payload:
            return
        for flat_key, values in payload.items():
            stage, model, op = flat_key.split("|", 2)
            cell = self._stats.get((stage, model, op))
            if cell is None:
                cell = self._stats[(stage, model, op)] = [0.0, 0.0, 0.0, 0.0]
            for i in range(4):
                cell[i] += values[i]

    def to_payload(self) -> Dict[str, List[float]]:
        """JSON/pickle-safe flat form for shipping across processes."""
        return {
            "|".join(key): list(values) for key, values in self._stats.items()
        }

    def reset(self) -> None:
        self._stats.clear()

    # ------------------------------------------------------------------
    # views
    # ------------------------------------------------------------------
    def __bool__(self) -> bool:
        return True

    def __len__(self) -> int:
        return len(self._stats)

    def total_seconds(self) -> float:
        return sum(cell[_SECONDS] for cell in self._stats.values())

    def rows(self) -> List[Dict[str, Any]]:
        """Aggregate rows sorted by descending total seconds."""
        out = []
        for (stage, model, op), cell in self._stats.items():
            out.append(
                {
                    "stage": stage,
                    "model": model,
                    "op": op,
                    "calls": int(cell[_CALLS]),
                    "seconds": cell[_SECONDS],
                    "flops": cell[_FLOPS],
                    "bytes": cell[_BYTES],
                }
            )
        out.sort(key=lambda r: (-r["seconds"], r["stage"], r["model"], r["op"]))
        return out

    # ------------------------------------------------------------------
    # export
    # ------------------------------------------------------------------
    def publish(self, metrics=None, tracer=None) -> None:
        """Export the aggregate into the obs bundle.

        Metrics land as cumulative *gauges* (idempotent — re-publishing
        after more rounds just moves the gauge), one per aggregate cell:
        ``profile/<stage>/<model>/<op>/{calls,seconds,flops,bytes}``.
        Trace output is one ``profile/op`` event per cell under the
        ``profile`` scope; consumers keep the last event per key.
        """
        rows = self.rows()
        if metrics is not None and getattr(metrics, "enabled", False):
            for row in rows:
                base = _metric_base(row["stage"], row["model"], row["op"])
                metrics.gauge(base + "/calls").set(row["calls"])
                metrics.gauge(base + "/seconds").set(round(row["seconds"], 6))
                metrics.gauge(base + "/flops").set(row["flops"])
                metrics.gauge(base + "/bytes").set(row["bytes"])
        if tracer is not None and tracer:
            for row in rows:
                tracer.event(
                    "profile/op",
                    scope="profile",
                    attrs={
                        "stage": row["stage"],
                        "model": row["model"],
                        "op": row["op"],
                        "calls": row["calls"],
                        "seconds": round(row["seconds"], 6),
                        "flops": row["flops"],
                        "bytes": row["bytes"],
                    },
                )


def _metric_base(stage: str, model: str, op: str) -> str:
    """Build a MetricsRegistry-legal name component from attribution keys."""
    return "profile/{}/{}/{}".format(
        _sanitise(stage), _sanitise(model), _sanitise(op)
    )


def _sanitise(part: str) -> str:
    """Lowercase and strip characters the metric-name regex rejects."""
    cleaned = "".join(
        ch if (ch.isalnum() or ch in "_.-") else "-" for ch in str(part).lower()
    )
    return cleaned or UNATTRIBUTED


# ----------------------------------------------------------------------
# activation + backward hooks (used by repro.nn)
# ----------------------------------------------------------------------
@contextmanager
def activate(profiler: Optional[OpProfiler]) -> Iterator[Optional[OpProfiler]]:
    """Install ``profiler`` as the process-wide active profiler.

    Nested activations stack: the previous profiler is restored on exit.
    Passing ``None`` explicitly disables profiling inside the block.
    """
    global ACTIVE
    previous = ACTIVE
    ACTIVE = profiler
    try:
        yield profiler
    finally:
        ACTIVE = previous


def wrap_backward(node, op: str, flops: float = 0.0) -> None:
    """Replace a graph node's backward closure with a timed wrapper.

    ``node`` is an op output's ``Tensor._node`` (``None`` when the op
    recorded no graph, which leaves nothing to wrap).  The wrapper re-checks
    :data:`ACTIVE` when the backward pass fires, so gradients computed
    outside a profiling session pay nothing and record nothing.  ``flops``
    is the *backward* estimate (typically 2x the forward estimate: one pass
    per parent).
    """
    if node is None or node.backward is None:
        return
    inner = node.backward
    name = op + ".bwd"

    def timed_backward(grad):
        prof = ACTIVE
        if prof is None:
            inner(grad)
            return
        start = time.perf_counter()
        inner(grad)
        prof.record(
            name, time.perf_counter() - start, flops, getattr(grad, "nbytes", 0)
        )

    node.backward = timed_backward
