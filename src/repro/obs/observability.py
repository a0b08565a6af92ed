"""The per-federation observability bundle: one tracer + one registry.

:func:`~repro.fl.simulation.build_federation` constructs an
:class:`Observability` from the :class:`~repro.fl.config.FederationConfig`
(``trace_path`` / ``metrics_path``) and hangs it on the federation; the
round engine, the executors, the communication channel, the dropout log
and the algorithms all publish through it.  When neither path is set the
bundle is fully disabled — a :class:`~repro.obs.tracer.NullTracer` plus a
disabled registry — and every instrumented call site degrades to a no-op.
"""

from __future__ import annotations

from typing import Optional

from contextlib import nullcontext

from .metrics import MetricsRegistry
from .profile import OpProfiler, activate
from .tracer import NullTracer, Tracer

__all__ = ["Observability", "NULL_OBS"]


class Observability:
    """Tracer + metrics registry + export destination for one run."""

    def __init__(
        self,
        tracer=None,
        metrics: Optional[MetricsRegistry] = None,
        metrics_path: Optional[str] = None,
        profiler: Optional[OpProfiler] = None,
    ) -> None:
        self.tracer = tracer if tracer is not None else NullTracer()
        self.metrics = (
            metrics if metrics is not None else MetricsRegistry(enabled=False)
        )
        self.metrics_path = metrics_path
        self.profiler = profiler

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_config(cls, config) -> "Observability":
        """Build from a config carrying ``trace_path`` / ``metrics_path`` /
        ``profile``.

        Any one of them switches the whole bundle on (the metrics registry
        feeds ``RoundRecord.extras`` even when only tracing or only
        profiling was asked for); with none, the bundle is disabled.
        """
        trace_path = config.trace_path
        metrics_path = config.metrics_path
        profile = config.profile
        if not trace_path and not metrics_path and not profile:
            return cls.disabled()
        tracer = Tracer(trace_path) if trace_path else NullTracer()
        profiler = OpProfiler() if profile else None
        return cls(tracer, MetricsRegistry(enabled=True), metrics_path, profiler)

    @classmethod
    def disabled(cls) -> "Observability":
        return cls()

    # ------------------------------------------------------------------
    # state
    # ------------------------------------------------------------------
    @property
    def enabled(self) -> bool:
        return (
            bool(self.tracer)
            or self.metrics.enabled
            or self.profiler is not None
        )

    def __bool__(self) -> bool:
        return self.enabled

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def mark_resume(self, round_index: Optional[int] = None) -> None:
        """Tell the tracer this run continues an earlier one.

        The next trace record then opens the file in append mode behind a
        ``resume`` marker carrying the restored round index.
        """
        attrs = {} if round_index is None else {"round_index": int(round_index)}
        self.tracer.set_resume(attrs)

    # ------------------------------------------------------------------
    # profiling
    # ------------------------------------------------------------------
    def profile_session(self):
        """Activate this bundle's profiler for the duration of the block.

        A no-op (``nullcontext``) when profiling is off, so engines can
        wrap their run loops unconditionally.
        """
        if self.profiler is None:
            return nullcontext()
        return activate(self.profiler)

    def profile_stage(self, name: str):
        """Attribute profiled ops inside the block to stage ``name``."""
        if self.profiler is None:
            return nullcontext()
        return self.profiler.stage(name)

    def profile_model(self, name) -> object:
        """Attribute profiled ops inside the block to model ``name``."""
        if self.profiler is None:
            return nullcontext()
        return self.profiler.model(name)

    def publish_profile(self) -> None:
        """Export the profiler aggregate into metrics gauges + trace events.

        Idempotent per aggregate state: gauges are overwritten and trace
        consumers keep the last ``profile/op`` event per key, so engines
        can publish at the end of every ``run()`` call.
        """
        if self.profiler is not None and len(self.profiler):
            self.profiler.publish(metrics=self.metrics, tracer=self.tracer)

    def export_metrics(self) -> None:
        """Write the registry to ``metrics_path`` (atomic full rewrite)."""
        if self.metrics_path and self.metrics.enabled:
            self.metrics.export(self.metrics_path)

    def close(self) -> None:
        self.publish_profile()
        self.export_metrics()
        self.tracer.close()


#: Shared disabled bundle — safe because a disabled bundle holds no state.
NULL_OBS = Observability()
