"""In-memory spans recorded by the benchmark around calls into the program.

A span is ``{"id", "name", "start", "end", "parent", "rep", "attrs"}``.
Spans nest strictly (one thread, closed-loop workloads), so a span's
*self time* is its duration minus the durations of its direct children:
the part of the interval no wrapped callee covers.  Spans are kept in a
list and written out once, when the traced rep ends.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterable, Iterator, List, Optional

Span = Dict[str, object]


class SpanRecorder:
    """Records nested spans; ``rep`` is the workload-rep id they share."""

    def __init__(self, rep: str) -> None:
        self.rep = rep
        self.spans: List[Span] = []
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str, **attrs) -> Iterator[Span]:
        record: Span = {
            "id": len(self.spans),
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": self._stack[-1] if self._stack else None,
            "rep": self.rep,
            "attrs": attrs,
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def wrap(
        self,
        fn: Callable,
        name: str,
        attrs: Optional[Callable[..., dict]] = None,
    ) -> Callable:
        """``fn`` with a span around every call; ``attrs(*args, **kwargs)``
        may derive span attributes from the call's arguments."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            extra = attrs(*args, **kwargs) if attrs is not None else {}
            with self.span(name, **extra):
                return fn(*args, **kwargs)

        return wrapper


def self_times(spans: Iterable[Span]) -> Dict[int, float]:
    """Span id -> duration minus the durations of its direct children."""
    spans = list(spans)
    own = {s["id"]: float(s["end"]) - float(s["start"]) for s in spans}
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= float(s["end"]) - float(s["start"])
    return own


def total_by(
    spans: Iterable[Span],
    key: Callable[[Span], Optional[str]],
    self_time: bool = True,
) -> Dict[str, float]:
    """Sum span self times (or whole durations) grouped by ``key(span)``;
    spans whose key is ``None`` are left out."""
    spans = list(spans)
    own = self_times(spans) if self_time else None
    totals: Dict[str, float] = {}
    for s in spans:
        group = key(s)
        if group is None:
            continue
        seconds = own[s["id"]] if own is not None else float(s["end"]) - float(s["start"])
        totals[group] = totals.get(group, 0.0) + seconds
    return totals
