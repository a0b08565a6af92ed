"""Simulated client↔server communication channel with byte accounting.

The paper's communication-efficiency results (Fig. 3, Table I) measure the
MB transferred until a target accuracy is reached.  Every payload an
algorithm sends must go through :class:`CommChannel`, which sizes it via
:func:`repro.nn.serialize.payload_num_bytes` and keeps per-client,
per-direction, and per-round ledgers.  Arrays are sized as float32
elements whatever dtype they hold, so a payload computed in float64
meters the paper's float32 bytes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from ..nn.serialize import Payload, payload_num_bytes

__all__ = ["CommChannel", "ChannelSnapshot"]

_MB = 1024.0 * 1024.0


@dataclass
class ChannelSnapshot:
    """Cumulative traffic totals at one point in time (bytes)."""

    uplink: int
    downlink: int

    @property
    def total(self) -> int:
        return self.uplink + self.downlink

    @property
    def total_mb(self) -> float:
        return self.total / _MB


class CommChannel:
    """Byte-accounting ledger for a simulated FL deployment.

    With a :class:`~repro.obs.metrics.MetricsRegistry` attached, every
    transfer additionally publishes ``channel/uplink_bytes`` /
    ``channel/downlink_bytes`` counters and a ``channel/payload_bytes``
    size histogram; the ledger itself is unaffected.
    """

    def __init__(self, metrics=None) -> None:
        self._uplink: Dict[int, int] = {}
        self._downlink: Dict[int, int] = {}
        self._round_marks: List[ChannelSnapshot] = []
        self._metrics = metrics

    def attach_metrics(self, metrics) -> None:
        """Publish transfer metrics into ``metrics`` from now on."""
        self._metrics = metrics

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def _publish(self, direction: str, size: int) -> None:
        metrics = self._metrics
        if metrics is None or not metrics.enabled:
            return
        from ..obs.metrics import DEFAULT_BYTE_BUCKETS

        metrics.counter(f"channel/{direction}_bytes").inc(size)
        metrics.counter(f"channel/{direction}_payloads").inc()
        metrics.histogram(
            "channel/payload_bytes", buckets=DEFAULT_BYTE_BUCKETS
        ).observe(size)

    def upload(self, client_id: int, payload: Payload) -> int:
        """Record a client→server transfer; returns its size in bytes."""
        size = payload_num_bytes(payload)
        self._uplink[client_id] = self._uplink.get(client_id, 0) + size
        self._publish("uplink", size)
        return size

    def download(self, client_id: int, payload: Payload) -> int:
        """Record a server→client transfer; returns its size in bytes."""
        size = payload_num_bytes(payload)
        self._downlink[client_id] = self._downlink.get(client_id, 0) + size
        self._publish("downlink", size)
        return size

    def broadcast(self, client_ids, payload: Payload) -> int:
        """Record the same server→client payload to many clients."""
        return sum(self.download(cid, payload) for cid in client_ids)

    def mark_round(self) -> ChannelSnapshot:
        """Snapshot cumulative totals at a round boundary."""
        snap = self.snapshot()
        self._round_marks.append(snap)
        return snap

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------
    def snapshot(self) -> ChannelSnapshot:
        return ChannelSnapshot(
            uplink=sum(self._uplink.values()),
            downlink=sum(self._downlink.values()),
        )

    @property
    def total_bytes(self) -> int:
        return self.snapshot().total

    @property
    def total_mb(self) -> float:
        return self.total_bytes / _MB

    def client_bytes(self, client_id: int) -> int:
        """Total bytes this client sent plus received."""
        return self._uplink.get(client_id, 0) + self._downlink.get(client_id, 0)

    @property
    def round_marks(self) -> List[ChannelSnapshot]:
        return list(self._round_marks)

    def reset(self) -> None:
        self._uplink.clear()
        self._downlink.clear()
        self._round_marks.clear()

    # ------------------------------------------------------------------
    # persistence (exact-resume checkpointing)
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """JSON-serialisable ledger state (per-client totals + round marks)."""
        return {
            "uplink": {str(cid): b for cid, b in self._uplink.items()},
            "downlink": {str(cid): b for cid, b in self._downlink.items()},
            "round_marks": [[s.uplink, s.downlink] for s in self._round_marks],
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore ledgers saved by :meth:`state_dict`.

        Resuming with a zeroed ledger silently corrupts every cumulative-MB
        result, so checkpoints must restore this, not reset it.
        """
        self._uplink = {int(cid): int(b) for cid, b in state["uplink"].items()}
        self._downlink = {
            int(cid): int(b) for cid, b in state["downlink"].items()
        }
        self._round_marks = [
            ChannelSnapshot(uplink=int(u), downlink=int(d))
            for u, d in state["round_marks"]
        ]
