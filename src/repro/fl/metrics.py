"""Run history and the paper's evaluation metrics.

Three metrics from Sec. V-A:

- ``server_acc`` (``S_acc``): server model on the global test set;
- ``client_acc`` (``C_acc``): mean of per-client accuracy on local test
  sets distributed like each client's training data;
- communication efficiency: cumulative MB until a target accuracy.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional

__all__ = ["RoundRecord", "RunHistory", "nan_mean"]


def nan_mean(values: List[float]) -> float:
    """Mean over the non-NaN entries; NaN when none remain.

    Clients whose local test set is empty (singleton shards) report NaN
    accuracy — they carry no signal and must neither poison the mean nor,
    as a 0.0 placeholder once did, silently drag it down at scale.
    """
    finite = [v for v in values if not math.isnan(v)]
    if not finite:
        return float("nan")
    return sum(finite) / len(finite)


@dataclass
class RoundRecord:
    """Metrics at the end of one communication round."""

    round_index: int
    server_acc: float
    client_accs: List[float]
    comm_uplink_bytes: int
    comm_downlink_bytes: int
    extras: Dict[str, float] = field(default_factory=dict)

    @property
    def mean_client_acc(self) -> float:
        return nan_mean(self.client_accs)

    @property
    def comm_total_mb(self) -> float:
        return (self.comm_uplink_bytes + self.comm_downlink_bytes) / (1024.0 * 1024.0)


class RunHistory:
    """Ordered collection of :class:`RoundRecord` with summary queries.

    ``start_round`` is the round the history began after: a record covers
    the rounds since the previous record, or since ``start_round`` for the
    first one.  It is not serialised; a restored history begins at 0.
    """

    def __init__(
        self,
        algorithm: str,
        dataset: str = "",
        config: Optional[dict] = None,
        start_round: int = 0,
    ) -> None:
        self.algorithm = algorithm
        self.dataset = dataset
        self.config = config or {}
        self.start_round = int(start_round)
        self.records: List[RoundRecord] = []

    def append(self, record: RoundRecord) -> None:
        self.records.append(record)

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    # ------------------------------------------------------------------
    # summary queries
    # ------------------------------------------------------------------
    @property
    def final_server_acc(self) -> float:
        return self.records[-1].server_acc if self.records else float("nan")

    @property
    def final_client_acc(self) -> float:
        return self.records[-1].mean_client_acc if self.records else float("nan")

    @property
    def best_server_acc(self) -> float:
        accs = [r.server_acc for r in self.records if not math.isnan(r.server_acc)]
        return max(accs) if accs else float("nan")

    @property
    def best_client_acc(self) -> float:
        accs = [r.mean_client_acc for r in self.records if not math.isnan(r.mean_client_acc)]
        return max(accs) if accs else float("nan")

    def server_acc_curve(self) -> List[float]:
        return [r.server_acc for r in self.records]

    def client_acc_curve(self) -> List[float]:
        return [r.mean_client_acc for r in self.records]

    def comm_curve_mb(self) -> List[float]:
        return [r.comm_total_mb for r in self.records]

    def comm_to_reach(self, target_acc: float, metric: str = "server") -> Optional[float]:
        """Cumulative MB when ``metric`` accuracy first reaches ``target_acc``.

        Returns ``None`` if the run never reaches the target (the paper's
        ``N/A`` entries in Table I).
        """
        for record in self.records:
            acc = record.server_acc if metric == "server" else record.mean_client_acc
            if not math.isnan(acc) and acc >= target_acc:
                return record.comm_total_mb
        return None

    def rounds_to_reach(self, target_acc: float, metric: str = "server") -> Optional[int]:
        """First round index at which ``metric`` accuracy reaches the target."""
        for record in self.records:
            acc = record.server_acc if metric == "server" else record.mean_client_acc
            if not math.isnan(acc) and acc >= target_acc:
                return record.round_index
        return None

    # ------------------------------------------------------------------
    # (de)serialisation
    # ------------------------------------------------------------------
    def to_csv(self) -> str:
        """Render the per-round records as CSV.

        Fixed columns first, then the sorted union of every record's
        ``extras`` keys (records missing a key leave the cell empty).  NaN
        renders as an empty cell so spreadsheet tools do not choke.
        """
        import csv
        import io

        extra_keys = sorted({key for r in self.records for key in r.extras})
        headers = [
            "round_index",
            "server_acc",
            "mean_client_acc",
            "comm_uplink_bytes",
            "comm_downlink_bytes",
            "comm_total_mb",
        ] + extra_keys

        def cell(value):
            if value is None:
                return ""
            if isinstance(value, float) and math.isnan(value):
                return ""
            return value

        buffer = io.StringIO()
        writer = csv.writer(buffer)
        writer.writerow(headers)
        for r in self.records:
            row = [
                r.round_index,
                cell(r.server_acc),
                cell(r.mean_client_acc),
                r.comm_uplink_bytes,
                r.comm_downlink_bytes,
                cell(r.comm_total_mb),
            ]
            row.extend(cell(r.extras.get(key)) for key in extra_keys)
            writer.writerow(row)
        return buffer.getvalue()

    def to_dict(self) -> dict:
        return {
            "algorithm": self.algorithm,
            "dataset": self.dataset,
            "config": self.config,
            "records": [asdict(r) for r in self.records],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "RunHistory":
        """Inverse of :meth:`to_dict`.  The wall-clock readings older
        histories carry in each record, ``wall_time_s`` and the
        ``time/<stage>`` extras, are dropped: time lives in the trace."""
        history = cls(
            payload["algorithm"], payload.get("dataset", ""), payload.get("config")
        )
        for raw in payload.get("records", []):
            raw = {k: v for k, v in raw.items() if k != "wall_time_s"}
            extras = raw.get("extras")
            if extras:
                raw["extras"] = {
                    k: v for k, v in extras.items() if not k.startswith("time/")
                }
            history.append(RoundRecord(**raw))
        return history
