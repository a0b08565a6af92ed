"""Tests for RoundRecord / RunHistory metrics."""

import json
import math

import pytest

from repro.fl import RoundRecord, RunHistory

MB = 1024 * 1024


def record(i, s_acc, c_accs, up=MB, down=MB):
    return RoundRecord(
        round_index=i,
        server_acc=s_acc,
        client_accs=c_accs,
        comm_uplink_bytes=up,
        comm_downlink_bytes=down,
    )


class TestRoundRecord:
    def test_mean_client_acc(self):
        assert record(1, 0.5, [0.2, 0.4]).mean_client_acc == pytest.approx(0.3)

    def test_empty_client_accs_nan(self):
        assert math.isnan(record(1, 0.5, []).mean_client_acc)

    def test_comm_mb(self):
        assert record(1, 0.5, [0.1], up=MB, down=MB).comm_total_mb == pytest.approx(2.0)


class TestRunHistory:
    def make_history(self):
        h = RunHistory("algo", dataset="ds")
        h.append(record(1, 0.2, [0.1], up=1 * MB, down=0))
        h.append(record(2, 0.5, [0.3], up=2 * MB, down=0))
        h.append(record(3, 0.4, [0.6], up=3 * MB, down=0))
        return h

    def test_final_and_best(self):
        h = self.make_history()
        assert h.final_server_acc == 0.4
        assert h.best_server_acc == 0.5
        assert h.final_client_acc == 0.6
        assert h.best_client_acc == 0.6

    def test_empty_history_nan(self):
        h = RunHistory("algo")
        assert math.isnan(h.final_server_acc)
        assert math.isnan(h.best_server_acc)

    def test_curves(self):
        h = self.make_history()
        assert h.server_acc_curve() == [0.2, 0.5, 0.4]
        assert h.comm_curve_mb() == [1.0, 2.0, 3.0]

    def test_comm_to_reach(self):
        h = self.make_history()
        assert h.comm_to_reach(0.5, metric="server") == pytest.approx(2.0)
        assert h.comm_to_reach(0.6, metric="client") == pytest.approx(3.0)
        assert h.comm_to_reach(0.99) is None

    def test_rounds_to_reach(self):
        h = self.make_history()
        assert h.rounds_to_reach(0.5) == 2
        assert h.rounds_to_reach(0.9) is None

    def test_nan_server_acc_skipped(self):
        h = RunHistory("fedmd")
        h.append(record(1, float("nan"), [0.9]))
        assert h.comm_to_reach(0.5, metric="server") is None
        assert h.comm_to_reach(0.5, metric="client") is not None
        assert math.isnan(h.best_server_acc) or h.best_server_acc is None

    def test_dict_roundtrip(self):
        h = self.make_history()
        restored = RunHistory.from_dict(h.to_dict())
        assert restored.algorithm == "algo"
        assert restored.dataset == "ds"
        assert len(restored) == 3
        assert restored.best_server_acc == 0.5

    def test_json_serialises(self):
        payload = json.dumps(self.make_history().to_dict())
        assert '"algorithm": "algo"' in payload

    def test_iteration(self):
        assert [r.round_index for r in self.make_history()] == [1, 2, 3]


def _json_roundtrip(history):
    """Through JSON text as every writer and reader does it:
    ``json.dump(to_dict())`` then ``from_dict(json.load())``."""
    return RunHistory.from_dict(json.loads(json.dumps(history.to_dict())))


class TestPersistence:
    """RunHistory survives a save/load cycle with everything the resume
    path depends on: extras, NaN accuracies, and the derived
    comm/rounds-to-reach queries on the restored object."""

    def make_history(self):
        h = RunHistory("fedpkd", dataset="cifar10")
        h.append(
            RoundRecord(
                round_index=1,
                server_acc=float("nan"),
                client_accs=[0.1, 0.2],
                comm_uplink_bytes=1 * MB,
                comm_downlink_bytes=MB // 2,
                extras={"kd/loss": 1.25, "dropouts": 1.0},
            )
        )
        h.append(
            RoundRecord(
                round_index=2,
                server_acc=0.55,
                client_accs=[0.4, 0.5],
                comm_uplink_bytes=2 * MB,
                comm_downlink_bytes=MB,
                extras={"kd/loss": 0.75, "dropouts": 0.0},
            )
        )
        return h

    def test_json_roundtrip_with_extras_and_nan(self):
        h = self.make_history()
        restored = _json_roundtrip(h)
        assert restored.algorithm == "fedpkd"
        assert restored.dataset == "cifar10"
        assert len(restored) == 2
        assert math.isnan(restored.records[0].server_acc)
        assert restored.records[0].extras == {"kd/loss": 1.25, "dropouts": 1.0}
        assert restored.records[1].extras == {"kd/loss": 0.75, "dropouts": 0.0}
        assert restored.records[1].client_accs == [0.4, 0.5]

    def test_dict_roundtrip_is_exact(self):
        h = self.make_history()
        restored = RunHistory.from_dict(h.to_dict())
        assert restored.to_dict() == h.to_dict()

    def test_queries_on_restored_object(self):
        restored = _json_roundtrip(self.make_history())
        assert restored.rounds_to_reach(0.5, metric="server") == 2
        assert restored.comm_to_reach(0.5, metric="server") == pytest.approx(3.0)
        assert restored.comm_to_reach(0.15, metric="client") == pytest.approx(1.5)
        assert restored.comm_to_reach(0.99) is None
        assert restored.rounds_to_reach(0.99) is None

    def test_restored_history_keeps_appending(self):
        restored = _json_roundtrip(self.make_history())
        restored.append(
            RoundRecord(
                round_index=3,
                server_acc=0.6,
                client_accs=[0.6, 0.6],
                comm_uplink_bytes=MB,
                comm_downlink_bytes=MB,
            )
        )
        assert len(restored) == 3
        assert restored.final_server_acc == 0.6


class TestToCsv:
    def make_history(self):
        h = RunHistory("algo", dataset="ds")
        r1 = record(1, 0.3, [0.2, 0.4])
        r1.extras = {"server_loss": 1.5}
        r2 = record(2, float("nan"), [0.3, 0.5], up=2 * MB)
        r2.extras = {"server_loss": 1.0, "runtime_dropouts": 2.0}
        h.append(r1)
        h.append(r2)
        return h

    def test_header_has_fixed_columns_then_sorted_extras(self):
        lines = self.make_history().to_csv().strip().splitlines()
        header = lines[0].split(",")
        assert header[:6] == [
            "round_index",
            "server_acc",
            "mean_client_acc",
            "comm_uplink_bytes",
            "comm_downlink_bytes",
            "comm_total_mb",
        ]
        # union of extras keys, sorted; records missing a key leave a gap
        assert header[6:] == ["runtime_dropouts", "server_loss"]

    def test_rows_align_with_records(self):
        lines = self.make_history().to_csv().strip().splitlines()
        row1 = lines[1].split(",")
        row2 = lines[2].split(",")
        assert row1[0] == "1" and row2[0] == "2"
        assert float(row1[1]) == pytest.approx(0.3)
        assert row2[1] == ""  # NaN renders as an empty cell
        assert row1[6] == ""  # no runtime_dropouts in round 1
        assert float(row2[6]) == pytest.approx(2.0)
        assert float(row2[7]) == pytest.approx(1.0)

    def test_empty_history(self):
        lines = RunHistory("algo").to_csv().strip().splitlines()
        assert len(lines) == 1  # header only
