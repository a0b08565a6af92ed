"""Tests for the command-line interface."""

import json
import math

import pytest

from repro.cli import main
from repro.experiments import FIGURES


class TestRunCommand:
    def test_run_writes_history(self, tmp_path, capsys):
        out = tmp_path / "history.json"
        code = main(
            [
                "run",
                "--algorithm",
                "fedavg",
                "--scale",
                "tiny",
                "--rounds",
                "1",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["algorithm"] == "fedavg"
        assert len(payload["records"]) == 1
        assert "S_acc=" in capsys.readouterr().out

    def test_run_without_out(self, capsys):
        assert main(["run", "--algorithm", "fedmd", "--scale", "tiny", "--rounds", "1"]) == 0
        assert "fedmd" in capsys.readouterr().out

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "--algorithm", "nope"])


class TestExperimentCommand:
    def test_experiment_names_registered(self):
        assert set(FIGURES) == {
            "fig1", "fig2", "fig3", "fig5", "fig6",
            "fig7", "fig8", "fig9", "fig10", "table1",
        }

    @pytest.mark.slow
    def test_fig9_runs(self, capsys):
        assert main(["experiment", "fig9", "--scale", "tiny"]) == 0
        assert "theta" in capsys.readouterr().out

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["experiment", "fig4"])


class TestResume:
    def test_resume_requires_checkpoint(self, capsys):
        code = main(["run", "--algorithm", "fedavg", "--resume"])
        assert code == 2
        assert "--checkpoint" in capsys.readouterr().err

    def test_checkpoint_then_resume(self, tmp_path, capsys):
        ckpt = tmp_path / "run.ckpt"
        out_full = tmp_path / "full.json"
        out_resumed = tmp_path / "resumed.json"
        common = ["run", "--algorithm", "fedproto", "--scale", "tiny"]

        # uninterrupted reference
        assert main(common + ["--rounds", "2", "--out", str(out_full)]) == 0

        # interrupted run: one round, checkpointing every round
        assert (
            main(
                common
                + ["--rounds", "1", "--checkpoint", str(ckpt), "--checkpoint-every", "1"]
            )
            == 0
        )
        assert ckpt.exists()

        # resume to the full length
        assert (
            main(
                common
                + [
                    "--rounds", "2",
                    "--checkpoint", str(ckpt),
                    "--resume",
                    "--out", str(out_resumed),
                ]
            )
            == 0
        )
        capsys.readouterr()

        full = json.loads(out_full.read_text())
        resumed = json.loads(out_resumed.read_text())
        assert len(resumed["records"]) == 2
        for a, b in zip(full["records"], resumed["records"]):
            for key in ("server_acc", "client_accs", "comm_uplink_bytes",
                        "comm_downlink_bytes"):
                x, y = a[key], b[key]
                if isinstance(x, float) and math.isnan(x):
                    assert math.isnan(y)
                else:
                    assert x == y


class TestResultsCommand:
    def _write_history(self, tmp_path, capsys, name="hist.json", rounds="2"):
        out = tmp_path / name
        assert (
            main(
                ["run", "--algorithm", "fedmd", "--scale", "tiny",
                 "--rounds", rounds, "--out", str(out)]
            )
            == 0
        )
        capsys.readouterr()
        return out

    def test_results_tabulates_histories(self, tmp_path, capsys):
        out = self._write_history(tmp_path, capsys)
        assert main(["results", str(out), "--target", "0.05"]) == 0
        printed = capsys.readouterr().out
        assert "final_S_acc" in printed
        assert "MB_to_0.05" in printed
        assert "fedmd" in printed

    def test_results_multiple_files(self, tmp_path, capsys):
        a = self._write_history(tmp_path, capsys, name="a.json", rounds="1")
        b = self._write_history(tmp_path, capsys, name="b.json", rounds="1")
        assert main(["results", str(a), str(b)]) == 0
        printed = capsys.readouterr().out
        # one row per file after the header + separator
        assert len(printed.strip().splitlines()) == 4

    def test_results_csv_export(self, tmp_path, capsys):
        out = self._write_history(tmp_path, capsys)
        csv_path = tmp_path / "rounds.csv"
        assert main(["results", str(out), "--csv", str(csv_path)]) == 0
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0].startswith("round_index,server_acc")
        assert len(lines) == 3  # header + 2 rounds

    def test_results_csv_rejects_multiple_files(self, tmp_path, capsys):
        a = self._write_history(tmp_path, capsys, name="a.json", rounds="1")
        b = self._write_history(tmp_path, capsys, name="b.json", rounds="1")
        code = main(
            ["results", str(a), str(b), "--csv", str(tmp_path / "x.csv")]
        )
        assert code == 2
        assert "single history" in capsys.readouterr().err

    def test_results_unreadable_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["results", str(bad)]) == 2
        assert "cannot read history" in capsys.readouterr().err

    def test_aggregate_requires_registry(self, capsys):
        assert main(["results", "--aggregate", "seed", "x.json"]) == 2
        assert "requires --registry" in capsys.readouterr().err


class TestAggregateBySeed:
    def _record(self, seed, acc, algorithm="fedpkd"):
        return {
            "run_key": f"{algorithm}-{seed}",
            "sweep": "s",
            "status": "completed",
            "label": f"{algorithm}/cifar10/dir0.5/s{seed}",
            "rounds": 2,
            "final_server_acc": acc,
            "best_server_acc": acc,
            "final_client_acc": acc / 2,
            "comm_mb": 1.0,
            "config": {
                "algorithm": algorithm,
                "setting": {"dataset": "cifar10", "seed": seed},
                "rounds": 2,
            },
        }

    def test_groups_across_seeds_only(self):
        from repro.cli import _aggregate_by_seed

        rows = _aggregate_by_seed(
            [
                self._record(0, 0.4),
                self._record(1, 0.6),
                self._record(0, 0.8, algorithm="fedproto"),
            ]
        )
        assert len(rows) == 2
        by_label = {r["label"]: r for r in rows}
        pkd = by_label["fedpkd/cifar10/dir0.5"]
        assert pkd["n_seeds"] == 2
        assert pkd["final_server_acc"].startswith("0.500±")
        proto = by_label["fedproto/cifar10/dir0.5"]
        assert proto["n_seeds"] == 1
        assert proto["final_server_acc"] == "0.800±0.000"

    def test_none_values_become_na(self):
        from repro.cli import _aggregate_by_seed

        record = self._record(0, 0.4)
        record["final_server_acc"] = None
        (row,) = _aggregate_by_seed([record])
        assert row["final_server_acc"] == "N/A"


class TestObservabilityFlags:
    def test_run_with_trace_and_metrics(self, tmp_path, capsys):
        from repro.obs import validate_metrics_file, validate_trace_file

        trace = tmp_path / "t.jsonl"
        metrics = tmp_path / "m.jsonl"
        code = main(
            ["run", "--algorithm", "fedmd", "--scale", "tiny", "--rounds", "1",
             "--trace", str(trace), "--metrics-out", str(metrics)]
        )
        assert code == 0
        printed = capsys.readouterr().out
        assert "trace written to" in printed
        assert "metrics written to" in printed
        assert validate_trace_file(str(trace)) > 0
        assert validate_metrics_file(str(metrics)) > 0

    def test_log_level_flag(self, capsys):
        import logging

        # the flag is top-level: it must parse before the subcommand
        code = main(
            ["--log-level", "debug", "run", "--algorithm", "fedmd",
             "--scale", "tiny", "--rounds", "1"]
        )
        assert code == 0
        assert logging.getLogger("repro").level == logging.DEBUG
        logging.getLogger("repro").setLevel(logging.WARNING)


class TestAsyncEngineFlags:
    def test_async_run_with_fault_plan(self, tmp_path, capsys):
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps({
            "seed": 1,
            "faults": [
                {"kind": "straggler", "client_id": 1, "factor": 3.0},
                {"kind": "crash", "client_id": 0, "round": 0},
            ],
        }))
        out = tmp_path / "history.json"
        code = main([
            "run", "--algorithm", "fedpkd", "--scale", "tiny",
            "--rounds", "1",
            "--max-staleness", "2",
            "--staleness-alpha", "0.9", "--buffer-size", "2",
            "--fault-plan", str(plan),
            "--out", str(out),
        ])
        assert code == 0
        payload = json.loads(out.read_text())
        assert len(payload["records"]) == 1
        assert math.isfinite(payload["records"][0]["server_acc"])
        assert "S_acc=" in capsys.readouterr().out

    def test_async_engine_runs_a_weight_averaging_baseline(self, tmp_path):
        # every algorithm implements the round phases, so every one runs
        # buffered and stale under the engine
        out = tmp_path / "history.json"
        code = main([
            "run", "--algorithm", "fedavg", "--scale", "tiny",
            "--rounds", "2", "--max-staleness", "2",
            "--buffer-size", "2", "--out", str(out),
        ])
        assert code == 0
        records = json.loads(out.read_text())["records"]
        assert len(records) == 2
        assert all(math.isfinite(r["server_acc"]) for r in records)
