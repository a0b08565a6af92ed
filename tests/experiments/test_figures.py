"""Structural tests for every figure/table declaration (micro scale).

These verify that each entry of ``FIGURES`` runs end to end and returns the
documented structure; trend-level assertions live in the benchmarks and
EXPERIMENTS.md, since at micro scale the learning signal is too noisy to
assert orderings reliably.
"""

import numpy as np
import pytest

from repro.experiments import FIGURES, Arm, fedpkd_sweep

pytestmark = pytest.mark.slow

SCALE = "tiny"


class TestFig1:
    def test_structure(self):
        results = FIGURES["fig1"].run(scale=SCALE, datasets=("cifar10",))
        assert set(results["cifar10"]) == {"iid", "dir0.3"}
        for accs in results["cifar10"].values():
            assert set(accs) == {"fedavg", "naive_kd"}
            assert all(0 <= a <= 1 for a in accs.values())

    def test_table_renders(self):
        results = FIGURES["fig1"].run(scale=SCALE, datasets=("cifar10",))
        assert "FedAvg" in FIGURES["fig1"].table(results)


class TestFig2:
    def test_structure(self):
        results = FIGURES["fig2"].run(scale=SCALE)
        assert results["class_counts"].shape == (2, 10)
        assert results["client_acc"].shape == (2, 10)
        assert results["aggregated_acc"].shape == (10,)

    def test_clients_specialise(self):
        results = FIGURES["fig2"].run(scale=SCALE, local_epochs=40)
        acc = results["client_acc"]
        # client 1 trained on classes 0-4 must beat client 2 there on average
        own = np.nanmean(acc[0, :5])
        other = np.nanmean(acc[1, :5])
        assert own > other

    def test_class_disjoint_counts(self):
        results = FIGURES["fig2"].run(scale=SCALE)
        counts = results["class_counts"]
        assert counts[0, 5:].sum() == 0
        assert counts[1, :5].sum() == 0


class TestFig3:
    def test_monotone_comm(self):
        results = FIGURES["fig3"].run(
            scale=SCALE, public_sizes=(60, 120, 240)
        )
        comm = [p["uplink_mb_per_client_round"] for p in results["sweep"]]
        assert comm[0] < comm[1] < comm[2]

    def test_linear_in_public_size(self):
        results = FIGURES["fig3"].run(scale=SCALE, public_sizes=(60, 120))
        c = results["sweep"]
        ratio = c[1]["uplink_mb_per_client_round"] / c[0]["uplink_mb_per_client_round"]
        assert abs(ratio - 2.0) < 0.01

    def test_model_update_reference_positive(self):
        results = FIGURES["fig3"].run(scale=SCALE, public_sizes=(60,))
        assert results["model_update_mb"] > 0


class TestFig5:
    def test_structure(self):
        results = FIGURES["fig5"].run(
            scale=SCALE,
            datasets=("cifar10",),
            partitions=("dir0.5",),
            arms=("fedpkd", "fedavg", "fedmd"),
        )
        cell = results["cifar10"]["dir0.5"]
        assert cell["fedmd"][0] is None  # no server model
        assert cell["fedavg"][0] is not None
        assert 0 <= cell["fedpkd"][1] <= 1


class TestFig6:
    def test_curves_lengths(self):
        results = FIGURES["fig6"].run(
            scale=SCALE, arms=("fedpkd", "fedavg"), rounds=2
        )
        for curves in results.values():
            assert len(curves["rounds"]) == 2
            assert len(curves["server"]) == 2
            assert len(curves["client"]) == 2


class TestFig7:
    def test_structure(self):
        results = FIGURES["fig7"].run(
            scale=SCALE,
            datasets=("cifar10",),
            partitions=("dir0.5",),
            arms=("fedpkd", "fedmd"),
        )
        cell = results["cifar10"]["dir0.5"]
        assert set(cell) == {"fedpkd", "fedmd"}


class TestTable1:
    def test_structure(self):
        results = FIGURES["table1"].run(
            scale=SCALE, datasets=("cifar10",), arms=("fedavg", "fedpkd"),
            target_fraction=0.5,
        )
        cell = results["cifar10"]["dir0.5"]
        assert "targets" in cell and "mb" in cell
        assert set(cell["mb"]) == {"fedavg", "fedpkd"}

    def test_na_for_unsupported_metrics(self):
        results = FIGURES["table1"].run(
            scale=SCALE, datasets=("cifar10",), arms=("feddf", "fedmd", "fedpkd"),
            target_fraction=0.5,
        )
        mb = results["cifar10"]["dir0.5"]["mb"]
        assert mb["feddf"]["client"] is None  # not client-focused
        assert mb["fedmd"]["server"] is None  # no server model

    def test_table_renders(self):
        results = FIGURES["table1"].run(
            scale=SCALE, datasets=("cifar10",), arms=("fedpkd",), target_fraction=0.5
        )
        assert "Table I" in FIGURES["table1"].table(results)


class TestFig8:
    def test_all_arms_present(self):
        results = FIGURES["fig8"].run(scale=SCALE, datasets=("cifar10",))
        cell = results["cifar10"]["dir0.1"]
        assert set(cell) == {"fedpkd", "w/o Pro", "w/o D.F."}

    def test_extended_arms(self):
        results = FIGURES["fig8"].run(
            scale=SCALE,
            datasets=("cifar10",),
            arms=[Arm("equal-agg", "fedpkd", {"aggregation": "equal"})],
        )
        assert "equal-agg" in results["cifar10"]["dir0.1"]


class TestFig9:
    def test_theta_sweep(self):
        results = FIGURES["fig9"].run(
            scale=SCALE, datasets=("cifar10",), arms=fedpkd_sweep("select_ratio", (0.4, 0.8))
        )
        assert set(results["cifar10"]) == {0.4, 0.8}
        assert all(0 <= v <= 1 for v in results["cifar10"].values())


class TestFig10:
    def test_delta_sweep(self):
        results = FIGURES["fig10"].run(
            scale=SCALE, datasets=("cifar10",), arms=fedpkd_sweep("delta", (0.2, 0.8))
        )
        assert set(results["cifar10"]) == {0.2, 0.8}
