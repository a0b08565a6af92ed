"""Bench: regenerate Fig. 1 (FedAvg vs KD-based, IID vs non-IID)."""

from repro.experiments import FIGURES

from .conftest import run_once


def test_fig1_motivation(benchmark, scale):
    results = run_once(
        benchmark, FIGURES["fig1"].run, scale=scale, seed=0, datasets=("cifar10",)
    )
    cell = results["cifar10"]
    benchmark.extra_info["results"] = {
        p: {a: round(v, 4) for a, v in accs.items()} for p, accs in cell.items()
    }
    # structural checks: both settings and both algorithms produced accuracy
    for partition in ("iid", "dir0.3"):
        for algo in ("fedavg", "naive_kd"):
            assert 0.0 <= cell[partition][algo] <= 1.0
    print()
    print(FIGURES["fig1"].table(results))
