"""Bench: regenerate Fig. 6 (accuracy-vs-round curves, highly non-IID)."""

from repro.experiments import FIGURES

from .conftest import run_once


def test_fig6_curves(benchmark, scale):
    algorithms = ("fedpkd", "fedavg", "fedmd", "naive_kd")
    results = run_once(
        benchmark,
        FIGURES["fig6"].run,
        scale=scale,
        seed=0,
        partitions=("dir0.1",),
        arms=algorithms,
    )
    benchmark.extra_info["curves"] = {
        name: {
            "server": [round(v, 4) for v in c["server"]],
            "client": [round(v, 4) for v in c["client"]],
        }
        for name, c in results.items()
    }
    for name in algorithms:
        curves = results[name]
        assert len(curves["rounds"]) == len(curves["server"]) == len(curves["client"])
        assert curves["rounds"] == sorted(curves["rounds"])
    # FedPKD's curve must show learning: final above round-1 or above chance
    pkd = results["fedpkd"]["server"]
    assert max(pkd) > 0.1
