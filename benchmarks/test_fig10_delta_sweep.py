"""Bench: regenerate Fig. 10 (server accuracy vs server-loss mix δ)."""

from repro.experiments import FIGURES, fedpkd_sweep

from .conftest import run_once


def test_fig10_delta_sweep(benchmark, scale):
    deltas = (0.1, 0.5, 0.9)
    results = run_once(
        benchmark, FIGURES["fig10"].run, scale=scale, seed=0, datasets=("cifar10",),
        arms=fedpkd_sweep("delta", deltas),
    )
    cell = results["cifar10"]
    benchmark.extra_info["results"] = {str(d): round(a, 4) for d, a in cell.items()}
    assert set(cell) == set(deltas)
    for acc in cell.values():
        assert 0 <= acc <= 1
    print()
    print(FIGURES["fig10"].table(results))
