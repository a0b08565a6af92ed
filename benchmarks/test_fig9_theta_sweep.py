"""Bench: regenerate Fig. 9 (server accuracy vs filter select-ratio θ)."""

from repro.experiments import FIGURES, fedpkd_sweep

from .conftest import run_once


def test_fig9_theta_sweep(benchmark, scale):
    thetas = (0.3, 0.5, 0.7)
    results = run_once(
        benchmark, FIGURES["fig9"].run, scale=scale, seed=0, datasets=("cifar10",),
        arms=fedpkd_sweep("select_ratio", thetas),
    )
    cell = results["cifar10"]
    benchmark.extra_info["results"] = {str(t): round(a, 4) for t, a in cell.items()}
    assert set(cell) == set(thetas)
    for acc in cell.values():
        assert 0 <= acc <= 1
    print()
    print(FIGURES["fig9"].table(results))
