"""Bench: regenerate Fig. 5 (homogeneous-model accuracy comparison)."""

from repro.algorithms import algorithm_supports
from repro.experiments import FIGURES

from .conftest import run_once


def test_fig5_homogeneous(benchmark, scale):
    results = run_once(
        benchmark,
        FIGURES["fig5"].run,
        scale=scale,
        seed=0,
        datasets=("cifar10",),
        partitions=("dir0.1", "dir0.5"),
    )
    table = {}
    for partition, cell in results["cifar10"].items():
        table[partition] = {
            name: [None if v is None else round(v, 4) for v in pair]
            for name, pair in cell.items()
        }
    benchmark.extra_info["results"] = table

    for partition, cell in results["cifar10"].items():
        for name, (s_acc, c_acc) in cell.items():
            if algorithm_supports(name, "server_model"):
                assert s_acc is not None and 0 <= s_acc <= 1
            else:
                assert s_acc is None
            assert 0 <= c_acc <= 1
    print()
    print(FIGURES["fig5"].table(results))
