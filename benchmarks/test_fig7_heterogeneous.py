"""Bench: regenerate Fig. 7 (heterogeneous-model accuracy comparison)."""

from repro.experiments import FIGURES

from .conftest import run_once


def test_fig7_heterogeneous(benchmark, scale):
    results = run_once(
        benchmark,
        FIGURES["fig7"].run,
        scale=scale,
        seed=0,
        datasets=("cifar10",),
        partitions=("dir0.1", "dir0.5"),
    )
    cells = results["cifar10"]
    benchmark.extra_info["results"] = {
        p: {n: [None if v is None else round(v, 4) for v in pair] for n, pair in c.items()}
        for p, c in cells.items()
    }
    for cell in cells.values():
        assert set(cell) == {"fedpkd", "fedmd", "dsfl", "fedet"}
        # FedMD / DS-FL have no server model
        assert cell["fedmd"][0] is None and cell["dsfl"][0] is None
        # FedPKD and FedET train a (larger) server model
        assert cell["fedpkd"][0] is not None and cell["fedet"][0] is not None
    print()
    print(FIGURES["fig7"].table(results))
