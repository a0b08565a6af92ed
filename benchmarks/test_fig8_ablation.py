"""Bench: regenerate Fig. 8 (ablation of prototypes and data filtering),
plus the extended ablation arms from DESIGN.md."""

from repro.experiments import EXTENDED_ARMS, FIGURES

from .conftest import run_once


def test_fig8_ablation(benchmark, scale):
    results = run_once(
        benchmark,
        FIGURES["fig8"].run,
        scale=scale,
        seed=0,
        datasets=("cifar10",),
        arms=EXTENDED_ARMS,
    )
    cell = results["cifar10"]["dir0.1"]
    benchmark.extra_info["results"] = {
        arm: [round(v, 4) for v in pair] for arm, pair in cell.items()
    }
    assert set(cell) >= {"fedpkd", "w/o Pro", "w/o D.F.", "equal-agg", "random-filter"}
    for arm, (s_acc, c_acc) in cell.items():
        assert 0 <= s_acc <= 1 and 0 <= c_acc <= 1
    print()
    print(FIGURES["fig8"].table(results))
