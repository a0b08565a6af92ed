"""Bench: regenerate Table I (communication MB to reach target accuracy).

The structural claim — FedPKD needs far less traffic than weight-exchanging
methods — holds at any scale because FedPKD ships logits over a filtered
subset while FedAvg/FedProx/FedDF ship full model states every round.
"""

from repro.experiments import FIGURES

from .conftest import run_once


def test_table1_comm_overhead(benchmark, scale):
    results = run_once(
        benchmark,
        FIGURES["table1"].run,
        scale=scale,
        seed=0,
        datasets=("cifar10",),
        partitions=("dir0.5",),
        target_fraction=0.7,
    )
    cell = results["cifar10"]["dir0.5"]
    benchmark.extra_info["targets"] = [round(t, 4) for t in cell["targets"]]
    benchmark.extra_info["mb"] = {
        name: {k: None if v is None else round(v, 4) for k, v in mbs.items()}
        for name, mbs in cell["mb"].items()
    }

    mb = cell["mb"]
    # N/A structure mirrors the paper's footnotes
    assert mb["fedmd"]["server"] is None
    assert mb["dsfl"]["server"] is None
    assert mb["feddf"]["client"] is None

    # FedPKD reaches its own 70%-relative target (trivially true) with less
    # traffic than any weight-exchanging method that also reached it.
    pkd_server = mb["fedpkd"]["server"]
    assert pkd_server is not None
    for heavy in ("fedavg", "fedprox", "feddf"):
        reached = mb[heavy]["server"]
        if reached is not None:
            assert pkd_server < reached
    print()
    print(FIGURES["table1"].table(results))
