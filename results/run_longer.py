"""Longer-horizon checks: do weak-skew cells converge toward the paper?

Writes ``fig5_long_rounds.json`` and ``fig8_long_rounds.json`` next to this
script.  Run from the repo root with
``PYTHONPATH=src python results/run_longer.py``.
"""
from pathlib import Path

from repro.experiments import FIGURES, ExperimentSetting, compare_algorithms, save_results

HERE = str(Path(__file__).parent)

# the scale's own rounds first, then the same cell over 14 rounds
r = FIGURES["fig5"].run(
    scale="small", seed=0, datasets=("cifar10",), partitions=("dir0.5",),
    arms=("fedpkd", "fedavg", "feddf"),
)
print(FIGURES["fig5"].table(r), flush=True)

setting = ExperimentSetting(dataset="cifar10", partition="dir0.5", scale="small",
                            seed=0, scale_overrides={"rounds": 14})
out = {}
for name, hist in compare_algorithms(setting, ("fedpkd", "fedavg", "feddf")).items():
    out[name] = {"server_curve": hist.server_acc_curve(),
                 "client_curve": hist.client_acc_curve(),
                 "comm_curve": hist.comm_curve_mb()}
    print(name, "best S:", max(hist.server_acc_curve()), flush=True)
save_results(out, HERE, "fig5_long_rounds")
print("saved fig5_long_rounds", flush=True)

setting8 = ExperimentSetting(dataset="cifar10", partition="dir0.1", scale="small",
                             seed=0, scale_overrides={"rounds": 14})
out8 = {}
for arm, hist in compare_algorithms(setting8, FIGURES["fig8"].arms).items():
    out8[arm] = {"server_curve": hist.server_acc_curve(),
                 "best": max(hist.server_acc_curve())}
    print(arm, "best S:", out8[arm]["best"], flush=True)
save_results(out8, HERE, "fig8_long_rounds")
print("saved fig8_long_rounds", flush=True)
print("ALL DONE", flush=True)
