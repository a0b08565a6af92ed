"""Economised small-scale runs for fig5-fig10 + table1 (saves per-experiment JSON).

Writes ``<name>_small.json`` next to this script.  Run from the repo root
with ``PYTHONPATH=src python results/run_rest_small.py``.
"""
import time
from pathlib import Path

from repro.experiments import EXTENDED_ARMS, FIGURES, fedpkd_sweep, save_results

HERE = str(Path(__file__).parent)
C10 = ("cifar10",)
RUNS = [
    ("fig5_c10", "fig5", dict(datasets=C10, partitions=("dir0.1", "dir0.5"))),
    ("table1", "table1", dict(datasets=C10, partitions=("dir0.5",))),
    ("fig8", "fig8", dict(datasets=C10, partitions=("dir0.1",), arms=EXTENDED_ARMS)),
    ("fig7", "fig7", dict(datasets=C10, partitions=("dir0.1", "dir0.5"))),
    ("fig9", "fig9", dict(datasets=C10, arms=fedpkd_sweep("select_ratio", (0.3, 0.5, 0.7, 1.0)))),
    ("fig10", "fig10", dict(datasets=C10)),
    ("fig6", "fig6", dict(arms=("fedpkd", "fedavg", "fedmd", "dsfl", "feddf"))),
    ("fig5_c100", "fig5", dict(datasets=("cifar100",), partitions=("dir0.5",),
                               arms=("fedpkd", "fedavg", "fedmd", "feddf"))),
    ("fig7_c100", "fig7", dict(datasets=("cifar100",), partitions=("dir0.5",),
                               arms=("fedpkd", "fedmd", "fedet"))),
]

for name, figure, options in RUNS:
    t0 = time.time()
    r = FIGURES[figure].run(scale="small", seed=0, **options)
    print(FIGURES[figure].table(r), flush=True)
    save_results(r, HERE, f"{name}_small")
    print(f"saved {name}", flush=True)
    print(f"--- {name} done in {time.time()-t0:.0f}s", flush=True)

print("ALL DONE", flush=True)
