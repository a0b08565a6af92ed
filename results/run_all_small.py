"""Run every figure/table experiment at the 'small' scale and save outputs.

Writes ``small_scale_results.json`` next to this script.  Run from the repo
root with ``PYTHONPATH=src python results/run_all_small.py``.
"""
import time
from pathlib import Path

from repro.experiments import FIGURES, save_results

SCALE = "small"
OPTIONS = {
    "fig2": {"local_epochs": 40},
    "fig3": {"public_sizes": (150, 300, 600, 1200)},
}
out = {}
for name in ("fig1", "fig2", "fig3", "fig5", "fig6", "fig7", "table1", "fig8", "fig9", "fig10"):
    t0 = time.time()
    print(f"=== {name} ===", flush=True)
    out[name] = FIGURES[name].run(scale=SCALE, seed=0, **OPTIONS.get(name, {}))
    print(f"--- {name} done in {time.time()-t0:.0f}s", flush=True)
    print(FIGURES[name].table(out[name]), flush=True)

save_results(out, str(Path(__file__).parent), "small_scale_results")
print("ALL DONE", flush=True)
