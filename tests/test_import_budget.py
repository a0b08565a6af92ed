"""Import budget: the run path loads numpy and the standard library only.

Every ``repro run``, ``repro experiment`` and sweep invocation is a fresh
process, so whatever ``import repro`` pulls in is paid on every run.
Neither scipy nor networkx is a dependency: neither may be loaded by
importing the package, and both must be absent-safe for everything that
trains.

Each case runs in a fresh interpreter so the test session's own imports
cannot mask a regression.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

OPTIONAL = ("scipy", "networkx")

RUN_PATH = (
    "repro",
    "repro.cli",
    "repro.experiments.harness",
    "repro.algorithms",
    "repro.sweep",
    "repro.runtime",
)


def _run(code, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    result = subprocess.run(
        [sys.executable, "-c", code],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, (
        f"stdout:\n{result.stdout}\nstderr:\n{result.stderr}"
    )
    return result.stdout


def test_run_path_imports_no_optional_dependency(tmp_path):
    code = f"""
import sys
import repro
for name in {RUN_PATH!r}:
    __import__(name)
loaded = sorted(m for m in sys.modules if m.split(".")[0] in {OPTIONAL!r})
print("loaded:", loaded)
"""
    assert _run(code, tmp_path).strip().endswith("loaded: []")


def test_runs_and_diagnostics_work_without_optional_dependencies(tmp_path):
    code = f"""
import sys


class _Missing:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] in {OPTIONAL!r}:
            raise ModuleNotFoundError(f"No module named {{name!r}}", name=name)
        return None


sys.meta_path.insert(0, _Missing())

import numpy as np

from repro.experiments.harness import ExperimentSetting, run_algorithm

history = run_algorithm(ExperimentSetting(scale="tiny", seed=0), "fedpkd", rounds=1)
assert len(history.records) == 1

from repro.core.prototypes import prototype_separation

report = prototype_separation(np.array([[0.0, 0.0], [3.0, 4.0]]), np.array([0, 1]))
assert report.inter_class_distance == 5.0
print("ok")
"""
    assert _run(code, tmp_path).strip().endswith("ok")
