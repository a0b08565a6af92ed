"""BLAS thread policy: ``import repro`` pins BLAS to one thread per process.

repro parallelises across processes (client executors, ``compare_algorithms``,
sweeps); forked workers that each inherit one BLAS thread per core
oversubscribe the machine.  Importing the package therefore defaults
``OPENBLAS_NUM_THREADS``/``OMP_NUM_THREADS``/``MKL_NUM_THREADS`` to ``1``
before numpy loads, and a value the user set wins.

Each case runs in a fresh interpreter whose environment lacks (or presets)
the variables, so the test session's own setting cannot mask a regression.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# records each variable at the moment numpy is first looked up, then
# reports them and their values after the import
_PROBE = f"""
import json, os, sys

seen = {{}}


class _Watch:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" and not seen:
            seen.update({{k: os.environ.get(k) for k in {BLAS_ENV!r}}})
        return None


sys.meta_path.insert(0, _Watch())
import repro

print(json.dumps({{
    "at_numpy_import": seen,
    "after": {{k: os.environ.get(k) for k in {BLAS_ENV!r}}},
}}))
"""


def _import_repro(tmp_path, preset):
    env = {k: v for k, v in os.environ.items() if k not in BLAS_ENV}
    env.update(preset)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    result = subprocess.run(
        [sys.executable, "-c", _PROBE],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout.strip().splitlines()[-1])


def test_import_pins_one_blas_thread_before_numpy_loads(tmp_path):
    report = _import_repro(tmp_path, {})
    expected = {name: "1" for name in BLAS_ENV}
    assert report["after"] == expected
    assert report["at_numpy_import"] == expected


@pytest.mark.parametrize("name", BLAS_ENV)
def test_a_value_the_user_set_wins(tmp_path, name):
    report = _import_repro(tmp_path, {name: "3"})
    assert report["after"][name] == "3"
    assert report["at_numpy_import"][name] == "3"
