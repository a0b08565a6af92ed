"""The repo's layered benchmark: six FL workloads measured from outside.

End-to-end numbers come from untraced reps, each in a fresh child process
with BLAS pinned to one thread; per-layer numbers come from one traced rep
in which benchmark-side spans wrap the program's public entry points and
the program's own instrumentation (profiler, tracer, metrics) is on.
Nothing under ``src/`` knows this package exists.  See ``bench/README.md``.
"""

import os

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
