"""Multi-run orchestration: grid sweeps, result caching, a run registry.

The experiment layer runs *one* configuration per process; the paper's
evidence is a grid (algorithms × datasets × heterogeneity × seeds ×
hyper-parameters).  This package turns the repo into a system that
absorbs that experiment traffic:

- :mod:`repro.sweep.spec` — declarative grid specs expanded into a
  deterministic, stably-ordered run queue, each run addressed by a
  content-hash **run key**;
- :mod:`repro.sweep.scheduler` — executes the queue inline or across a
  process pool with per-run timeout/retry and failure isolation, reusing
  the exact-resume checkpoints to resume interrupted runs;
- :mod:`repro.sweep.cache` — checkpoint-keyed result cache: resubmitting
  an overlapping grid performs zero work for completed cells;
- :mod:`repro.sweep.registry` — append-only JSONL run/sweep registry
  consumed by ``repro results --registry`` for cross-sweep comparison;
- :mod:`repro.sweep.progress` — live progress (runs done/failed/cached,
  per-run round counts streamed from :mod:`repro.obs` traces).

See ``docs/SWEEP.md`` for the spec format and cache semantics.
"""

from .cache import ResultCache
from .progress import SweepProgress, rounds_completed
from .registry import RegistryError, RunRegistry, parse_where
from .scheduler import RunOutcome, SweepResult, SweepScheduler
from .spec import RUN_KEY_VERSION, RunSpec, SweepSpec, SweepSpecError

__all__ = [
    "RUN_KEY_VERSION",
    "SweepSpec",
    "SweepSpecError",
    "RunSpec",
    "ResultCache",
    "RunRegistry",
    "RegistryError",
    "parse_where",
    "SweepScheduler",
    "SweepResult",
    "RunOutcome",
    "SweepProgress",
    "rounds_completed",
]
