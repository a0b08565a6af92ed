"""Experiment runners regenerating every figure and table of the paper.

``harness`` holds the shared pieces (scales, settings, ``run_algorithm``,
``run_jobs`` (the one fan-out for whole runs), ``compare_algorithms`` over
arms, table formatting, ``save_results``);
``figures.FIGURES`` declares each figure/table once, keyed by its
``python -m repro experiment`` name, with ``run(scale=..., seed=...,
**options) -> dict`` and ``table(results) -> str``.  The ``benchmarks/``
tree wraps these with pytest-benchmark; the per-experiment index lives in
DESIGN.md.
"""

from .figures import EXTENDED_ARMS, FIGURES, Figure, fedpkd_sweep
from .harness import (
    PARTITIONS,
    SCALES,
    Arm,
    ExperimentSetting,
    Job,
    ScaleConfig,
    compare_algorithms,
    federation_for,
    format_table,
    make_bundle,
    model_roles,
    run_algorithm,
    run_jobs,
    save_results,
)

__all__ = [
    "ExperimentSetting",
    "ScaleConfig",
    "SCALES",
    "PARTITIONS",
    "make_bundle",
    "model_roles",
    "federation_for",
    "run_algorithm",
    "Arm",
    "compare_algorithms",
    "Job",
    "run_jobs",
    "format_table",
    "save_results",
    "Figure",
    "FIGURES",
    "EXTENDED_ARMS",
    "fedpkd_sweep",
]
