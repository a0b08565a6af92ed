"""Benchmark-side spans around the program's public entry points.

Used in the traced rep only.  Every wrapper lives here; no file under
``src/`` changes.  A span is named ``<layer>.<what>`` with the layer the
module that does the work between this boundary and the next wrapped one,
so a span's self time belongs to the layer in its name.  Work inside pool
workers is not wrapped (a forked worker inherits the wrappers, but its
spans stay in its own memory): it is read from the program's trace events
and merged profiler payloads instead.
"""

from __future__ import annotations

import os
import sys
from dataclasses import replace
from typing import Callable, List, Set

from .spans import SpanRecorder


def _rebind(original: Callable, wrapper: Callable) -> None:
    """Replace ``original`` in every ``repro.*`` namespace that bound it at
    import (``from .x import f`` copies the reference)."""
    for module_name, module in list(sys.modules.items()):
        if module is None or not module_name.startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)


def _wrap_function(rec: SpanRecorder, original: Callable, name: str, attrs=None):
    _rebind(original, rec.wrap(original, name, attrs))


def _wrap_method(rec: SpanRecorder, cls: type, method: str, name: str, attrs=None):
    setattr(cls, method, rec.wrap(vars(cls)[method], name, attrs))


def install(rec: SpanRecorder) -> List[object]:
    """Wrap the entry points listed in the issue.  Returns the list every
    algorithm object built from now on is appended to: their profilers,
    registries and channels are read after the run."""
    from repro import algorithms
    from repro.core import aggregation, distillation, filtering, prototypes
    from repro.experiments import harness
    from repro.fl import checkpoint, simulation
    from repro.fl.async_engine import AsyncRoundEngine
    from repro.fl.channel import CommChannel
    from repro.fl.registry import ClientRegistry
    from repro.fl.server import FLServer
    from repro.runtime import ParallelExecutor, SerialExecutor
    from repro.sweep import ResultCache, SweepScheduler

    algos: List[object] = []

    # set-up ---------------------------------------------------------------
    _wrap_function(rec, harness.make_bundle, "data.make_bundle")
    _wrap_function(rec, harness.federation_for, "fl.simulation.federation_for")
    _wrap_function(rec, simulation.build_federation, "fl.simulation.build_federation")

    build_algorithm = algorithms.build_algorithm

    def collecting_build(name, *args, **kwargs):
        with rec.span("fl.simulation.build_algorithm", algo=name):
            algo = build_algorithm(name, *args, **kwargs)
        algos.append(algo)
        return algo

    _rebind(build_algorithm, collecting_build)

    # experiments ----------------------------------------------------------
    run_algorithm = harness.run_algorithm
    used_paths: Set[str] = set()

    def unique(path):
        # a Tracer truncates its path when it opens, so nine algorithms
        # sharing one ExperimentSetting would leave one trace: give every
        # run after the first its own file
        if path is None:
            return None
        if path not in used_paths:
            used_paths.add(path)
            return path
        root, ext = os.path.splitext(path)
        return unique(f"{root}.{len(used_paths)}{ext}")

    def run_algorithm_own_files(setting, algorithm, *args, **kwargs):
        setting = replace(
            setting,
            trace_path=unique(setting.trace_path),
            metrics_path=unique(setting.metrics_path),
        )
        with rec.span("experiments.run_algorithm", algo=algorithm):
            return run_algorithm(setting, algorithm, *args, **kwargs)

    _rebind(run_algorithm, run_algorithm_own_files)
    _wrap_function(rec, harness.compare_algorithms, "experiments.compare_algorithms")

    # round engines ----------------------------------------------------------
    base = simulation.FederatedAlgorithm
    _wrap_method(rec, base, "run", "fl.simulation.run",
                 lambda self, *a, **k: {"algo": self.name})
    _wrap_method(rec, base, "evaluate_server", "fl.simulation.eval")
    _wrap_method(rec, base, "evaluate_clients", "fl.simulation.eval")
    _wrap_method(rec, AsyncRoundEngine, "run", "fl.async_engine.run")
    _wrap_method(rec, FLServer, "train_distill", "fl.training.server_train")

    def stage_attrs(self, clients, method, kwargs=None, stage=None):
        return {"stage": stage or method, "executor": self.name}

    # inline stages are client training itself; a parallel stage is the
    # driver dispatching and waiting, which is the runtime's own time
    _wrap_method(rec, SerialExecutor, "run_stage", "fl.training.stage", stage_attrs)
    _wrap_method(rec, ParallelExecutor, "run_stage", "runtime.run_stage", stage_attrs)

    # channel, checkpoint, registry ----------------------------------------
    for op in ("upload", "download", "broadcast"):
        _wrap_method(rec, CommChannel, op, f"fl.channel.{op}")
    _wrap_function(rec, checkpoint.save_checkpoint, "fl.checkpoint.save")
    _wrap_function(rec, checkpoint.load_checkpoint, "fl.checkpoint.load")
    _wrap_method(rec, ClientRegistry, "__getitem__", "fl.registry.getitem")
    _wrap_method(rec, ClientRegistry, "peek", "fl.registry.getitem")
    _wrap_method(rec, ClientRegistry, "settle", "fl.registry.settle")

    # sweep ------------------------------------------------------------------
    _wrap_method(rec, SweepScheduler, "run", "sweep.run")
    _wrap_method(rec, ResultCache, "load_history", "sweep.load_history")

    # the paper's mechanisms -------------------------------------------------
    _wrap_function(rec, aggregation.variance_weighted_aggregate, "core.aggregate")
    _wrap_function(rec, prototypes.aggregate_prototypes, "core.aggregate")
    _wrap_function(rec, filtering.prototype_filter, "core.filter")
    _wrap_function(rec, distillation.prototype_ensemble_distill, "core.server_distill")
    return algos
