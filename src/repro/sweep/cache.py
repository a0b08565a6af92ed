"""Checkpoint-keyed result cache: one directory per run key.

Layout under the cache root (``<out-root>/cache``)::

    cache/<run_key>/config.json      resolved config + versions (debugging)
    cache/<run_key>/history.json     the finished RunHistory (cache hit test)
    cache/<run_key>/run.ckpt         exact-resume checkpoint (autosaved)
    cache/<run_key>/trace.jsonl      per-run obs trace (only with --trace)
    cache/<run_key>/metrics.jsonl    per-run metrics export (only with --trace)

A run is a **cache hit** when its ``history.json`` exists and the registry
records it completed — resubmitting an overlapping grid then performs zero
training for that cell.  An *interrupted* run leaves ``run.ckpt`` behind;
the scheduler resumes it through the exact-resume machinery
(:mod:`repro.fl.checkpoint`), so the finished history is bit-identical to
an uninterrupted run.

History writes are atomic (tmp + ``os.replace``) so a crash mid-write
never fabricates a hit.
"""

from __future__ import annotations

import json
import os
from typing import Optional

from ..fl.metrics import RunHistory
from .spec import RunSpec

__all__ = ["ResultCache"]

_HISTORY = "history.json"
_CHECKPOINT = "run.ckpt"
_CONFIG = "config.json"
_TRACE = "trace.jsonl"
_METRICS = "metrics.jsonl"


class ResultCache:
    """Artifact store addressed by run key."""

    def __init__(self, root: str) -> None:
        self.root = root

    # ------------------------------------------------------------------
    # paths
    # ------------------------------------------------------------------
    def run_dir(self, key: str, create: bool = False) -> str:
        path = os.path.join(self.root, key)
        if create:
            os.makedirs(path, exist_ok=True)
        return path

    def history_path(self, key: str) -> str:
        return os.path.join(self.run_dir(key), _HISTORY)

    def checkpoint_path(self, key: str) -> str:
        return os.path.join(self.run_dir(key), _CHECKPOINT)

    def trace_path(self, key: str) -> str:
        return os.path.join(self.run_dir(key), _TRACE)

    def metrics_path(self, key: str) -> str:
        return os.path.join(self.run_dir(key), _METRICS)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def has_history(self, key: str) -> bool:
        return os.path.exists(self.history_path(key))

    def has_checkpoint(self, key: str) -> bool:
        return os.path.exists(self.checkpoint_path(key))

    def load_history(self, key: str) -> Optional[RunHistory]:
        """The cached history, or ``None`` if absent/corrupt."""
        path = self.history_path(key)
        try:
            with open(path, "r", encoding="utf-8") as f:
                return RunHistory.from_dict(json.load(f))
        except (OSError, ValueError, KeyError, TypeError):
            return None

    # ------------------------------------------------------------------
    # writes
    # ------------------------------------------------------------------
    def store_history(self, key: str, history: RunHistory) -> str:
        """Atomically persist a finished run's history; returns its path."""
        self.run_dir(key, create=True)
        path = self.history_path(key)
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as f:
            json.dump(history.to_dict(), f, indent=2)
        os.replace(tmp, path)
        return path

    def store_config(self, key: str, run: RunSpec) -> str:
        """Record the resolved config beside the artifacts (idempotent)."""
        self.run_dir(key, create=True)
        path = os.path.join(self.run_dir(key), _CONFIG)
        if not os.path.exists(path):
            tmp = path + ".tmp"
            with open(tmp, "w", encoding="utf-8") as f:
                json.dump(run.resolved_config(), f, indent=2, sort_keys=True)
            os.replace(tmp, path)
        return path
