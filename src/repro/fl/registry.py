"""Lazy client registry with a bounded live set and a spill-to-disk store.

The eager path materialised every :class:`~repro.fl.client.FLClient` (data
slice + model) up front, capping federations at hundreds of clients.  At
production scale only a small sampled sub-cohort touches the server each
round, so a federation of N registered clients needs O(cohort) memory, not
O(N).  This module provides that shape:

- :class:`ClientRegistry` — a :class:`collections.abc.Sequence` of clients
  registered as ``(client_id, partition indices, seed, model name)``
  entries.  A concrete ``FLClient`` is *derived* on first touch: the data
  split is re-cut deterministically from the bundle (same per-client seeds
  as the eager path, so a derived client is bit-identical to an eagerly
  built one) and handed over as :class:`~repro.data.rows.Rows` views of
  ``bundle.train.x`` — index-sized, so the bundle's rows are held once
  however many clients are live — and the model is either built fresh
  from its seed or hydrated from the spill store.
- :class:`ClientModelStore` — one append-only log file per store plus an
  in-memory ``client id -> (offset, length)`` index.  A record is one
  :func:`repro.nn.serialize.serialize_state` blob of the model
  ``state_dict`` with the client RNG stream as its ``meta``; a spill is
  one ``os.pwritev`` at the end of the log and a hydration one
  ``os.pread``.  The index moves only after a complete write, a store
  only ever reads its own log (so a reused or shared ``spill_dir`` never
  hydrates another store's clients), and a corrupt record — the blob's
  CRC-32s catch a flipped weight byte — raises a ``ValueError`` naming
  the client and the log.

Mutation tracking decides what must survive eviction: ``registry[cid]``
marks the client *dirty* (algorithms train / load weights through it),
while :meth:`ClientRegistry.peek` materialises without marking (the
sampled-evaluation read path).  A clean evicted client is simply dropped —
it is a pure function of its seeds and is rebuilt identically on the next
touch.  A dirty one is written only if it was handed out through
``registry[cid]`` since its last record; a spilled client that ``peek``
brought back is dropped, because its record is still current.  Once
superseded records outweigh live ones, :meth:`ClientRegistry.settle`
compacts the log, so disk use stays O(mutated clients).

Eviction happens only at :meth:`ClientRegistry.settle` — the round
boundary — never mid-access, so client references handed to an algorithm
stay valid for the duration of a round.  The peak live set is therefore
``max_live`` carried clients plus whatever one round touches
(participants + evaluation sample), which is the bounded guarantee the
cohort benchmark asserts.  An evicted client's model is detached (a stale
reference to the client raises) and reused by the next derivation of the
same model name, re-initialised in place or hydrated straight into, so a
bounded registry builds few models.  See docs/SCALE.md.
"""

from __future__ import annotations

import os
import shutil
import tempfile
from collections import OrderedDict
from collections.abc import Sequence
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..data.datasets import FederatedDataBundle
from ..data.partition import split_local_train_test
from ..data.rows import Rows
from ..nn.models import ClassifierModel, build_model
from ..nn.serialize import deserialize_state, state_chunks
from .client import FLClient

__all__ = ["ClientModelStore", "ClientRegistry"]


class ClientModelStore:
    """Spill-to-disk store: one append-only log of client records.

    A record is one client's model ``state_dict`` (native dtypes) with its
    RNG stream state as ``meta``, in the same checksummed blob the parallel
    runtime ships state between processes with.  The log is one file per
    store, created under a unique name inside ``root`` on the first write;
    an in-memory index maps each client id to its latest record's
    ``(offset, length)``.  A save is one ``os.pwritev`` at the end of the
    log and a load one ``os.pread``.  The index moves only after a complete
    write, so a failed or short write never becomes readable — the next
    save overwrites its bytes.  Re-saving a client leaves its previous
    record behind as dead bytes, which :meth:`compact` reclaims.

    A store reads only records it wrote: :meth:`has` and :meth:`clear`
    see the index, never another store's log in the same directory.
    ``root=None`` creates a private temporary directory lazily on first
    write and removes it on :meth:`close`; an explicit ``root`` is owned
    by the caller and left in place (only the log is removed).
    """

    def __init__(self, root: Optional[str] = None) -> None:
        self._root = root
        self._owned = root is None
        self._fd: Optional[int] = None
        self._path: Optional[str] = None
        self._index: Dict[int, Tuple[int, int]] = {}
        self._end = 0
        self._live_bytes = 0

    @property
    def root(self) -> Optional[str]:
        return self._root

    def _new_log(self) -> Tuple[int, str]:
        return tempfile.mkstemp(prefix="clients-", suffix=".log", dir=self._root)

    def _log(self) -> int:
        if self._fd is None:
            if self._root is None:
                self._root = tempfile.mkdtemp(prefix="repro-client-store-")
            else:
                os.makedirs(self._root, exist_ok=True)
            self._fd, self._path = self._new_log()
        return self._fd

    def save(
        self, client_id: int, model_state: Dict[str, np.ndarray], rng_state: dict
    ) -> int:
        """Append one client's record to the log and point the index at
        it; returns the record size in bytes (the registry's obs gauge
        feed)."""
        chunks = state_chunks(model_state, meta={"rng": rng_state})
        length = sum(memoryview(chunk).nbytes for chunk in chunks)
        written = os.pwritev(self._log(), chunks, self._end)
        if written != length:
            raise OSError(
                f"short write to {self._path}: {written} of {length} bytes"
            )
        previous = self._index.get(client_id)
        if previous is not None:
            self._live_bytes -= previous[1]
        self._index[client_id] = (self._end, length)
        self._live_bytes += length
        self._end += length
        return length

    def load(self, client_id: int) -> Tuple[Dict[str, np.ndarray], dict]:
        """Read one client's latest record back: ``(model_state, rng_state)``.

        A corrupt record raises ``ValueError`` naming the client and log.
        """
        offset, length = self._index[client_id]
        try:
            state, meta = deserialize_state(os.pread(self._fd, length, offset))
        except ValueError as exc:
            raise ValueError(
                f"corrupt spill record for client {client_id} in {self._path}: {exc}"
            ) from exc
        return state, meta["rng"]

    def has(self, client_id: int) -> bool:
        return client_id in self._index

    def compact(self) -> None:
        """Rewrite the log with only each client's latest record once the
        dead bytes outweigh the live ones, so disk use stays O(stored
        clients).  The old log is dropped only after the new one is
        complete."""
        if self._end - self._live_bytes <= self._live_bytes:
            return
        fd, path = self._new_log()
        index: Dict[int, Tuple[int, int]] = {}
        end = 0
        try:
            for client_id, (offset, length) in self._index.items():
                record = os.pread(self._fd, length, offset)
                if len(record) != length or os.pwrite(fd, record, end) != length:
                    raise OSError(f"short copy of client {client_id}'s record")
                index[client_id] = (end, length)
                end += length
        except BaseException:
            os.close(fd)
            os.remove(path)
            raise
        os.close(self._fd)
        os.remove(self._path)
        self._fd, self._path, self._index, self._end = fd, path, index, end

    def clear(self) -> None:
        """Drop every record (checkpoint restore resets the store)."""
        self._index.clear()
        self._end = self._live_bytes = 0
        if self._fd is not None:
            os.ftruncate(self._fd, 0)

    def close(self) -> None:
        """Close and remove the log, and the store directory if this store
        created it."""
        self._index.clear()
        self._end = self._live_bytes = 0
        if self._fd is not None:
            os.close(self._fd)
            os.remove(self._path)
            self._fd = self._path = None
        if self._owned and self._root is not None:
            shutil.rmtree(self._root, ignore_errors=True)
            self._root = None


class ClientRegistry(Sequence):
    """Sequence of lazily derived clients over one data bundle.

    Parameters
    ----------
    bundle:
        The federation's data bundle; every client's slice is cut from
        ``bundle.train``.
    partitions:
        Per-client index arrays (the partitioner's output).
    model_cycle:
        Model registry names cycled across clients
        (``model_name(cid) == model_cycle[cid % len(model_cycle)]``), as
        ``build_federation`` resolves ``FederationConfig.client_models``.
    feature_dim / test_fraction / base_seed:
        Exactly the knobs the eager builder used; a derived client is
        bit-identical to one built eagerly from the same config.
    max_live:
        Carry at most this many materialised clients across round
        boundaries (LRU eviction at :meth:`settle`).  ``None`` (default)
        never evicts — the degenerate mode that is bit-identical to the
        historical eager path.
    spill_dir:
        Directory for the spill store (``None`` = private tempdir).
    """

    def __init__(
        self,
        bundle: FederatedDataBundle,
        partitions: List[np.ndarray],
        model_cycle: List[str],
        feature_dim: int,
        test_fraction: float,
        base_seed: int,
        max_live: Optional[int] = None,
        spill_dir: Optional[str] = None,
    ) -> None:
        if not model_cycle:
            raise ValueError("model_cycle must name at least one model")
        if max_live is not None and max_live < 1:
            raise ValueError(f"max_live must be >= 1, got {max_live}")
        self._bundle = bundle
        self._parts = [np.asarray(p, dtype=np.int64) for p in partitions]
        self._cycle = [str(name) for name in model_cycle]
        self._feature_dim = int(feature_dim)
        self._test_fraction = float(test_fraction)
        self._base_seed = int(base_seed)
        self.max_live = max_live
        self.store = ClientModelStore(spill_dir)
        self._live: "OrderedDict[int, FLClient]" = OrderedDict()
        # models taken from clients evicted at the last settle(), per model
        # name, for the next derivations to reuse instead of rebuilding
        self._spares: Dict[str, List[ClassifierModel]] = {}
        self._dirty: set = set()
        # live clients whose state may differ from their stored record:
        # handed out through ``registry[cid]`` (or restored in place) since
        # the last spill.  Only these are written at eviction.
        self._changed: set = set()
        # lifetime counters surfaced by stats() and the cohort benchmark
        self._materialisations = 0
        self._hydrations = 0
        self._evictions = 0
        self._spills = 0
        # clean evictions remembered so the next derivation counts as a
        # rebuild-from-seed rather than a first-touch materialisation
        self._evicted_clean: set = set()
        self._clean_rebuilds = 0
        self._metrics = None

    # ------------------------------------------------------------------
    # cheap facts (no materialisation)
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._parts)

    def attach_metrics(self, metrics) -> None:
        """Publish registry churn under the ``registry/`` metric scope.

        Counters: ``spill_writes``, ``hydrations``, ``clean_rebuilds``,
        ``evictions``, ``shard_bytes``; gauges: ``live_set_size``,
        ``dirty``.  ``repro trace summarize`` surfaces these alongside the
        stage/op tables.  A disabled registry (or ``None``) is a no-op.
        """
        self._metrics = (
            metrics if metrics is not None and metrics.enabled else None
        )

    def _update_gauges(self) -> None:
        metrics = self._metrics
        if metrics is None:
            return
        metrics.gauge("registry/live_set_size").set(len(self._live))
        metrics.gauge("registry/dirty").set(len(self._dirty))

    @property
    def model_cycle(self) -> List[str]:
        return list(self._cycle)

    def model_name(self, client_id: int) -> str:
        return self._cycle[client_id % len(self._cycle)]

    def shard_size(self, client_id: int) -> int:
        """Total samples in the client's partition (train + local test)."""
        return len(self._parts[client_id])

    def train_size(self, client_id: int) -> int:
        """Local-train sample count, by the same arithmetic as
        :func:`~repro.data.partition.split_local_train_test` — O(1), no
        materialisation."""
        n = len(self._parts[client_id])
        if n <= 1:
            return n
        n_test = min(max(1, int(round(n * self._test_fraction))), n - 1)
        return n - n_test

    def probe_model_fingerprint(self, model_name: str) -> Dict[str, list]:
        """Parameter shapes of ``model_name`` under this registry's bundle
        (shape metadata is seed-independent; used by checkpoint
        validation without touching any client)."""
        model = build_model(
            model_name,
            self._bundle.num_classes,
            self._bundle.image_shape,
            feature_dim=self._feature_dim,
            rng=0,
        )
        return {
            key: list(np.asarray(value).shape)
            for key, value in model.state_dict().items()
        }

    # ------------------------------------------------------------------
    # materialisation
    # ------------------------------------------------------------------
    def _derive(self, client_id: int) -> FLClient:
        """Build the client from its registry entry (the eager recipe).

        The model is an evicted client's spare of the same name when one
        exists: hydration loads the stored record straight into it, and a
        fresh derivation re-initialises it in place from the client's seed
        — the same ``reset_parameters`` draws its constructor makes."""
        seed = self._base_seed
        bundle = self._bundle
        train_idx, test_idx = split_local_train_test(
            self._parts[client_id],
            test_fraction=self._test_fraction,
            seed=seed + 1000 + client_id,
        )
        name = self.model_name(client_id)
        stored = self.store.has(client_id)
        spares = self._spares.get(name)
        if spares:
            model = spares.pop()
            if not stored:
                model.reset_parameters(np.random.default_rng(seed + 2000 + client_id))
        else:
            model = build_model(
                name,
                bundle.num_classes,
                bundle.image_shape,
                feature_dim=self._feature_dim,
                rng=seed + 2000 + client_id,
            )
        client = FLClient(
            client_id=client_id,
            model=model,
            x_train=Rows(bundle.train.x, train_idx),
            y_train=bundle.train.y[train_idx],
            x_test=Rows(bundle.train.x, test_idx),
            y_test=bundle.train.y[test_idx],
            num_classes=bundle.num_classes,
            seed=seed + 3000 + client_id,
            model_name=name,
        )
        if stored:
            state, rng_state = self.store.load(client_id)
            model.load_state_dict(state)
            # a spare still carries its last owner's grads and mode
            model.zero_grad()
            model.train()
            client.set_rng_state(rng_state)
            self._hydrations += 1
            self._evicted_clean.discard(client_id)
            if self._metrics is not None:
                self._metrics.counter("registry/hydrations").inc()
        elif client_id in self._evicted_clean:
            self._evicted_clean.discard(client_id)
            self._clean_rebuilds += 1
            if self._metrics is not None:
                self._metrics.counter("registry/clean_rebuilds").inc()
        return client

    def _materialise(self, client_id: int) -> FLClient:
        client = self._live.get(client_id)
        if client is None:
            client = self._derive(client_id)
            self._live[client_id] = client
            self._materialisations += 1
            self._update_gauges()
        else:
            self._live.move_to_end(client_id)
        return client

    def __getitem__(self, index):
        """Materialise a client for *use* — marks it dirty, so its state
        survives eviction and lands in checkpoints."""
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        cid = int(index)
        if cid < 0:
            cid += len(self)
        if not 0 <= cid < len(self):
            raise IndexError(f"client id {index} out of range [0, {len(self)})")
        client = self._materialise(cid)
        self._dirty.add(cid)
        self._changed.add(cid)
        return client

    def peek(self, client_id: int) -> FLClient:
        """Materialise for *read-only* use (evaluation): an untouched
        client stays clean, so eviction drops it instead of spilling and
        checkpoints stay O(mutated clients)."""
        cid = int(client_id)
        if not 0 <= cid < len(self):
            raise IndexError(f"client id {client_id} out of range [0, {len(self)})")
        return self._materialise(cid)

    # ------------------------------------------------------------------
    # dirty tracking / eviction
    # ------------------------------------------------------------------
    def dirty_ids(self) -> List[int]:
        """Clients whose state diverged from their seed derivation."""
        return sorted(self._dirty)

    def settle(self) -> None:
        """Round-boundary eviction: shrink the live set to ``max_live``
        (least-recently-used first).  A changed client is written to the
        store before it leaves the live set — a failed write raises with
        the client still live and still changed.  A dirty client whose
        record is current (hydrated by :meth:`peek` only) and a clean one
        are dropped without a write.  Then the store's log is compacted if
        superseded records outweigh live ones."""
        if self.max_live is None:
            return
        metrics = self._metrics
        live = self._live
        # spares the last round did not use are dropped, so the models held
        # never outnumber the live set this settle started from
        self._spares = {}
        while len(live) > self.max_live:
            cid, client = next(iter(live.items()))
            if cid in self._changed:
                nbytes = self.store.save(
                    cid, client.model.state_dict(), client.rng_state()
                )
                self._changed.discard(cid)
                self._spills += 1
                if metrics is not None:
                    metrics.counter("registry/spill_writes").inc()
                    metrics.counter("registry/shard_bytes").inc(nbytes)
            elif cid not in self._dirty:
                self._evicted_clean.add(cid)
            del live[cid]
            self._spares.setdefault(client.model_name, []).append(
                client.detach_model()
            )
            self._evictions += 1
            if metrics is not None:
                metrics.counter("registry/evictions").inc()
        self.store.compact()
        self._update_gauges()

    # ------------------------------------------------------------------
    # checkpoint integration (see repro.fl.checkpoint)
    # ------------------------------------------------------------------
    def client_state(self, client_id: int) -> Tuple[Dict[str, np.ndarray], dict]:
        """Current ``(model_state, rng_state)`` of a dirty client, read
        from the live set or the spill store without re-materialising."""
        client = self._live.get(client_id)
        if client is not None:
            return (
                {k: np.asarray(v) for k, v in client.model.state_dict().items()},
                client.rng_state(),
            )
        if self.store.has(client_id):
            return self.store.load(client_id)
        raise KeyError(
            f"client {client_id} has no stored state (not live, not spilled)"
        )

    def restore_client_state(
        self, client_id: int, model_state: Dict[str, np.ndarray], rng_state: dict
    ) -> None:
        """Adopt checkpointed state for one client: applied in place if
        live or if the registry is unbounded (which never evicts, so the
        client is derived live), otherwise written straight to the spill
        store — either way the next touch observes exactly the
        checkpointed state."""
        client = self._live.get(client_id)
        if client is None and self.max_live is None:
            client = self._materialise(client_id)
        if client is not None:
            client.model.load_state_dict(model_state)
            client.set_rng_state(rng_state)
            self._changed.add(client_id)
        else:
            self.store.save(client_id, model_state, rng_state)
        self._dirty.add(client_id)

    def reset(self) -> None:
        """Forget every derived client and spilled shard (checkpoint
        restore starts from a clean slate)."""
        self._live.clear()
        self._dirty.clear()
        self._changed.clear()
        self._evicted_clean.clear()
        self._spares = {}
        self.store.clear()
        self._update_gauges()

    # ------------------------------------------------------------------
    # bookkeeping
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, int]:
        return {
            "num_clients": len(self),
            "live": len(self._live),
            "dirty": len(self._dirty),
            "materialisations": self._materialisations,
            "hydrations": self._hydrations,
            "clean_rebuilds": self._clean_rebuilds,
            "evictions": self._evictions,
            "spills": self._spills,
        }

    def close(self) -> None:
        self._live.clear()
        self._changed.clear()
        self._spares = {}
        self.store.close()
