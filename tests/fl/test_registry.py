"""Lazy client registry, spill store, cohort sampling, NaN-aware metrics.

The registry replaced eager client materialisation in
``build_federation``; its load-bearing contract is that the *degenerate*
configuration (no ``max_live_clients``, full participation) is
bit-identical to the historical eager path, and that a bounded registry
with spill-to-disk produces the same run as an unbounded one.  CI
enforces both here.
"""

import math
import os
import re
import tracemalloc

import numpy as np
import pytest

from repro.algorithms import build_algorithm
from repro.data import Dataset, FederatedDataBundle
from repro.data.partition import split_local_train_test
from repro.fl import (
    ClientModelStore,
    ClientRegistry,
    FederationConfig,
    FLClient,
    ParticipationSampler,
    nan_mean,
)
from repro.fl.checkpoint import load_checkpoint, load_history
from repro.nn import build_model

from ..conftest import make_tiny_federation
from .test_exact_resume import assert_bit_identical

FEATURE_DIM = 16


def make_registry(bundle, num_clients=4, seed=0, **kwargs):
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(bundle.train))
    parts = np.array_split(order, num_clients)
    return ClientRegistry(
        bundle,
        parts,
        ["mlp_small"],
        feature_dim=FEATURE_DIM,
        test_fraction=0.2,
        base_seed=seed,
        **kwargs,
    )


class TestClientModelStore:
    def _state(self, rng):
        return {
            "layer.weight": rng.normal(size=(4, 3)).astype(np.float64),
            "layer.bias": rng.normal(size=4).astype(np.float32),
        }

    def test_round_trip_preserves_dtypes_and_values(self, tmp_path):
        store = ClientModelStore(str(tmp_path / "store"))
        rng = np.random.default_rng(0)
        state = self._state(rng)
        rng_state = {"bit_generator": "PCG64", "state": {"state": 123, "inc": 45}}
        store.save(7, state, rng_state)
        loaded, loaded_rng = store.load(7)
        assert set(loaded) == set(state)
        for key in state:
            assert loaded[key].dtype == state[key].dtype
            np.testing.assert_array_equal(loaded[key], state[key])
        assert loaded_rng == rng_state

    def test_has_and_clear(self, tmp_path):
        store = ClientModelStore(str(tmp_path / "store"))
        assert not store.has(0)
        store.save(0, self._state(np.random.default_rng(1)), {"s": 1})
        assert store.has(0)
        store.clear()
        assert not store.has(0)

    def test_owned_tempdir_removed_on_close(self):
        store = ClientModelStore()
        store.save(0, self._state(np.random.default_rng(2)), {"s": 1})
        root = store.root
        assert root is not None and os.path.isdir(root)
        store.close()
        assert not os.path.exists(root)

    def test_explicit_root_left_in_place(self, tmp_path):
        root = str(tmp_path / "store")
        store = ClientModelStore(root)
        store.save(0, self._state(np.random.default_rng(3)), {"s": 1})
        assert os.path.dirname(store._path) == root
        store.close()
        assert os.path.isdir(root)
        assert os.listdir(root) == []  # the log goes, the directory stays

    def test_stores_sharing_a_root_read_only_their_own_records(self, tmp_path):
        root = str(tmp_path / "shared")
        a, b = ClientModelStore(root), ClientModelStore(root)
        try:
            state_a = self._state(np.random.default_rng(4))
            a.save(0, state_a, {"s": "a"})
            b.save(0, self._state(np.random.default_rng(5)), {"s": "b"})
            loaded, rng_state = a.load(0)
            assert rng_state == {"s": "a"}
            for key, value in state_a.items():
                np.testing.assert_array_equal(loaded[key], value)
        finally:
            a.close()
            b.close()
        assert os.listdir(root) == []

    def test_failed_write_never_becomes_readable(self, tmp_path, monkeypatch):
        store = ClientModelStore(str(tmp_path / "store"))
        try:
            first = self._state(np.random.default_rng(6))
            size = store.save(0, first, {"s": 1})
            real_pwritev = os.pwritev
            monkeypatch.setattr(
                os, "pwritev", lambda fd, bufs, off: real_pwritev(fd, bufs[:1], off)
            )
            with pytest.raises(OSError, match="short write"):
                store.save(0, self._state(np.random.default_rng(7)), {"s": 2})
            monkeypatch.undo()
            loaded, rng_state = store.load(0)
            assert rng_state == {"s": 1}
            for key, value in first.items():
                np.testing.assert_array_equal(loaded[key], value)
            # the next write reuses the failed write's bytes
            store.save(1, first, {"s": 3})
            assert os.path.getsize(store._path) == 2 * size
        finally:
            store.close()


class TestClientRegistry:
    def test_derived_client_matches_eager_recipe(self, tiny_bundle):
        reg = make_registry(tiny_bundle, seed=5)
        try:
            cid = 2
            train_idx, test_idx = split_local_train_test(
                reg._parts[cid], test_fraction=0.2, seed=5 + 1000 + cid
            )
            model = build_model(
                "mlp_small",
                tiny_bundle.num_classes,
                tiny_bundle.image_shape,
                feature_dim=FEATURE_DIM,
                rng=5 + 2000 + cid,
            )
            eager = FLClient(
                client_id=cid,
                model=model,
                x_train=tiny_bundle.train.x[train_idx],
                y_train=tiny_bundle.train.y[train_idx],
                x_test=tiny_bundle.train.x[test_idx],
                y_test=tiny_bundle.train.y[test_idx],
                num_classes=tiny_bundle.num_classes,
                seed=5 + 3000 + cid,
                model_name="mlp_small",
            )
            derived = reg[cid]
            np.testing.assert_array_equal(derived.x_train[:], eager.x_train)
            np.testing.assert_array_equal(derived.y_test, eager.y_test)
            for key, value in eager.model.state_dict().items():
                np.testing.assert_array_equal(
                    derived.model.state_dict()[key], value
                )
            assert derived.rng_state() == eager.rng_state()
        finally:
            reg.close()

    def test_train_size_matches_materialised_split(self, tiny_bundle):
        # odd shard sizes, including the n=1 and n=0 degenerate cases
        parts = [
            np.arange(0, 1),
            np.arange(1, 3),
            np.arange(3, 10),
            np.arange(10, 10),
            np.arange(10, 63),
        ]
        reg = ClientRegistry(
            tiny_bundle, parts, ["mlp_small"],
            feature_dim=FEATURE_DIM, test_fraction=0.2, base_seed=0,
        )
        try:
            for cid in range(len(reg)):
                assert reg.train_size(cid) == reg.peek(cid).num_samples
        finally:
            reg.close()

    def test_peek_stays_clean_getitem_marks_dirty(self, tiny_bundle):
        reg = make_registry(tiny_bundle)
        try:
            reg.peek(0)
            assert reg.dirty_ids() == []
            reg[1]
            assert reg.dirty_ids() == [1]
        finally:
            reg.close()

    def test_settle_enforces_max_live_lru(self, tiny_bundle):
        reg = make_registry(tiny_bundle, max_live=2)
        try:
            for cid in range(4):
                reg.peek(cid)
            assert reg.stats()["live"] == 4  # no mid-round eviction
            reg.settle()
            stats = reg.stats()
            assert stats["live"] == 2
            assert stats["evictions"] == 2
            assert stats["spills"] == 0  # clean clients are dropped, not spilled
            # the two most recently used survive
            assert set(reg._live) == {2, 3}
        finally:
            reg.close()

    def test_dirty_eviction_spills_and_hydrates_mutated_state(self, tiny_bundle):
        reg = make_registry(tiny_bundle, max_live=1)
        try:
            client = reg[0]
            state = client.model.state_dict()
            key = next(iter(state))
            state[key] = state[key] + 1.0
            mutated = state[key]
            client.model.load_state_dict(state)
            reg.peek(1)  # push client 0 to LRU position
            reg.settle()
            assert reg.stats()["spills"] == 1
            assert 0 not in reg._live
            rehydrated = reg[0]
            np.testing.assert_array_equal(
                rehydrated.model.state_dict()[key], mutated
            )
            assert reg.stats()["hydrations"] == 1
        finally:
            reg.close()

    def test_reused_spill_dir_never_hydrates_previous_run(
        self, tiny_bundle, tmp_path
    ):
        spill_dir = str(tmp_path / "spill")
        first = make_registry(
            tiny_bundle, num_clients=6, max_live=1, spill_dir=spill_dir
        )
        client = first[5]
        state = client.model.state_dict()
        key = next(iter(state))
        state[key] = state[key] + 1.0
        client.model.load_state_dict(state)
        first.peek(0)
        first.settle()
        # the first run's log stays behind, as after a crash
        assert first.store.has(5)
        assert os.path.dirname(first.store._path) == spill_dir

        fresh = make_registry(tiny_bundle, num_clients=6)
        second = make_registry(
            tiny_bundle, num_clients=6, max_live=1, spill_dir=spill_dir
        )
        try:
            second[2]
            second.peek(0)
            second.settle()
            assert second.stats()["spills"] == 1
            seeded = fresh.peek(5).model.state_dict()
            for name, value in second.peek(5).model.state_dict().items():
                np.testing.assert_array_equal(value, seeded[name])
            assert second.stats()["hydrations"] == 0
        finally:
            first.close()
            second.close()
            fresh.close()
        assert os.listdir(spill_dir) == []

    @staticmethod
    def _truncate_record(path, offset, length):
        os.truncate(path, offset + length - 1)

    @staticmethod
    def _flip_header_byte(path, offset, length):
        with open(path, "r+b") as f:
            f.seek(offset + 1)  # inside the blob's magic
            byte = f.read(1)[0]
            f.seek(offset + 1)
            f.write(bytes([byte ^ 0xFF]))

    @staticmethod
    def _run_past_eof(path, offset, length):
        os.truncate(path, offset + 4)

    def test_corrupt_shard_raises_before_anything_is_mutated(self, tiny_bundle):
        for corrupt in (
            self._truncate_record, self._flip_header_byte, self._run_past_eof
        ):
            reg = make_registry(tiny_bundle, max_live=1)
            try:
                reg[0]
                reg.peek(1)
                reg.settle()
                survivor = {
                    k: v.copy() for k, v in reg.peek(1).model.state_dict().items()
                }
                path = reg.store._path
                corrupt(path, *reg.store._index[0])
                with pytest.raises(
                    ValueError, match=f"client 0 in {re.escape(path)}"
                ):
                    reg[0]
                assert 0 not in reg._live
                assert reg.stats()["hydrations"] == 0
                for key, value in reg.peek(1).model.state_dict().items():
                    np.testing.assert_array_equal(value, survivor[key])
            finally:
                reg.close()

    def test_flipped_weight_byte_raises_before_anything_is_mutated(
        self, tiny_bundle
    ):
        reg = make_registry(tiny_bundle, max_live=1)
        try:
            reg[0]
            reg.peek(1)
            reg.settle()
            survivor = {
                k: v.copy() for k, v in reg.peek(1).model.state_dict().items()
            }
            path = reg.store._path
            offset, length = reg.store._index[0]
            with open(path, "r+b") as f:
                f.seek(offset + length - 3)  # inside the last array's bytes
                byte = f.read(1)[0]
                f.seek(offset + length - 3)
                f.write(bytes([byte ^ 0x01]))
            with pytest.raises(
                ValueError, match=f"client 0 in {re.escape(path)}.*CRC-32"
            ):
                reg[0]
            assert 0 not in reg._live
            assert reg.stats()["hydrations"] == 0
            for key, value in reg.peek(1).model.state_dict().items():
                np.testing.assert_array_equal(value, survivor[key])
        finally:
            reg.close()

    def test_peeked_spilled_client_is_evicted_without_a_write(self, tiny_bundle):
        reg = make_registry(tiny_bundle, max_live=1)
        try:
            reg[0]
            reg.peek(1)
            reg.settle()
            assert reg.stats()["spills"] == 1
            size = os.path.getsize(reg.store._path)
            reg.peek(0)  # hydrated for evaluation, not handed out
            reg.peek(1)
            reg.settle()
            stats = reg.stats()
            assert 0 not in reg._live
            assert (stats["hydrations"], stats["spills"]) == (1, 1)
            assert os.path.getsize(reg.store._path) == size
            assert reg.dirty_ids() == [0]
        finally:
            reg.close()

    def test_failed_spill_keeps_client_live_and_retries(
        self, tiny_bundle, monkeypatch
    ):
        reg = make_registry(tiny_bundle, max_live=1)
        try:
            client = reg[0]
            state = client.model.state_dict()
            key = next(iter(state))
            state[key] = state[key] + 1.0
            trained = state[key].copy()
            client.model.load_state_dict(state)
            reg.peek(1)
            real_save = reg.store.save

            def save_fails_once(*args):
                monkeypatch.setattr(reg.store, "save", real_save)
                raise OSError(28, "No space left on device")

            monkeypatch.setattr(reg.store, "save", save_fails_once)
            with pytest.raises(OSError):
                reg.settle()
            assert reg._live.get(0) is client
            np.testing.assert_array_equal(reg.client_state(0)[0][key], trained)
            assert reg.stats()["spills"] == 0
            reg.settle()
            assert 0 not in reg._live and reg.store.has(0)
            assert reg.stats()["spills"] == 1
            np.testing.assert_array_equal(reg[0].model.state_dict()[key], trained)
        finally:
            reg.close()

    def test_settle_compacts_a_log_of_superseded_records(self, tiny_bundle):
        def snapshot(client):
            return (
                {k: v.copy() for k, v in client.model.state_dict().items()},
                client.rng_state(),
            )

        reg = make_registry(tiny_bundle, num_clients=5, max_live=1)
        try:
            expected = {cid: snapshot(reg[cid]) for cid in (1, 2, 3)}
            reg.peek(4)
            reg.settle()
            logs = set()
            for _ in range(12):  # client 0 is re-spilled every round
                client = reg[0]
                state = client.model.state_dict()
                key = next(iter(state))
                state[key] = state[key] + 1.0
                client.model.load_state_dict(state)
                expected[0] = snapshot(client)
                reg.peek(4)
                reg.settle()
                store = reg.store
                logs.add(store._path)
                lengths = [length for _, length in store._index.values()]
                assert os.path.getsize(store._path) <= 2 * sum(lengths) + max(lengths)
            assert len(logs) > 1  # the log was rewritten
            assert reg.stats()["spills"] == 3 + 12
            for cid, (state, rng_state) in expected.items():
                loaded, loaded_rng = reg.store.load(cid)
                assert loaded_rng == rng_state
                for key, value in state.items():
                    assert loaded[key].dtype == value.dtype
                    np.testing.assert_array_equal(loaded[key], value)
        finally:
            reg.close()

    def test_clean_eviction_rebuilds_identically(self, tiny_bundle):
        reg = make_registry(tiny_bundle, max_live=1)
        try:
            before = {
                k: v.copy() for k, v in reg.peek(0).model.state_dict().items()
            }
            reg.peek(1)
            reg.settle()
            after = reg.peek(0).model.state_dict()
            for key, value in before.items():
                np.testing.assert_array_equal(after[key], value)
        finally:
            reg.close()

    def test_max_live_validation(self, tiny_bundle):
        with pytest.raises(ValueError):
            make_registry(tiny_bundle, max_live=0)

    def test_stale_reference_to_evicted_client_raises(self, tiny_bundle):
        reg = make_registry(tiny_bundle, max_live=1)
        ref = make_registry(tiny_bundle)
        try:
            stale = reg[0]
            reg.peek(1)
            reg.settle()
            with pytest.raises(RuntimeError, match=r"client 0 was evicted"):
                stale.evaluate()
            # the evicted model went to a spare; client 1 can be derived on it
            reg.peek(2)
            again = reg[0]
            assert again is not stale
            state, rng_state = reg.client_state(0)
            ref_state, ref_rng_state = ref[0].model.state_dict(), ref[0].rng_state()
            assert rng_state == ref_rng_state
            assert list(state) == list(ref_state)
            for key, value in ref_state.items():
                np.testing.assert_array_equal(state[key], value)
            assert again.evaluate() == ref[0].evaluate()
        finally:
            reg.close()
            ref.close()

    def test_recycled_models_match_unbounded_registry(self, tiny_bundle):
        """Random peek/getitem/settle traffic over a mixed MLP/ResNet cycle:
        every derivation on a recycled model equals the unbounded one, and
        spares never outnumber the last settle's evictions."""
        from repro.nn import Tensor, losses

        def make(max_live):
            order = np.random.default_rng(3).permutation(len(tiny_bundle.train))
            return ClientRegistry(
                tiny_bundle, np.array_split(order, 6), ["mlp_small", "resnet11"],
                feature_dim=FEATURE_DIM, test_fraction=0.2, base_seed=3,
                max_live=max_live,
            )

        def modules(module):
            yield module
            for _, child in module.named_children():
                yield from modules(child)

        def assert_same(cid):
            state, rng_state = reg.client_state(cid)
            ref_state, ref_rng_state = ref.client_state(cid)
            assert rng_state == ref_rng_state
            assert list(state) == list(ref_state)
            for key, value in ref_state.items():
                assert state[key].dtype == value.dtype
                np.testing.assert_array_equal(state[key], value)

        reg, ref = make(1), make(None)
        ops = np.random.default_rng(11)
        try:
            for _ in range(60):
                op = ops.integers(3)
                if op == 2:
                    before = reg.stats()["evictions"]
                    reg.settle()
                    evicted = reg.stats()["evictions"] - before
                    assert all(len(s) <= evicted for s in reg._spares.values())
                    continue
                cid = int(ops.integers(len(reg)))
                derived = cid not in reg._live
                if op == 0:
                    client, twin = reg.peek(cid), ref.peek(cid)
                else:
                    client, twin = reg[cid], ref[cid]
                if derived:
                    model = client.model
                    assert all(p.grad is None for p in model.parameters())
                    assert all(m.training for m in modules(model))
                assert_same(cid)
                if op == 1:
                    # a training step on both: weights, grads, BN running
                    # stats and the RNG stream all move
                    for c in (client, twin):
                        c.model.zero_grad()
                        x = c.x_train[c.rng.permutation(len(c.x_train))[:4]]
                        loss = losses.cross_entropy(c.model(Tensor(x)), np.arange(len(x)) % 6)
                        loss.backward()
                        for p in c.model.parameters():
                            p.data = p.data - 0.1 * p.grad
                    assert_same(cid)
            assert reg.stats()["evictions"] > 0 and reg.stats()["hydrations"] > 0
        finally:
            reg.close()
            ref.close()


class TestBoundedRunEquivalence:
    """A bounded registry (spill/evict/hydrate every round) must produce
    the exact run an unbounded one does — the tentpole's correctness
    claim, CI-enforced."""

    def _run(self, bundle, **fed_kwargs):
        fed = make_tiny_federation(
            bundle, num_clients=4, server_model=None, **fed_kwargs
        )
        algo = build_algorithm("fedproto", fed, seed=0, epoch_scale=0.1)
        try:
            return algo.run(3, eval_every=1)
        finally:
            fed.close()

    def test_bounded_registry_bit_identical_to_unbounded(self, tiny_bundle):
        unbounded = self._run(tiny_bundle)
        bounded = self._run(tiny_bundle, max_live_clients=1)
        assert_bit_identical(unbounded, bounded)

    def test_bounded_resume_bit_identical(self, tiny_bundle, tmp_path):
        path = str(tmp_path / "bounded.ckpt")
        full = self._run(tiny_bundle, max_live_clients=1)

        fed = make_tiny_federation(
            tiny_bundle, num_clients=4, server_model=None, max_live_clients=1
        )
        algo = build_algorithm("fedproto", fed, seed=0, epoch_scale=0.1)
        try:
            algo.run(2, eval_every=1, checkpoint_every=2, checkpoint_path=path)
        finally:
            fed.close()

        fed = make_tiny_federation(
            tiny_bundle, num_clients=4, server_model=None, max_live_clients=1
        )
        algo = build_algorithm("fedproto", fed, seed=0, epoch_scale=0.1)
        try:
            done = load_checkpoint(algo, path)
            assert done == 2
            history = load_history(path)
            resumed = algo.run(3 - done, eval_every=1, history=history)
        finally:
            fed.close()

        assert_bit_identical(full, resumed)

    def test_parallel_executor_rejected_with_bounded_registry(self):
        with pytest.raises(ValueError, match="parallel"):
            FederationConfig(
                num_clients=4,
                client_models="mlp_small",
                max_live_clients=2,
                executor="parallel",
            )


#: per-round peak traced allocation ceiling.  The live set is bounded at
#: max_live carried clients + one round's touches (participants + eval
#: sample) over a tiny model, so rounds allocate a few MB; 64 MiB is an
#: order of magnitude of headroom while still catching any O(N)
#: materialisation regression (100k live clients would blow far past it).
COHORT_PEAK_CEILING_BYTES = 64 * 1024 * 1024


def test_100k_client_cohort_rounds_stay_under_the_memory_ceiling():
    """100k registered clients, 16 sampled per round, 32 live at most:
    every round's memory is O(cohort), not O(N)."""
    from repro.data import SyntheticImageTask
    from repro.fl import build_federation

    task = SyntheticImageTask(
        num_classes=4,
        image_shape=(1, 4, 4),
        latent_dim=4,
        class_separation=2.0,
        seed=0,
        name="cohort-smoke",
    )
    bundle = task.make_bundle(n_train=120_000, n_test=400, n_public=100, seed=1)
    config = FederationConfig(
        num_clients=100_000,
        partition=("iid", {}),
        client_models="mlp_small",
        server_model=None,
        feature_dim=8,
        seed=0,
        clients_per_round=16,
        max_live_clients=32,
        eval_clients=64,
    )
    federation = build_federation(bundle, config)
    try:
        algo = build_algorithm("fedproto", federation, seed=0, epoch_scale=0.1)
        # trace only round-time allocations: the bounded-registry guarantee
        # is about what a *round* touches, not the one-off bundle build
        per_round_peak = []
        tracemalloc.start()
        try:
            for _ in range(3):
                tracemalloc.reset_peak()
                algo.run(1, eval_every=1)
                per_round_peak.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        stats = federation.registry.stats()
        num_clients = federation.num_clients
    finally:
        federation.close()

    assert max(per_round_peak) < COHORT_PEAK_CEILING_BYTES, per_round_peak
    assert stats["live"] <= 32, stats
    assert num_clients >= 100_000


class TestCohortSampling:
    def _reference_sample(self, rng, num_clients, dropout_prob, min_available):
        """The historical per-client scalar loop, verbatim."""
        available = []
        for cid in range(num_clients):
            if rng.random() >= dropout_prob:
                available.append(cid)
        shortfall = min_available - len(available)
        if shortfall > 0:
            dropped = np.setdiff1d(
                np.arange(num_clients), np.asarray(available, dtype=np.int64)
            )
            extra = rng.choice(dropped, size=shortfall, replace=False)
            available.extend(int(cid) for cid in extra)
        return sorted(available)

    @pytest.mark.parametrize("seed", [0, 1, 7])
    @pytest.mark.parametrize("dropout_prob,min_available", [(0.3, 1), (0.9, 5)])
    def test_vectorised_draws_bit_identical_to_loop(
        self, seed, dropout_prob, min_available
    ):
        sampler = ParticipationSampler(
            12, dropout_prob=dropout_prob, min_available=min_available, seed=seed
        )
        reference_rng = np.random.default_rng(seed)
        for _ in range(50):
            assert sampler.sample() == self._reference_sample(
                reference_rng, 12, dropout_prob, min_available
            )

    def test_cohort_is_sorted_subset_of_requested_size(self):
        sampler = ParticipationSampler(100, clients_per_round=8, seed=3)
        for _ in range(20):
            ids = sampler.sample()
            assert len(ids) == 8
            assert ids == sorted(ids)
            assert len(set(ids)) == 8
            assert all(0 <= cid < 100 for cid in ids)

    def test_cohort_varies_across_rounds_and_is_seed_deterministic(self):
        a = [ParticipationSampler(50, clients_per_round=5, seed=4).sample()
             for _ in range(1)]
        sampler_b = ParticipationSampler(50, clients_per_round=5, seed=4)
        assert sampler_b.sample() == a[0]
        assert sampler_b.sample() != a[0] or True  # stream advances
        rounds = [sampler_b.sample() for _ in range(10)]
        assert len({tuple(r) for r in rounds}) > 1

    def test_cohort_with_dropout_stays_within_cohort(self):
        sampler = ParticipationSampler(
            40, clients_per_round=10, dropout_prob=0.5, min_available=2, seed=0
        )
        for _ in range(30):
            ids = sampler.sample()
            assert 2 <= len(ids) <= 10

    def test_validation(self):
        with pytest.raises(ValueError):
            ParticipationSampler(4, clients_per_round=0)
        with pytest.raises(ValueError):
            ParticipationSampler(4, clients_per_round=5)
        with pytest.raises(ValueError):
            # min_available is checked against the cohort, not the population
            ParticipationSampler(10, clients_per_round=3, min_available=4)


class TestSampledEvaluation:
    def test_full_evaluation_when_unset(self, tiny_bundle):
        fed = make_tiny_federation(tiny_bundle, num_clients=4)
        try:
            assert list(fed.eval_client_ids(0)) == [0, 1, 2, 3]
        finally:
            fed.close()

    def test_sampled_evaluation_is_stateless_and_round_keyed(self, tiny_bundle):
        fed = make_tiny_federation(tiny_bundle, num_clients=4, eval_clients=2)
        try:
            ids_r0 = fed.eval_client_ids(0)
            assert len(ids_r0) == 2 and list(ids_r0) == sorted(ids_r0)
            # stateless: same round replays the same sample (resume safety)
            assert fed.eval_client_ids(0) == ids_r0
            samples = {tuple(fed.eval_client_ids(r)) for r in range(20)}
            assert len(samples) > 1  # round-keyed, not frozen
        finally:
            fed.close()


def singleton_class_bundle(bundle, singleton_class=5):
    """Rebuild ``bundle`` so ``singleton_class`` has exactly one train
    sample (or zero with ``keep=0`` via ``drop_class_bundle``)."""
    y = bundle.train.y
    keep = np.flatnonzero(y != singleton_class)
    one = np.flatnonzero(y == singleton_class)[:1]
    idx = np.sort(np.concatenate([keep, one]))
    train = Dataset(
        bundle.train.x[idx], y[idx], bundle.num_classes, name="singleton"
    )
    return FederatedDataBundle(
        train=train,
        test=bundle.test,
        public=bundle.public,
        public_true_labels=bundle.public_true_labels,
        num_classes=bundle.num_classes,
        name="singleton",
    )


def drop_class_bundle(bundle, dropped_class=5):
    y = bundle.train.y
    idx = np.flatnonzero(y != dropped_class)
    train = Dataset(
        bundle.train.x[idx], y[idx], bundle.num_classes, name="dropped"
    )
    return FederatedDataBundle(
        train=train,
        test=bundle.test,
        public=bundle.public,
        public_true_labels=bundle.public_true_labels,
        num_classes=bundle.num_classes,
        name="dropped",
    )


GROUPS = [[0, 1], [2, 3], [4], [5]]


class TestSmallShardRegressions:
    """Satellites 1 and 4: singleton and empty shards must not poison a
    run — NaN-aware accuracy for empty local test sets, logged dropout
    for empty train shards."""

    def test_by_classes_singleton_shard_run_is_nan_aware(self, tiny_bundle):
        bundle = singleton_class_bundle(tiny_bundle)
        fed = make_tiny_federation(
            bundle,
            num_clients=len(GROUPS),
            server_model=None,
            partition=("by_classes", {"class_groups": GROUPS}),
        )
        algo = build_algorithm("fedproto", fed, seed=0, epoch_scale=0.1)
        try:
            # the singleton client trains on its 1 sample, has no local test
            assert fed.registry.train_size(3) == 1
            assert len(fed.registry.peek(3).x_test) == 0
            history = algo.run(2, eval_every=1)
        finally:
            fed.close()
        record = history.records[-1]
        assert math.isnan(record.client_accs[3])
        assert all(not math.isnan(a) for a in record.client_accs[:3])
        # the NaN-aware mean reflects the measurable clients only
        assert record.mean_client_acc == nan_mean(record.client_accs[:3])
        assert not math.isnan(record.mean_client_acc)

    def test_empty_shard_degrades_to_logged_dropout(self, tiny_bundle):
        bundle = drop_class_bundle(tiny_bundle)
        fed = make_tiny_federation(
            bundle,
            num_clients=len(GROUPS),
            server_model=None,
            partition=("by_classes", {"class_groups": GROUPS}),
        )
        algo = build_algorithm("fedproto", fed, seed=0, epoch_scale=0.1)
        try:
            assert fed.registry.train_size(3) == 0
            history = algo.run(2, eval_every=1)
        finally:
            fed.close()
        assert len(history.records) == 2
        empties = [
            e for e in algo.dropout_log.events if e.reason == "empty_shard"
        ]
        assert {e.client_id for e in empties} == {3}
        assert {e.round_index for e in empties} == {1, 2}

    def test_nan_mean(self):
        nan = float("nan")
        assert nan_mean([1.0, 3.0]) == 2.0
        assert nan_mean([1.0, nan, 3.0]) == 2.0
        assert math.isnan(nan_mean([nan, nan]))
        assert math.isnan(nan_mean([]))
