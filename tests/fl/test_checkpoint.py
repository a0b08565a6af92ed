"""Tests for checkpoint save/resume: state coverage, validation, crash safety,
and corruption that must fail before anything is mutated."""

import json
import os

import numpy as np
import pytest

from repro.algorithms import build_algorithm
from repro.core import FedPKD
from repro.fl import checkpoint
from repro.fl.checkpoint import (
    CHECKPOINT_FORMAT_VERSION,
    CheckpointError,
    load_checkpoint,
    load_history,
    read_checkpoint_meta,
    save_checkpoint,
)
from repro.nn import deserialize_state, serialize_state

from ..conftest import make_tiny_federation, records_json
from .test_pinned_histories import history_digest


def make_algo(bundle, seed=0, **fed_kwargs):
    fed = make_tiny_federation(bundle, server_model="mlp_medium", seed=seed, **fed_kwargs)
    return build_algorithm("fedpkd", fed, seed=seed, epoch_scale=0.1)


def write_v3_npz(path):
    """A format-v3 checkpoint as the last ``.npz`` writer laid it out:
    arrays plus the metadata smuggled in as a uint8 JSON array."""
    meta = json.dumps({"format_version": 3, "round_index": 1}).encode("utf-8")
    with open(path, "wb") as f:
        np.savez(
            f,
            **{
                "client0::w": np.zeros(3),
                "__meta__json": np.frombuffer(meta, dtype=np.uint8),
                "__meta__format_version": np.array(3, dtype=np.int64),
            },
        )


class TestCheckpoint:
    def test_roundtrip_restores_weights_and_round(self, tiny_bundle, tmp_path):
        algo = make_algo(tiny_bundle)
        algo.run(rounds=2)
        path = str(tmp_path / "run.ckpt")
        save_checkpoint(algo, path)

        fresh = make_algo(tiny_bundle, seed=0)
        assert fresh.round_index == 0
        restored_round = load_checkpoint(fresh, path)
        assert restored_round == 2
        assert fresh.round_index == 2

        np.testing.assert_allclose(
            fresh.server.model.classifier.weight.data,
            algo.server.model.classifier.weight.data,
            atol=1e-6,
        )
        for a, b in zip(fresh.clients, algo.clients):
            np.testing.assert_allclose(
                a.model.classifier.weight.data,
                b.model.classifier.weight.data,
                atol=1e-6,
            )

    def test_algorithm_state_restored(self, tiny_bundle, tmp_path):
        algo = make_algo(tiny_bundle)
        algo.run(rounds=1)
        path = str(tmp_path / "run.ckpt")
        save_checkpoint(algo, path)

        fresh = make_algo(tiny_bundle, seed=0)
        load_checkpoint(fresh, path)
        assert fresh.global_prototypes is not None
        finite = ~np.isnan(algo.global_prototypes)
        np.testing.assert_allclose(
            fresh.global_prototypes[finite], algo.global_prototypes[finite], atol=1e-6
        )

    def test_rng_streams_restored(self, tiny_bundle, tmp_path):
        algo = make_algo(tiny_bundle, dropout_prob=0.3)
        algo.run(rounds=1)
        path = str(tmp_path / "run.ckpt")
        save_checkpoint(algo, path)

        fresh = make_algo(tiny_bundle, seed=0, dropout_prob=0.3)
        load_checkpoint(fresh, path)
        assert fresh.rng.bit_generator.state == algo.rng.bit_generator.state
        assert (
            fresh.server.rng.bit_generator.state
            == algo.server.rng.bit_generator.state
        )
        assert (
            fresh.federation.participation.rng.bit_generator.state
            == algo.federation.participation.rng.bit_generator.state
        )
        for a, b in zip(fresh.clients, algo.clients):
            assert a.rng_state() == b.rng_state()

    def test_channel_ledger_restored(self, tiny_bundle, tmp_path):
        algo = make_algo(tiny_bundle)
        algo.run(rounds=1)
        path = str(tmp_path / "run.ckpt")
        save_checkpoint(algo, path)

        fresh = make_algo(tiny_bundle, seed=0)
        assert fresh.channel.total_bytes == 0
        load_checkpoint(fresh, path)
        assert fresh.channel.total_bytes == algo.channel.total_bytes > 0
        clients = range(len(algo.clients))
        assert [fresh.channel.client_bytes(c) for c in clients] == [
            algo.channel.client_bytes(c) for c in clients
        ]
        assert [
            (s.uplink, s.downlink) for s in fresh.channel.round_marks
        ] == [(s.uplink, s.downlink) for s in algo.channel.round_marks]

    def test_history_roundtrips_through_checkpoint(self, tiny_bundle, tmp_path):
        algo = make_algo(tiny_bundle)
        history = algo.run(rounds=2)
        path = str(tmp_path / "run.ckpt")
        save_checkpoint(algo, path, history=history)

        restored = load_history(path)
        assert restored is not None
        assert restored.to_dict() == history.to_dict()

    def test_load_history_none_when_absent(self, tiny_bundle, tmp_path):
        algo = make_algo(tiny_bundle)
        path = str(tmp_path / "run.ckpt")
        save_checkpoint(algo, path)
        assert load_history(path) is None

    def test_read_checkpoint_meta(self, tiny_bundle, tmp_path):
        algo = make_algo(tiny_bundle)
        algo.run(rounds=1)
        path = str(tmp_path / "run.ckpt")
        save_checkpoint(algo, path)
        meta = read_checkpoint_meta(path)
        assert meta["format_version"] == CHECKPOINT_FORMAT_VERSION
        assert meta["round_index"] == 1
        assert meta["fingerprint"]["algorithm"] == "fedpkd"

    def test_resumed_run_continues(self, tiny_bundle, tmp_path):
        algo = make_algo(tiny_bundle)
        history = algo.run(rounds=1)
        path = str(tmp_path / "run.ckpt")
        save_checkpoint(algo, path)

        fresh = make_algo(tiny_bundle, seed=0)
        load_checkpoint(fresh, path)
        resumed = fresh.run(rounds=1)
        assert resumed.records[-1].round_index == 2

    def test_file_with_pending_section_and_wall_times_resumes(
        self, tiny_bundle, tmp_path
    ):
        """A v5 file written while histories still held wall-clock time (a
        ``pending`` section, ``wall_time_s`` and ``time/<stage>`` extras in
        every record) loads, and the resumed run records what an
        uninterrupted one does."""
        full = make_algo(tiny_bundle).run(rounds=2)
        algo = make_algo(tiny_bundle)
        history = algo.run(rounds=1)
        path = str(tmp_path / "run.ckpt")
        save_checkpoint(algo, path, history=history)
        with open(path, "rb") as f:
            arrays, meta = deserialize_state(f.read())
        meta["pending"] = {
            "wall_time_s": 0.5, "stage_times": {"local_train": 0.25},
            "dropouts": 0,
        }
        for record in meta["history"]["records"]:
            record["wall_time_s"] = 1.25
            record["extras"]["time/local_train"] = 0.75
            record["extras"]["time/public_train"] = 0.25
        with open(path, "wb") as f:
            f.write(serialize_state(arrays, meta))

        assert read_checkpoint_meta(path)["format_version"] == 5
        fresh = make_algo(tiny_bundle)
        assert load_checkpoint(fresh, path) == 1
        resumed = fresh.run(rounds=1, history=load_history(path))
        assert records_json(resumed) == records_json(full)

    def test_missing_file(self, tiny_bundle):
        algo = make_algo(tiny_bundle)
        with pytest.raises(FileNotFoundError):
            load_checkpoint(algo, "/nonexistent/run.ckpt")

    def test_no_server_model_algorithms(self, tiny_bundle, tmp_path):
        fed = make_tiny_federation(tiny_bundle, server_model=None)
        algo = build_algorithm("fedmd", fed, epoch_scale=0.1)
        algo.run(rounds=1)
        path = str(tmp_path / "fedmd.ckpt")
        save_checkpoint(algo, path)

        fresh_fed = make_tiny_federation(tiny_bundle, server_model=None)
        fresh = build_algorithm("fedmd", fresh_fed, epoch_scale=0.1)
        assert load_checkpoint(fresh, path) == 1


class TestFingerprintValidation:
    def test_client_count_mismatch_rejected(self, tiny_bundle, tmp_path):
        algo = make_algo(tiny_bundle)
        path = str(tmp_path / "run.ckpt")
        save_checkpoint(algo, path)

        fed = make_tiny_federation(
            tiny_bundle, num_clients=4, server_model="mlp_medium"
        )
        other = build_algorithm("fedpkd", fed, epoch_scale=0.1)
        with pytest.raises(ValueError):
            load_checkpoint(other, path)

    def test_architecture_mismatch_names_client_and_param(
        self, tiny_bundle, tmp_path
    ):
        algo = make_algo(tiny_bundle)
        path = str(tmp_path / "run.ckpt")
        save_checkpoint(algo, path)

        # heterogeneous assignment: client 1 now runs mlp_medium instead of
        # the checkpoint's mlp_small — must be rejected up front, naming the
        # client, not deep inside load_state_dict
        hetero = make_tiny_federation(
            tiny_bundle,
            client_models=["mlp_small", "mlp_medium", "mlp_small"],
            server_model="mlp_medium",
        )
        other = build_algorithm("fedpkd", hetero, epoch_scale=0.1)
        with pytest.raises(CheckpointError, match="client 1"):
            load_checkpoint(other, path)
        # validation happens before mutation: client 0 weights untouched
        fresh = make_algo(tiny_bundle, seed=0)
        np.testing.assert_array_equal(
            other.clients[0].model.classifier.weight.data.shape,
            fresh.clients[0].model.classifier.weight.data.shape,
        )

    def test_algorithm_mismatch_rejected(self, tiny_bundle, tmp_path):
        algo = make_algo(tiny_bundle)
        path = str(tmp_path / "run.ckpt")
        save_checkpoint(algo, path)

        fed = make_tiny_federation(tiny_bundle, server_model="mlp_medium")
        other = build_algorithm("naive_kd", fed, epoch_scale=0.1)
        with pytest.raises(CheckpointError, match="fedpkd"):
            load_checkpoint(other, path)

    def test_server_presence_mismatch_rejected(self, tiny_bundle, tmp_path):
        fed = make_tiny_federation(tiny_bundle, server_model=None)
        algo = build_algorithm("fedproto", fed, epoch_scale=0.1)
        path = str(tmp_path / "run.ckpt")
        save_checkpoint(algo, path)

        # fedproto never has a server model, so fake one structurally: load a
        # with-server fedpkd checkpoint into a serverless fedproto is already
        # covered by the algorithm check; here check the server direction via
        # meta inspection
        meta = read_checkpoint_meta(path)
        assert meta["fingerprint"]["server"] is None


class TestCrashSafety:
    def test_interrupted_save_preserves_previous_checkpoint(
        self, tiny_bundle, tmp_path, monkeypatch
    ):
        algo = make_algo(tiny_bundle)
        algo.run(rounds=1)
        path = str(tmp_path / "run.ckpt")
        save_checkpoint(algo, path)
        good_bytes = open(path, "rb").read()

        algo.run(rounds=1)

        real_chunks = checkpoint.state_chunks

        def dying_chunks(state, meta=None):
            # the header reaches the file, then the disk fills mid-save
            yield real_chunks(state, meta)[0]
            raise OSError("disk full")

        monkeypatch.setattr(checkpoint, "state_chunks", dying_chunks)
        with pytest.raises(OSError):
            save_checkpoint(algo, path)
        monkeypatch.undo()

        # the previous checkpoint is byte-identical and loadable; no tmp
        # litter remains
        assert open(path, "rb").read() == good_bytes
        assert [p for p in os.listdir(tmp_path) if ".tmp." in p] == []
        fresh = make_algo(tiny_bundle, seed=0)
        assert load_checkpoint(fresh, path) == 1

    def test_truncated_file_raises_checkpoint_error(self, tiny_bundle, tmp_path):
        algo = make_algo(tiny_bundle)
        path = str(tmp_path / "run.ckpt")
        save_checkpoint(algo, path)
        blob = open(path, "rb").read()
        with open(path, "wb") as f:
            f.write(blob[: len(blob) // 3])

        fresh = make_algo(tiny_bundle, seed=0)
        with pytest.raises(CheckpointError, match="corrupt or truncated"):
            load_checkpoint(fresh, path)

    def test_garbage_file_raises_checkpoint_error(self, tiny_bundle, tmp_path):
        path = str(tmp_path / "garbage.ckpt")
        with open(path, "wb") as f:
            f.write(b"this is not a checkpoint at all")
        algo = make_algo(tiny_bundle)
        with pytest.raises(CheckpointError):
            load_checkpoint(algo, path)

    def test_unversioned_npz_rejected(self, tiny_bundle, tmp_path):
        path = str(tmp_path / "legacy.npz")
        write_v3_npz(path)
        algo = make_algo(tiny_bundle)
        with pytest.raises(CheckpointError, match=r"\.npz checkpoint \(format v3"):
            load_checkpoint(algo, path)

    @pytest.mark.parametrize(
        "version",
        [CHECKPOINT_FORMAT_VERSION + 1, CHECKPOINT_FORMAT_VERSION - 1],
        ids=["newer", "older"],
    )
    def test_other_version_rejected(self, tiny_bundle, tmp_path, version):
        algo = make_algo(tiny_bundle)
        path = str(tmp_path / "run.ckpt")
        save_checkpoint(algo, path)
        with open(path, "rb") as f:
            arrays, meta = deserialize_state(f.read())
        meta["format_version"] = version
        with open(path, "wb") as f:
            f.write(serialize_state(arrays, meta))
        with pytest.raises(CheckpointError, match="format version"):
            load_checkpoint(algo, path)


class TestTouchedClientsLayout:
    """Every registry, bounded or not, checkpoints only the clients a run
    touched; the rest re-derive from their seeds on resume."""

    @staticmethod
    def make_cohort(bundle, executor="serial"):
        fed = make_tiny_federation(
            bundle, num_clients=12, server_model=None, clients_per_round=2,
            executor=executor, max_workers=2 if executor == "parallel" else None,
        )
        return build_algorithm("fedproto", fed, seed=0, epoch_scale=0.1)

    @pytest.mark.parametrize("executor", ["serial", "parallel"])
    def test_unbounded_checkpoint_holds_only_sampled_clients(
        self, tiny_bundle, tmp_path, executor
    ):
        probe = self.make_cohort(tiny_bundle)
        sampled = probe.federation.participation.sample()
        probe.federation.close()
        assert len(sampled) == 2

        path = str(tmp_path / "run.ckpt")
        head = self.make_cohort(tiny_bundle, executor)
        registry = head.federation.registry
        assert registry.max_live is None
        history = head.run(rounds=1)
        dirty = registry.dirty_ids()
        save_checkpoint(head, path, history=history)
        assert registry.dirty_ids() == dirty
        head.federation.close()
        assert read_checkpoint_meta(path)["registry"]["dirty"] == sampled

        full = self.make_cohort(tiny_bundle)
        expected = full.run(rounds=3)
        full.federation.close()
        tail = self.make_cohort(tiny_bundle, executor)
        assert load_checkpoint(tail, path) == 1
        resumed = tail.run(rounds=2, history=load_history(path))
        tail.federation.close()
        assert history_digest(resumed) == history_digest(expected)

    def test_unbounded_resume_never_opens_the_spill_log(self, tiny_bundle, tmp_path):
        """An unbounded registry never evicts, so a resume derives each saved
        client live and loads its state in place: no spill log is created,
        nothing is written to disk or read back, and the run continues
        bit-identically."""
        path = str(tmp_path / "run.ckpt")
        head = self.make_cohort(tiny_bundle)
        save_checkpoint(head, path, history=head.run(rounds=1))
        saved = head.federation.registry.dirty_ids()
        head.federation.close()

        full = self.make_cohort(tiny_bundle)
        expected = full.run(rounds=3)
        full.federation.close()
        tail = self.make_cohort(tiny_bundle)
        registry = tail.federation.registry
        try:
            load_checkpoint(tail, path)
            assert registry.dirty_ids() == saved
            assert registry.stats()["live"] == len(saved)
            resumed = tail.run(rounds=2, history=load_history(path))
            assert registry.store.root is None
            assert registry.stats()["hydrations"] == 0
        finally:
            tail.federation.close()
        assert history_digest(resumed) == history_digest(expected)


class TestAutosave:
    def test_run_autosaves_at_cadence(self, tiny_bundle, tmp_path):
        path = str(tmp_path / "auto.ckpt")
        algo = make_algo(tiny_bundle)
        history = algo.run(rounds=2, checkpoint_every=2, checkpoint_path=path)
        meta = read_checkpoint_meta(path)
        assert meta["round_index"] == 2
        restored = load_history(path)
        assert len(restored.records) == len(history.records)

    def test_autosave_fires_on_final_round(self, tiny_bundle, tmp_path):
        path = str(tmp_path / "auto.ckpt")
        algo = make_algo(tiny_bundle)
        algo.run(rounds=3, checkpoint_every=2, checkpoint_path=path)
        assert read_checkpoint_meta(path)["round_index"] == 3

    def test_federation_config_threads_autosave(self, tiny_bundle, tmp_path):
        path = str(tmp_path / "auto.ckpt")
        fed = make_tiny_federation(
            tiny_bundle,
            server_model="mlp_medium",
            checkpoint_every=1,
            checkpoint_path=path,
        )
        algo = build_algorithm("fedpkd", fed, epoch_scale=0.1)
        algo.run(rounds=1)
        assert os.path.exists(path)
        assert read_checkpoint_meta(path)["round_index"] == 1


def _state_snapshot(algo):
    """Every client/server weight and every RNG stream of ``algo``."""
    return {
        "clients": [
            {k: v.tobytes() for k, v in c.model.state_dict().items()}
            for c in algo.clients
        ],
        "server": {k: v.tobytes() for k, v in algo.server.model.state_dict().items()},
        "rngs": [
            algo.rng.bit_generator.state,
            algo.server.rng.bit_generator.state,
            algo.federation.participation.rng.bit_generator.state,
        ] + [c.rng_state() for c in algo.clients],
        "round_index": algo.round_index,
    }


def _flip(blob, pos):
    return blob[:pos] + bytes([blob[pos] ^ 0x01]) + blob[pos + 1:]


def _header_end(blob):
    return 20 + int.from_bytes(blob[4:12], "little")


CORRUPTIONS = {
    "flipped_header_byte": lambda blob: _flip(blob, (20 + _header_end(blob)) // 2),
    "flipped_data_byte": lambda blob: _flip(blob, (_header_end(blob) + len(blob)) // 2),
    "trailing_byte": lambda blob: blob + b"\x00",
    "bad_magic": lambda blob: b"XPST" + blob[4:],
}


class TestCorruptionProperty:
    """Any corruption of a checkpoint file raises CheckpointError before
    the target algorithm's weights or RNG streams move."""

    @pytest.fixture
    def saved(self, tiny_bundle, tmp_path):
        algo = make_algo(tiny_bundle)
        history = algo.run(rounds=1)
        path = str(tmp_path / "run.ckpt")
        save_checkpoint(algo, path, history=history)
        target = make_algo(tiny_bundle, seed=0)
        with open(path, "rb") as f:
            return path, f.read(), target, _state_snapshot(target)

    def test_every_truncation_raises_before_mutation(self, saved):
        path, blob, target, before = saved
        cuts = range(0, len(blob), 97)
        assert len(cuts) > 100
        for cut in reversed(cuts):
            os.truncate(path, cut)
            with pytest.raises(CheckpointError, match="corrupt or truncated"):
                load_checkpoint(target, path)
        assert _state_snapshot(target) == before

    @pytest.mark.parametrize("corruption", sorted(CORRUPTIONS))
    def test_corrupt_file_raises_before_mutation(self, saved, corruption):
        path, blob, target, before = saved
        with open(path, "wb") as f:
            f.write(CORRUPTIONS[corruption](blob))
        with pytest.raises(CheckpointError, match="corrupt or truncated"):
            load_checkpoint(target, path)
        assert _state_snapshot(target) == before

    def test_v3_npz_raises_before_mutation(self, saved):
        path, _, target, before = saved
        write_v3_npz(path)
        with pytest.raises(CheckpointError, match="format v3"):
            load_checkpoint(target, path)
        assert _state_snapshot(target) == before

    def test_header_readers_reject_a_flipped_header_byte(self, saved):
        path, blob, _, _ = saved
        assert read_checkpoint_meta(path)["round_index"] == 1
        with open(path, "wb") as f:
            f.write(CORRUPTIONS["flipped_header_byte"](blob))
        with pytest.raises(CheckpointError, match="header CRC-32 mismatch"):
            read_checkpoint_meta(path)
        with pytest.raises(CheckpointError, match="header CRC-32 mismatch"):
            load_history(path)
