"""Tests for sweep specs: expansion order, run keys, validation."""

import json

import pytest

from repro.sweep import RunSpec, SweepSpec, SweepSpecError


def make_spec(**kwargs):
    payload = {
        "name": "t",
        "base": {"scale": "tiny", "rounds": 1},
        "axes": {"algorithm": ["fedavg", "fedmd"], "seed": [0, 1]},
    }
    payload.update(kwargs)
    return SweepSpec.from_dict(payload)


class TestExpansion:
    def test_grid_size(self):
        assert len(make_spec().expand()) == 4

    def test_deterministic_order(self):
        labels = [run.label() for run in make_spec().expand()]
        assert labels == [run.label() for run in make_spec().expand()]
        # sorted axis keys: 'algorithm' before 'seed' → algorithm is the
        # outer loop, values in listed order
        assert [lbl.split("/")[0] for lbl in labels] == [
            "fedavg", "fedavg", "fedmd", "fedmd"
        ]

    def test_axis_value_order_preserved(self):
        spec = make_spec(axes={"algorithm": ["fedmd", "fedavg"], "seed": [1, 0]})
        labels = [run.label() for run in spec.expand()]
        assert labels[0].startswith("fedmd/") and labels[0].endswith("/s1")

    def test_base_only_fields_shared(self):
        spec = make_spec(base={"scale": "tiny", "rounds": 7, "dataset": "cifar100"})
        assert all(r.rounds == 7 for r in spec.expand())
        assert all(r.setting_fields["dataset"] == "cifar100" for r in spec.expand())

    def test_config_axis_becomes_override(self):
        spec = make_spec(
            base={"scale": "tiny", "algorithm": "fedpkd", "rounds": 1},
            axes={"config.select_ratio": [0.3, 0.7]},
        )
        runs = spec.expand()
        assert [r.overrides["select_ratio"] for r in runs] == [0.3, 0.7]

    def test_per_algorithm_overrides_merged(self):
        spec = make_spec(overrides={"fedpkd": {"delta": 0.25}})
        spec.axes["algorithm"] = ["fedpkd", "fedavg"]
        by_algo = {r.algorithm: r for r in spec.expand() if r.setting_fields["seed"] == 0}
        assert by_algo["fedpkd"].overrides == {"delta": 0.25}
        assert by_algo["fedavg"].overrides == {}


class TestRunKey:
    def test_key_is_stable_across_expansions(self):
        first = [r.run_key() for r in make_spec().expand()]
        second = [r.run_key() for r in make_spec().expand()]
        assert first == second

    def test_pinned_run_keys(self):
        # literals computed at RUN_KEY_VERSION 3 and checkpoint format 4: a
        # refactor of how the key fields are gathered must not move a
        # single cached history
        assert RunSpec("fedavg").run_key() == (
            "9e6700036ccd3b61a2d82e2b7544be2e9cbb68e9fba3e5a3335ff68e349525a5"
        )
        busy = RunSpec(
            "fedpkd",
            {
                "scale": "tiny", "seed": 7, "partition": "dir0.1",
                "heterogeneous": True, "engine": "async", "max_staleness": 2,
                "buffer_size": 3, "clients_per_round": 3,
            },
            {"executor": "parallel", "max_workers": 2, "profile": True},
            rounds=3,
        )
        assert busy.run_key() == (
            "a47bb1ca1fbfc76f4d6dd8b3c3aa8170625acf5d490d19d9c54b27ce5080f37d"
        )

    def test_defaults_normalised_into_key(self):
        # explicit default == implicit default
        explicit = RunSpec("fedavg", {"dataset": "cifar10", "seed": 0}, rounds=1)
        implicit = RunSpec("fedavg", {"seed": 0}, rounds=1)
        assert explicit.run_key() == implicit.run_key()

    def test_runtime_fields_excluded_from_key(self):
        serial = RunSpec("fedavg", {"seed": 0}, {"executor": "serial"}, rounds=1)
        parallel = RunSpec(
            "fedavg", {"seed": 0}, {"executor": "parallel", "max_workers": 2},
            rounds=1,
        )
        assert serial.run_key() == parallel.run_key()

    def test_result_affecting_fields_change_key(self):
        base = RunSpec("fedavg", {"seed": 0}, rounds=1)
        for other in (
            RunSpec("fedmd", {"seed": 0}, rounds=1),
            RunSpec("fedavg", {"seed": 1}, rounds=1),
            RunSpec("fedavg", {"seed": 0}, rounds=2),
            RunSpec("fedavg", {"seed": 0}, rounds=1, overrides={"lr": 0.1}),
        ):
            assert other.run_key() != base.run_key()

    def test_duplicate_run_keys_rejected(self):
        # runtime axes don't enter the key, so this grid collapses to dupes
        spec = make_spec(
            base={"scale": "tiny", "algorithm": "fedavg", "rounds": 1},
            axes={"executor": ["serial", "parallel"]},
        )
        with pytest.raises(SweepSpecError, match="duplicate run key"):
            spec.expand()


class TestValidation:
    def test_unknown_top_level_key(self):
        with pytest.raises(SweepSpecError, match="unknown top-level"):
            SweepSpec.from_dict({"name": "t", "axes": {"seed": [0]}, "grid": {}})

    def test_missing_name(self):
        with pytest.raises(SweepSpecError, match="name"):
            SweepSpec.from_dict({"axes": {"seed": [0]}})

    def test_empty_axes(self):
        with pytest.raises(SweepSpecError, match="axes"):
            SweepSpec.from_dict({"name": "t", "axes": {}})

    def test_unknown_field(self):
        with pytest.raises(SweepSpecError, match="unknown sweep field"):
            make_spec(base={"learning_rate": [0.1]}).expand()

    def test_managed_field_rejected(self):
        with pytest.raises(SweepSpecError, match="managed by the sweep scheduler"):
            make_spec(base={"checkpoint_path": "x.npz"}).expand()

    def test_empty_axis_values(self):
        with pytest.raises(SweepSpecError, match="non-empty list"):
            make_spec(axes={"algorithm": ["fedavg"], "seed": []}).expand()

    def test_missing_algorithm(self):
        spec = SweepSpec.from_dict({"name": "t", "axes": {"seed": [0]}})
        with pytest.raises(SweepSpecError, match="algorithm"):
            spec.expand()

    def test_unknown_algorithm(self):
        with pytest.raises(SweepSpecError, match="unknown algorithm"):
            make_spec(axes={"algorithm": ["sgd"], "seed": [0]}).expand()

    def test_unknown_partition(self):
        with pytest.raises(SweepSpecError, match="unknown partition"):
            make_spec(base={"partition": "dir9", "rounds": 1}).expand()

    def test_unknown_scale(self):
        with pytest.raises(SweepSpecError, match="unknown scale"):
            make_spec(base={"scale": "huge", "rounds": 1}).expand()

    def test_bad_rounds(self):
        with pytest.raises(SweepSpecError, match="rounds"):
            make_spec(base={"rounds": 0}).expand()

    def test_overrides_for_unknown_algorithm(self):
        with pytest.raises(SweepSpecError, match="unknown algorithm"):
            make_spec(overrides={"sgd": {}})

    def test_bad_json_file(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text("{not json")
        with pytest.raises(SweepSpecError, match="not valid JSON"):
            SweepSpec.from_file(str(path))

    def test_missing_file(self, tmp_path):
        with pytest.raises(SweepSpecError, match="cannot read"):
            SweepSpec.from_file(str(tmp_path / "absent.json"))

    def test_from_file_roundtrip(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({
            "name": "file-spec",
            "base": {"scale": "tiny", "rounds": 1},
            "axes": {"algorithm": ["fedavg"], "seed": [0]},
        }))
        spec = SweepSpec.from_file(str(path))
        assert spec.name == "file-spec"
        assert len(spec.expand()) == 1


class TestLabel:
    def test_label_shape(self):
        run = RunSpec(
            "fedpkd",
            {"dataset": "cifar100", "partition": "dir0.1", "seed": 3,
             "heterogeneous": True},
            rounds=1,
            overrides={"delta": 0.5},
        )
        assert run.label() == "fedpkd/cifar100/dir0.1/s3/hetero/delta=0.5"


class TestEngineRunKeys:
    """Async-engine knobs are result-affecting; backoff timing is not."""

    def test_engine_fields_change_key(self):
        base = RunSpec("fedpkd", {"seed": 0}, rounds=1)
        for fields in (
            {"seed": 0, "engine": "async"},
            {"seed": 0, "engine": "async", "max_staleness": 2},
            {"seed": 0, "engine": "async", "staleness_alpha": 0.9},
            {"seed": 0, "engine": "async", "buffer_size": 2},
            {"seed": 0, "fault_plan": {"faults": [
                {"kind": "crash", "client_id": 0, "round": 1}]}},
        ):
            assert RunSpec("fedpkd", fields, rounds=1).run_key() != base.run_key()

    def test_explicit_sync_engine_matches_default(self):
        implicit = RunSpec("fedpkd", {"seed": 0}, rounds=1)
        explicit = RunSpec("fedpkd", {"seed": 0, "engine": "sync"}, rounds=1)
        assert implicit.run_key() == explicit.run_key()

    def test_fault_plan_path_and_dict_share_key(self, tmp_path):
        plan = {
            "seed": 4,
            "faults": [{"kind": "straggler", "client_id": 1, "factor": 10.0}],
        }
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(plan))
        by_dict = RunSpec("fedpkd", {"seed": 0, "fault_plan": plan}, rounds=1)
        by_path = RunSpec(
            "fedpkd", {"seed": 0, "fault_plan": str(path)}, rounds=1
        )
        assert by_dict.run_key() == by_path.run_key()

    def test_malformed_fault_plan_is_a_spec_error(self):
        bad = RunSpec(
            "fedpkd",
            {"seed": 0, "fault_plan": {"faults": [
                {"kind": "meteor", "client_id": 0}]}},
            rounds=1,
        )
        with pytest.raises(SweepSpecError, match="fault kind"):
            bad.run_key()

    def test_engine_axis_expands(self):
        spec = make_spec(
            base={"scale": "tiny", "algorithm": "fedpkd", "rounds": 1},
            axes={"engine": ["sync", "async"]},
        )
        runs = spec.expand()
        assert [r.setting_fields["engine"] for r in runs] == ["sync", "async"]
        assert len({r.run_key() for r in runs}) == 2
