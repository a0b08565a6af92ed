"""Each run knob is declared once (``repro.fl.config.RunKnobs``); every
other layer must follow that declaration.

One test parametrised over the knob fields checks the three pass-through
layers — ``federation_for``, the ``repro run`` flag, the sweep spec — and
the goldens pin what a user can set, so deriving it from the fields
neither adds nor loses anything.
"""

import inspect
import json
from dataclasses import dataclass, replace

import pytest

from repro import cli
from repro.experiments import harness
from repro.experiments.harness import ExperimentSetting
from repro.fl.config import (
    RUN_KNOBS,
    FederationConfig,
    RunKnobs,
    field_roles,
    knob,
)
from repro.sweep import SweepSpec, SweepSpecError
from repro.sweep import spec as sweep_spec

# one valid non-default value per knob; a new knob must add its own
SAMPLES = {
    "max_staleness": 2,
    "staleness_alpha": 0.9,
    "buffer_size": 3,
    "fault_plan": "plan.json",  # written under tmp_path by the fixture
    "clients_per_round": 2,
    "eval_clients": 2,
    "executor": "parallel",
    "max_workers": 2,
    "task_timeout_s": 30.0,
    "max_live_clients": 2,
    "profile": True,
    "checkpoint_path": "run.ckpt",
    "checkpoint_every": 2,
    "trace_path": "trace.jsonl",
    "metrics_path": "metrics.jsonl",
}
# a cadence is only valid next to the file it autosaves to
COMPANIONS = {"checkpoint_every": {"checkpoint_path": "run.ckpt"}}


def _flag(f):
    return f.metadata["flag"] or "--" + f.name.replace("_", "-")


def _argv(values):
    argv = ["run"]
    for name, value in values.items():
        (f,) = [f for f in RUN_KNOBS if f.name == name]
        argv += [_flag(f)] if value is True else [_flag(f), str(value)]
    return argv


@pytest.fixture
def parsed_setting(monkeypatch):
    """The ``ExperimentSetting`` that ``repro run <argv>`` hands to the harness."""

    class Captured(Exception):
        pass

    def capture(setting, algorithm, **kwargs):
        raise Captured(setting)

    monkeypatch.setattr(cli, "run_algorithm", capture)

    def parse(argv):
        with pytest.raises(Captured) as exc:
            cli.main(argv)
        return exc.value.args[0]

    return parse


def test_every_knob_has_a_sample():
    assert set(SAMPLES) == {f.name for f in RUN_KNOBS}
    for f in RUN_KNOBS:
        assert SAMPLES[f.name] != f.default


@pytest.mark.parametrize("f", RUN_KNOBS, ids=lambda f: f.name)
def test_knob_passes_through_every_layer(f, tmp_path, monkeypatch, parsed_setting):
    value = SAMPLES[f.name]
    if f.name == "fault_plan":
        value = str(tmp_path / value)
        with open(value, "w") as fh:
            json.dump({"seed": 1, "faults": []}, fh)
    values = {**COMPANIONS.get(f.name, {}), f.name: value}

    # ExperimentSetting -> FederationConfig, artifact paths under out_dir
    monkeypatch.setattr(harness, "build_federation", lambda bundle, config: config)
    setting = ExperimentSetting(out_dir=str(tmp_path), **values)
    config = harness.federation_for(setting, "fedavg", bundle=object())
    expected = str(tmp_path / value) if f.name.endswith("_path") else value
    assert getattr(config, f.name) == expected
    others = replace(config, **{name: getattr(FederationConfig, name) for name in values})
    assert others == harness.federation_for(
        ExperimentSetting(out_dir=str(tmp_path)), "fedavg", bundle=object()
    )

    # `repro run` flag -> the same value on the ExperimentSetting
    assert getattr(parsed_setting(_argv(values)), f.name) == value

    # sweep spec: accepted / hashed / rejected by role
    def expand(**base):
        spec = SweepSpec("s", base={"algorithm": "fedpkd", **base}, axes={"seed": [0]})
        (run,) = spec.expand()
        return run

    role = f.metadata["role"]
    if role == "managed":
        with pytest.raises(SweepSpecError, match="managed by the sweep scheduler"):
            expand(**{f.name: value})
    else:
        run = expand(**{f.name: value})
        assert (run.run_key() != expand().run_key()) == (role == "key")
        assert (f.name in run.runtime_fields) == (role == "runtime")
        assert getattr(run.to_setting(), f.name) == value


def test_cli_checkpoint_every_special_case(parsed_setting):
    # the CLI autosaves every round once a checkpoint file is named, and
    # ignores a cadence given without one
    assert parsed_setting(["run", "--checkpoint", "c.npz"]).checkpoint_every == 1
    assert parsed_setting(["run", "--checkpoint-every", "5"]).checkpoint_every == 0
    assert parsed_setting(["run"]) == ExperimentSetting()


def test_run_option_strings_golden():
    parser = cli._build_parser()
    run = parser._subparsers._group_actions[0].choices["run"]
    options = {s for action in run._actions for s in action.option_strings}
    assert options == {"-h", "--help"} | set(
        "--algorithm --dataset --partition --scale --heterogeneous --rounds "
        "--seed --clients-per-round --max-live-clients --eval-clients "
        "--executor --max-workers --task-timeout-s "
        "--max-staleness --staleness-alpha --buffer-size --fault-plan "
        "--checkpoint --checkpoint-every --resume --trace --metrics-out "
        "--profile --out --verbose".split()
    )


KNOB_NAMES = set(SAMPLES)


def test_constructor_keywords_golden():
    assert set(inspect.signature(FederationConfig).parameters) == KNOB_NAMES | {
        "num_clients", "partition", "client_models", "server_model",
        "feature_dim", "local_test_fraction", "dropout_prob", "spill_dir",
        "seed", "task_retries",
    }
    assert set(inspect.signature(ExperimentSetting).parameters) == KNOB_NAMES | {
        "dataset", "partition", "heterogeneous", "scale", "seed",
        "scale_overrides", "out_dir",
    }


def test_sweep_spec_fields_golden():
    assert set(sweep_spec._ALLOWED_FIELDS) == {
        "algorithm", "rounds", "eval_every",
        "dataset", "partition", "heterogeneous", "scale", "seed",
        "scale_overrides", "max_staleness", "staleness_alpha",
        "buffer_size", "fault_plan", "clients_per_round", "eval_clients",
        "executor", "max_workers", "task_timeout_s", "max_live_clients",
        "profile",
    }
    assert set(sweep_spec._MANAGED_FIELDS) == {
        "checkpoint_every", "checkpoint_path", "trace_path", "metrics_path",
        "out_dir",
    }


def test_field_without_role_fails_at_definition():
    with pytest.raises(TypeError):

        @dataclass(kw_only=True)
        class Forgot(RunKnobs):
            extra: int = knob(0)  # no role

    @dataclass(kw_only=True)
    class Plain(RunKnobs):
        extra: int = 0  # not declared through knob()

    with pytest.raises(TypeError, match="extra.*no run-key role"):
        field_roles(Plain)

    @dataclass
    class Typo:
        extra: int = knob(0, "pinned")  # not one of key/runtime/managed

    with pytest.raises(TypeError, match="extra.*no run-key role"):
        field_roles(Typo)
