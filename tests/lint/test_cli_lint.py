"""The ``repro lint`` command end to end: exit codes, formats, modes.

``test_cli_fails_on_seeded_violation`` is the CI-gate proof the issue
asks for: a file with a known violation makes the exact command the CI
lint job runs exit non-zero.
"""

import json

import pytest

from repro.cli import main
from repro.lint import Baseline

BAD_SOURCE = "import os\nTOKEN = os.urandom(16)\n"
CLEAN_SOURCE = "VALUE = 1\n"


def _write_pkg_file(tmp_path, source, name="seeded.py"):
    """Put the file under a ``repro`` path component so scoped rules apply."""
    pkg = tmp_path / "repro"
    pkg.mkdir(exist_ok=True)
    path = pkg / name
    path.write_text(source)
    return path


def test_cli_fails_on_seeded_violation(tmp_path, capsys):
    path = _write_pkg_file(tmp_path, BAD_SOURCE)
    assert main(["lint", str(path)]) == 1
    out = capsys.readouterr().out
    assert "det-os-urandom" in out
    assert "seeded.py:2:" in out


def test_cli_clean_file_exits_zero(tmp_path, capsys):
    path = _write_pkg_file(tmp_path, CLEAN_SOURCE, name="clean.py")
    assert main(["lint", str(path)]) == 0
    assert "0 finding(s)" in capsys.readouterr().out


def test_cli_json_format(tmp_path, capsys):
    path = _write_pkg_file(tmp_path, BAD_SOURCE)
    assert main(["lint", str(path), "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is False
    assert payload["findings"][0]["rule"] == "det-os-urandom"
    assert payload["findings"][0]["line"] == 2


def test_cli_rules_filter(tmp_path, capsys):
    path = _write_pkg_file(tmp_path, BAD_SOURCE)
    # filtered to an unrelated rule, the violation is invisible
    assert main(["lint", str(path), "--rules", "det-stdlib-random"]) == 0
    capsys.readouterr()
    assert main(["lint", str(path), "--rules", "no-such-rule"]) == 2
    assert "unknown rule id" in capsys.readouterr().err


def test_cli_baseline_grandfathers_and_goes_stale(tmp_path, capsys):
    path = _write_pkg_file(tmp_path, BAD_SOURCE)
    baseline_path = tmp_path / "baseline.json"

    assert main(["lint", str(path), "--write-baseline", str(baseline_path)]) == 0
    capsys.readouterr()
    written = Baseline.load(str(baseline_path))
    assert len(written) == 1

    assert main(["lint", str(path), "--baseline", str(baseline_path)]) == 0
    assert "1 baselined" in capsys.readouterr().out

    path.write_text(CLEAN_SOURCE)
    assert main(["lint", str(path), "--baseline", str(baseline_path)]) == 0
    assert "stale" in capsys.readouterr().out


def test_cli_corrupt_baseline_is_usage_error(tmp_path, capsys):
    path = _write_pkg_file(tmp_path, CLEAN_SOURCE, name="clean.py")
    baseline_path = tmp_path / "baseline.json"
    baseline_path.write_text("{not json")
    assert main(["lint", str(path), "--baseline", str(baseline_path)]) == 2
    assert "cannot read baseline" in capsys.readouterr().err


def test_standalone_module_entrypoint(tmp_path, capsys):
    from repro.lint.cli import main as lint_main

    path = _write_pkg_file(tmp_path, BAD_SOURCE)
    assert lint_main([str(path)]) == 1
    assert "det-os-urandom" in capsys.readouterr().out


# ----------------------------------------------------------------------
# --traces mode
# ----------------------------------------------------------------------

VALID_TRACE_LINES = [
    {"v": 1, "type": "marker", "name": "run_start", "ts": 0.0, "unix_ts": 1.0,
     "attrs": {}, "seq": 0},
    {"v": 1, "type": "event", "name": "fedpkd/filter", "scope": "server",
     "ts": 0.1, "parent_id": None, "attrs": {}, "seq": 1},
    {"v": 1, "type": "span", "name": "round", "scope": "round", "ts": 0.0,
     "dur_s": 0.2, "span_id": 1, "parent_id": None, "attrs": {}, "seq": 2},
]


@pytest.fixture
def trace_file(tmp_path):
    path = tmp_path / "run.trace.jsonl"
    path.write_text("".join(json.dumps(r) + "\n" for r in VALID_TRACE_LINES))
    return path


def test_traces_mode_valid(trace_file, capsys):
    code = main(
        [
            "lint", "--traces", str(trace_file),
            "--expect-scopes", "round,server",
            "--expect-events", "fedpkd/filter",
        ]
    )
    assert code == 0
    assert "ok" in capsys.readouterr().out


def test_traces_mode_missing_expectation(trace_file, capsys):
    assert main(["lint", "--traces", str(trace_file), "--expect-scopes", "client"]) == 1
    assert "missing scopes" in capsys.readouterr().err


def test_traces_mode_schema_violation(tmp_path, capsys):
    path = tmp_path / "broken.trace.jsonl"
    path.write_text('{"v": 1, "type": "event"}\n')
    assert main(["lint", "--traces", str(path)]) == 1
    assert "INVALID" in capsys.readouterr().err


# ----------------------------------------------------------------------
# SARIF output
# ----------------------------------------------------------------------


def test_cli_sarif_format(tmp_path, capsys):
    path = _write_pkg_file(tmp_path, BAD_SOURCE)
    assert main(["lint", str(path), "--format", "sarif", "--no-cache"]) == 1
    sarif = json.loads(capsys.readouterr().out)
    assert sarif["version"] == "2.1.0"
    run = sarif["runs"][0]
    assert run["tool"]["driver"]["name"] == "reprolint"
    (result,) = run["results"]
    assert result["ruleId"] == "det-os-urandom"
    region = result["locations"][0]["physicalLocation"]["region"]
    assert region["startLine"] == 2
    rule_ids = {rule["id"] for rule in run["tool"]["driver"]["rules"]}
    assert "det-os-urandom" in rule_ids


def test_cli_sarif_marks_baselined_findings_suppressed(tmp_path, capsys):
    path = _write_pkg_file(tmp_path, BAD_SOURCE)
    baseline_path = tmp_path / "baseline.json"
    assert main(["lint", str(path), "--write-baseline", str(baseline_path)]) == 0
    capsys.readouterr()
    assert (
        main(
            ["lint", str(path), "--baseline", str(baseline_path),
             "--format", "sarif", "--no-cache"]
        )
        == 0
    )
    sarif = json.loads(capsys.readouterr().out)
    (result,) = sarif["runs"][0]["results"]
    assert result["suppressions"] == [{"kind": "external"}]


# ----------------------------------------------------------------------
# --prune-baseline
# ----------------------------------------------------------------------


def test_cli_prune_baseline_is_idempotent(tmp_path, capsys):
    path = _write_pkg_file(tmp_path, BAD_SOURCE)
    baseline_path = tmp_path / "baseline.json"
    assert main(["lint", str(path), "--write-baseline", str(baseline_path)]) == 0
    capsys.readouterr()

    # fix the violation: the baseline entry goes stale
    path.write_text(CLEAN_SOURCE)
    assert (
        main(
            ["lint", str(path), "--baseline", str(baseline_path),
             "--prune-baseline", "--no-cache"]
        )
        == 0
    )
    assert "pruned 1 stale entry" in capsys.readouterr().out
    assert len(Baseline.load(str(baseline_path))) == 0

    # a second prune is a no-op and leaves the file byte-identical
    before = baseline_path.read_bytes()
    assert (
        main(
            ["lint", str(path), "--baseline", str(baseline_path),
             "--prune-baseline", "--no-cache"]
        )
        == 0
    )
    assert "pruned 0 stale entries" in capsys.readouterr().out
    assert baseline_path.read_bytes() == before


def test_cli_prune_baseline_requires_baseline(tmp_path, capsys):
    path = _write_pkg_file(tmp_path, CLEAN_SOURCE, name="clean.py")
    assert main(["lint", str(path), "--prune-baseline"]) == 2
    assert "requires --baseline" in capsys.readouterr().err


def test_cli_prune_baseline_rejects_changed_mode(tmp_path, capsys):
    path = _write_pkg_file(tmp_path, CLEAN_SOURCE, name="clean.py")
    baseline_path = tmp_path / "baseline.json"
    assert main(["lint", str(path), "--write-baseline", str(baseline_path)]) == 0
    capsys.readouterr()
    assert (
        main(
            ["lint", str(path), "--baseline", str(baseline_path),
             "--prune-baseline", "--changed"]
        )
        == 2
    )
    assert "cannot be combined" in capsys.readouterr().err


# ----------------------------------------------------------------------
# --changed (git-aware mode)
# ----------------------------------------------------------------------


def _git(tmp_path, *argv):
    import subprocess

    subprocess.run(
        ["git", "-c", "user.email=ci@example.com", "-c", "user.name=ci", *argv],
        cwd=tmp_path, check=True, capture_output=True,
    )


def test_cli_changed_reports_only_git_modified_files(tmp_path, capsys, monkeypatch):
    pkg = tmp_path / "repro"
    pkg.mkdir()
    (pkg / "stable.py").write_text(BAD_SOURCE)
    (pkg / "edited.py").write_text(CLEAN_SOURCE)
    _git(tmp_path, "init", "-q")
    _git(tmp_path, "add", ".")
    _git(tmp_path, "commit", "-qm", "seed")
    (pkg / "edited.py").write_text(BAD_SOURCE)

    monkeypatch.chdir(tmp_path)
    assert main(["lint", "repro", "--changed", "--no-cache"]) == 1
    out = capsys.readouterr().out
    assert "edited.py:2:" in out
    assert "stable.py" not in out


def test_cli_changed_outside_git_is_usage_error(tmp_path, capsys, monkeypatch):
    path = _write_pkg_file(tmp_path, CLEAN_SOURCE, name="clean.py")
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("GIT_DIR", str(tmp_path / "no-such-git"))
    assert main(["lint", str(path), "--changed", "--no-cache"]) == 2
    assert "--changed needs a git checkout" in capsys.readouterr().err
