"""The ``repro lint`` command end to end: exit codes and the rule filter.

``test_cli_fails_on_seeded_violation`` is the CI-gate proof the issue
asks for: a file with a known violation makes the exact command the CI
lint job runs exit non-zero.
"""

import re

import pytest

from repro.cli import main

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


def test_cli_rules_filter(tmp_path, capsys):
    path = _write_pkg_file(tmp_path, BAD_SOURCE)
    # filtered to an unrelated rule, the violation is invisible
    assert main(["lint", str(path), "--rules", "det-stdlib-random"]) == 0
    capsys.readouterr()
    assert main(["lint", str(path), "--rules", "no-such-rule"]) == 2
    assert "unknown rule id" in capsys.readouterr().err


def test_cli_surface_is_paths_and_rules(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["lint", "--help"])
    assert exit_info.value.code == 0
    options = set(re.findall(r"--[a-z-]+", capsys.readouterr().out))
    assert options == {"--help", "--rules"}


def test_standalone_module_entrypoint(tmp_path, capsys):
    from repro.lint.cli import main as lint_main

    path = _write_pkg_file(tmp_path, BAD_SOURCE)
    assert lint_main([str(path)]) == 1
    assert "det-os-urandom" in capsys.readouterr().out
