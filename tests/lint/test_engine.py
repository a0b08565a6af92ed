"""Engine mechanics: pragmas, discovery, syntax errors, result shape."""

import textwrap

from repro.lint import LintEngine, get_rule, module_name_for

BAD_URANDOM = "import os\nraw = os.urandom(8)\n"


def _engine():
    return LintEngine(rules=[get_rule("det-os-urandom")])


def _lint(source, module="repro.fl.fixture"):
    return _engine().lint_source(source, module=module)


def test_finding_reports_position_and_severity():
    result = _lint(BAD_URANDOM)
    (finding,) = result.findings
    assert finding.rule == "det-os-urandom"
    assert (finding.line, finding.col) == (2, 6)
    assert finding.severity == "error"
    assert "<snippet>:2:6:" in finding.render()


def test_same_line_pragma_suppresses():
    source = "import os\nraw = os.urandom(8)  # lint: disable=det-os-urandom\n"
    result = _lint(source)
    assert result.findings == []
    assert result.suppressed == 1


def test_comment_line_above_pragma_suppresses():
    source = textwrap.dedent(
        """\
        import os

        # lint: disable=det-os-urandom — fixture exercising the
        # comment-block placement.
        raw = os.urandom(8)
        """
    )
    result = _lint(source)
    assert result.findings == []
    assert result.suppressed == 1


def test_pragma_does_not_leak_past_its_line():
    source = textwrap.dedent(
        """\
        import os
        a = os.urandom(8)  # lint: disable=det-os-urandom
        b = os.urandom(8)
        """
    )
    result = _lint(source)
    assert [f.line for f in result.findings] == [3]
    assert result.suppressed == 1


def test_pragma_for_other_rule_does_not_suppress():
    source = "import os\nraw = os.urandom(8)  # lint: disable=det-stdlib-random\n"
    result = _lint(source)
    assert len(result.findings) == 1
    assert result.suppressed == 0


def test_disable_file_pragma():
    source = "# lint: disable-file=det-os-urandom\n" + BAD_URANDOM
    result = _lint(source)
    assert result.findings == []
    assert result.suppressed == 1


def test_disable_all_keyword():
    source = "import os\nraw = os.urandom(8)  # lint: disable=all\n"
    assert _lint(source).findings == []


def test_pragma_text_inside_a_string_suppresses_nothing():
    source = textwrap.dedent(
        """\
        import random
        DOC = "use # lint: disable-file=all to silence"
        x = random.random()
        """
    )
    engine = LintEngine(rules=[get_rule("det-stdlib-random")])
    result = engine.lint_source(source, module="repro.fl.fixture")
    assert [(f.rule, f.line) for f in result.findings] == [("det-stdlib-random", 1)]
    assert result.suppressed == 0


def test_syntax_error_becomes_a_finding():
    result = _lint("def broken(:\n")
    (finding,) = result.findings
    assert finding.rule == "syntax-error"
    assert "cannot parse" in finding.message


def test_lint_paths_walks_tree_and_sorts(tmp_path):
    pkg = tmp_path / "src" / "repro" / "fl"
    pkg.mkdir(parents=True)
    (pkg / "b.py").write_text(BAD_URANDOM)
    (pkg / "a.py").write_text(BAD_URANDOM)
    (pkg / "__pycache__").mkdir()
    (pkg / "__pycache__" / "junk.py").write_text(BAD_URANDOM)
    (pkg / "notes.txt").write_text("not python")

    engine = LintEngine(rules=[get_rule("det-os-urandom")], root=str(tmp_path))
    result = engine.lint_paths([str(tmp_path / "src")])
    assert result.files == 2
    assert [f.path for f in result.findings] == [
        "src/repro/fl/a.py",
        "src/repro/fl/b.py",
    ]
    assert result.ok is False


def test_module_name_for():
    assert module_name_for("src/repro/nn/tensor.py") == "repro.nn.tensor"
    assert module_name_for("src/repro/obs/__init__.py") == "repro.obs"
    assert module_name_for("scripts/loose_file.py") == "loose_file"


def test_rules_outside_their_packages_do_not_run():
    engine = LintEngine(rules=[get_rule("ag-inplace-tensor-mutation")])
    source = "def f(p):\n    p.data += 1\n"
    assert engine.lint_source(source, module="repro.nn.optim").findings
    assert not engine.lint_source(source, module="repro.fl.client").findings


def test_pragma_on_decorator_line_suppresses_function_finding():
    """The anchor is the ``def`` line, but the statement starts at the
    decorator — a pragma on either line must reach the finding."""
    source = textwrap.dedent(
        """\
        import functools

        @functools.cache  # lint: disable=hyg-shadowed-builtin
        def list(xs):
            return xs
        """
    )
    engine = LintEngine(rules=[get_rule("hyg-shadowed-builtin")])
    result = engine.lint_source(source, module="repro.fl.fixture")
    assert result.findings == []
    assert result.suppressed == 1


def test_pragma_above_decorator_suppresses_function_finding():
    source = textwrap.dedent(
        """\
        import functools

        # lint: disable=hyg-shadowed-builtin — exercising the comment-block
        # placement above a decorated def.
        @functools.cache
        def list(xs):
            return xs
        """
    )
    engine = LintEngine(rules=[get_rule("hyg-shadowed-builtin")])
    result = engine.lint_source(source, module="repro.fl.fixture")
    assert result.findings == []
    assert result.suppressed == 1


def test_pragma_anywhere_in_multiline_statement_suppresses():
    """A call spread over several lines accepts the pragma on any of them."""
    source = textwrap.dedent(
        """\
        import numpy as np

        noise = np.random.normal(
            0.0,
            1.0,  # lint: disable=det-banned-np-random
            size=(3, 3),
        )
        """
    )
    engine = LintEngine(rules=[get_rule("det-banned-np-random")])
    result = engine.lint_source(source, module="repro.fl.fixture")
    assert result.findings == []
    assert result.suppressed == 1


def test_pragma_after_multiline_statement_does_not_suppress():
    """The candidate set ends with the statement; the next line is too late."""
    source = textwrap.dedent(
        """\
        import numpy as np

        noise = np.random.normal(
            0.0,
            1.0,
        )
        # lint: disable=det-banned-np-random
        """
    )
    engine = LintEngine(rules=[get_rule("det-banned-np-random")])
    result = engine.lint_source(source, module="repro.fl.fixture")
    assert len(result.findings) == 1
    assert result.suppressed == 0


def test_pragma_on_compound_header_does_not_leak_into_body():
    """``for``/``if`` statements only take pragmas on their header line."""
    source = textwrap.dedent(
        """\
        import os

        for _ in range(2):  # lint: disable=det-os-urandom
            raw = os.urandom(8)
        """
    )
    engine = LintEngine(rules=[get_rule("det-os-urandom")])
    result = engine.lint_source(source, module="repro.fl.fixture")
    assert [f.line for f in result.findings] == [4]
