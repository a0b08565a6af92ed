"""The linter's acceptance gate on its own repository.

``src/`` must lint clean with no exceptions beyond its reviewed inline
pragmas (this is what the CI lint job enforces), and a full pass over the
tree must stay fast enough to run on every push.  The speed budget is CPU
time of this process (the linter is single-process), so a busy machine
does not turn it red.
"""

import time
from pathlib import Path

from repro.lint import LintEngine

REPO_ROOT = Path(__file__).resolve().parents[2]


def test_src_tree_lints_clean():
    engine = LintEngine(root=str(REPO_ROOT))
    result = engine.lint_paths([str(REPO_ROOT / "src")])
    assert result.files > 80
    rendered = "\n".join(f.render() for f in result.findings)
    assert result.ok, f"lint findings in src/:\n{rendered}"


def test_full_pass_is_fast_enough_for_ci():
    engine = LintEngine(root=str(REPO_ROOT))
    start = time.process_time()
    engine.lint_paths([str(REPO_ROOT / "src")])
    elapsed = time.process_time() - start
    assert elapsed < 5.0, f"lint pass took {elapsed:.2f}s of CPU (budget 5s)"
