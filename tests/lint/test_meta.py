"""Meta-tests: the registry, docs, fixtures, and CI wiring stay in sync.

Adding a rule without a fixture, a ``docs/LINT.md`` catalog entry, or
proper metadata fails here — the catalog is part of the rule, not an
afterthought.
"""

import re
from pathlib import Path

import pytest

from repro.lint import SEVERITIES, all_rules, packs

REPO_ROOT = Path(__file__).resolve().parents[2]
FIXTURES = Path(__file__).parent / "fixtures"
LINT_DOC = REPO_ROOT / "docs" / "LINT.md"

_ID_RE = re.compile(r"^[a-z]+(-[a-z0-9]+)+$")

RULES = all_rules()


def test_registry_is_nonempty_and_covers_all_packs():
    assert len(RULES) >= 16
    assert set(packs()) == {
        "determinism",
        "comm",
        "autograd",
        "obs",
        "hygiene",
    }


@pytest.mark.parametrize("rule", RULES, ids=lambda r: r.id)
def test_rule_metadata_complete(rule):
    assert _ID_RE.match(rule.id), f"rule id '{rule.id}' is not kebab-case"
    assert rule.severity in SEVERITIES
    assert rule.summary.strip(), f"{rule.id} has no summary"
    assert len(rule.description.strip()) > 40, f"{rule.id} description too thin"
    assert rule.pack in packs()


@pytest.mark.parametrize("rule", RULES, ids=lambda r: r.id)
def test_rule_has_fixture(rule):
    fixture = FIXTURES / (rule.id.replace("-", "_") + ".py")
    assert fixture.exists(), f"no fixture for {rule.id} at {fixture}"


@pytest.mark.parametrize("rule", RULES, ids=lambda r: r.id)
def test_rule_documented_in_catalog(rule):
    doc = LINT_DOC.read_text()
    assert f"### `{rule.id}`" in doc, f"{rule.id} missing from docs/LINT.md"


def test_catalog_documents_no_ghost_rules():
    """docs/LINT.md must not describe rules that no longer exist."""
    doc = LINT_DOC.read_text()
    documented = set(re.findall(r"^### `([a-z0-9\-]+)`", doc, re.MULTILINE))
    registered = {rule.id for rule in RULES}
    assert documented == registered


def test_ci_runs_the_lint_gate():
    workflow = (REPO_ROOT / ".github" / "workflows" / "ci.yml").read_text()
    assert "python -m repro lint src\n" in workflow
    assert "repro trace validate" in workflow
    assert "repro lint --traces" not in workflow
