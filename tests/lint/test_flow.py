"""Whole-program flow analyses: taint across modules, CLI gating.

The fixtures under ``fixtures/flow_*.py`` pin each rule's single-module
behaviour; these tests cover what only a multi-file project can show —
interprocedural taint across module boundaries, hot-path sinks, pragma
suppression of flow findings, and the CI-gate proof that a seeded
checkpoint-completeness violation makes ``repro lint`` exit 1.
"""

import textwrap

from repro.cli import main
from repro.lint import LintEngine, get_rule

ALLOC_SOURCE = textwrap.dedent(
    """\
    import numpy as np


    def fresh_table(num_classes, feature_dim):
        table = np.full((num_classes, feature_dim), np.nan)
        return table
    """
)

SENDER_SOURCE = textwrap.dedent(
    """\
    from ..core.alloc import fresh_table


    def push(channel, client_id, num_classes, feature_dim):
        payload = {"table": fresh_table(num_classes, feature_dim)}
        channel.upload(client_id, payload)
    """
)

LEAKY_ALGO_SOURCE = textwrap.dedent(
    """\
    from ..fl.simulation import FederatedAlgorithm


    class LeakyAlgo(FederatedAlgorithm):
        name = "leaky"

        def server_update(self, contributions, client_weights, contributors):
            self.temperature = 0.5
            return {"participants": float(len(contributors))}

        def extra_state(self):
            return {}

        def load_extra_state(self, state):
            pass
    """
)


def _tree(tmp_path, files):
    """Write ``{relative/path: source}`` under tmp_path, return the root."""
    for rel, source in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source)
    return tmp_path / "repro"


def test_dtype_taint_crosses_module_boundaries(tmp_path):
    """The allocation is flagged in the module that made it, not the sender."""
    root = _tree(
        tmp_path,
        {
            "repro/core/alloc.py": ALLOC_SOURCE,
            "repro/fl/sender.py": SENDER_SOURCE,
        },
    )
    engine = LintEngine(rules=[get_rule("flow-implicit-float64")])
    result = engine.lint_paths([str(root)])
    (finding,) = result.findings
    assert finding.path.endswith("alloc.py")
    assert finding.line == 5
    assert "wire payload" in finding.message


def test_dtype_alloc_without_reach_is_not_flagged(tmp_path):
    """Same allocation, no caller wiring it anywhere: no finding."""
    root = _tree(tmp_path, {"repro/core/alloc.py": ALLOC_SOURCE})
    engine = LintEngine(rules=[get_rule("flow-implicit-float64")])
    result = engine.lint_paths([str(root)])
    assert result.findings == []


def test_dtype_taint_reaches_training_hot_path(tmp_path):
    """An allocation fed into a repro.nn function is a hot-path sink."""
    root = _tree(
        tmp_path,
        {
            "repro/core/feeder.py": textwrap.dedent(
                """\
                import numpy as np

                from ..nn.layers import forward


                def evaluate(model):
                    batch = np.ones((8, 4))
                    return forward(model, batch)
                """
            ),
            "repro/nn/layers.py": textwrap.dedent(
                """\
                def forward(model, batch):
                    return batch @ model
                """
            ),
        },
    )
    engine = LintEngine(rules=[get_rule("flow-implicit-float64")])
    result = engine.lint_paths([str(root)])
    (finding,) = result.findings
    assert finding.path.endswith("feeder.py")
    assert "training hot path" in finding.message


def test_flow_finding_suppressed_by_pragma(tmp_path):
    source = ALLOC_SOURCE.replace(
        "np.nan)",
        "np.nan)  # lint: disable=flow-implicit-float64 — float64 deliberate",
    )
    root = _tree(
        tmp_path,
        {
            "repro/core/alloc.py": source,
            "repro/fl/sender.py": SENDER_SOURCE,
        },
    )
    engine = LintEngine(rules=[get_rule("flow-implicit-float64")])
    result = engine.lint_paths([str(root)])
    assert result.findings == []
    assert result.suppressed == 1


def test_seeded_checkpoint_violation_fails_the_cli_gate(tmp_path, capsys):
    """The acceptance-criteria proof: un-checkpointed state → exit 1."""
    root = _tree(tmp_path, {"repro/baselines/leaky.py": LEAKY_ALGO_SOURCE})
    assert main(["lint", str(root)]) == 1
    out = capsys.readouterr().out
    assert "flow-extra-state" in out
    assert "temperature" in out


def test_extra_state_round_trip_passes_the_cli_gate(tmp_path, capsys):
    fixed = LEAKY_ALGO_SOURCE.replace(
        "return {}", 'return {"temperature": self.temperature}'
    ).replace("pass", 'self.temperature = float(state["temperature"])')
    root = _tree(tmp_path, {"repro/baselines/leaky.py": fixed})
    assert main(["lint", str(root)]) == 0
    assert "0 finding(s)" in capsys.readouterr().out
