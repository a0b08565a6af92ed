"""Unit tests for the op-level profiler (repro.obs.profile)."""

import numpy as np
import pytest

from repro.nn import BatchNorm2d, Tensor
from repro.nn.functional import conv2d, linear
from repro.nn.optim import SGD
from repro.obs import MetricsRegistry, OpProfiler, Tracer, activate
from repro.obs.profile import ACTIVE, UNATTRIBUTED, wrap_backward
from repro.obs import profile as profile_mod


class TestOpProfiler:
    def test_record_accumulates_per_key(self):
        prof = OpProfiler()
        prof.record("matmul", 0.5, flops=100.0, nbytes=8.0)
        prof.record("matmul", 0.25, flops=50.0, nbytes=4.0)
        (row,) = prof.rows()
        assert row["op"] == "matmul"
        assert row["calls"] == 2
        assert row["seconds"] == pytest.approx(0.75)
        assert row["flops"] == pytest.approx(150.0)
        assert row["bytes"] == pytest.approx(12.0)
        assert row["stage"] == UNATTRIBUTED
        assert row["model"] == UNATTRIBUTED

    def test_stage_and_model_contexts_nest(self):
        prof = OpProfiler()
        with prof.stage("local_train"), prof.model("mlp_small"):
            prof.record("add", 1.0)
            with prof.stage("inner"):
                prof.record("add", 1.0)
        prof.record("add", 1.0)
        keys = {(r["stage"], r["model"]) for r in prof.rows()}
        assert keys == {
            ("local_train", "mlp_small"),
            ("inner", "mlp_small"),
            (UNATTRIBUTED, UNATTRIBUTED),
        }

    def test_merge_folds_worker_payload(self):
        a, b = OpProfiler(), OpProfiler()
        with a.stage("s"), a.model("m"):
            a.record("op", 1.0, flops=10.0)
        with b.stage("s"), b.model("m"):
            b.record("op", 2.0, flops=20.0)
        with b.stage("other"):
            b.record("op", 5.0)
        a.merge(b.to_payload())
        rows = {(r["stage"], r["op"]): r for r in a.rows()}
        assert rows[("s", "op")]["seconds"] == pytest.approx(3.0)
        assert rows[("s", "op")]["flops"] == pytest.approx(30.0)
        assert rows[("s", "op")]["calls"] == 2  # merge sums call counts
        assert rows[("other", "op")]["seconds"] == pytest.approx(5.0)
        a.merge(None)  # no-op
        a.merge({})

    def test_total_seconds_and_reset(self):
        prof = OpProfiler()
        with prof.stage("x"):
            prof.record("a", 1.0)
            prof.record("b", 2.0)
        with prof.stage("y"):
            prof.record("a", 4.0)
        assert prof.total_seconds() == pytest.approx(7.0)
        assert len(prof) == 3
        prof.reset()
        assert len(prof) == 0

    def test_publish_writes_gauges_and_events(self, tmp_path):
        prof = OpProfiler()
        with prof.stage("local_train"), prof.model("mlp_small"):
            prof.record("matmul", 0.5, flops=100.0, nbytes=64.0)
        metrics = MetricsRegistry(enabled=True)
        trace_path = str(tmp_path / "t.jsonl")
        tracer = Tracer(trace_path)
        prof.publish(metrics=metrics, tracer=tracer)
        tracer.close()
        snap = metrics.snapshot()
        base = "profile/local_train/mlp_small/matmul"
        assert snap[f"{base}/calls"] == 1.0
        assert snap[f"{base}/seconds"] == pytest.approx(0.5)
        assert snap[f"{base}/flops"] == 100.0
        assert snap[f"{base}/bytes"] == 64.0
        import json

        events = [
            json.loads(line) for line in open(trace_path) if line.strip()
        ]
        ops = [e for e in events if e.get("name") == "profile/op"]
        assert len(ops) == 1
        assert ops[0]["scope"] == "profile"
        assert ops[0]["attrs"]["op"] == "matmul"


class TestActivation:
    def test_activate_stacks_and_restores(self):
        outer, inner = OpProfiler(), OpProfiler()
        assert profile_mod.ACTIVE is None
        with activate(outer):
            assert profile_mod.ACTIVE is outer
            with activate(inner):
                assert profile_mod.ACTIVE is inner
            assert profile_mod.ACTIVE is outer
        assert profile_mod.ACTIVE is None

    def test_tensor_ops_recorded_when_active(self):
        prof = OpProfiler()
        with activate(prof):
            a = Tensor(np.ones((4, 3)), requires_grad=True)
            b = Tensor(np.ones((3, 2)), requires_grad=True)
            out = (a @ b).sum()
            out.backward()
        ops = {r["op"] for r in prof.rows()}
        assert "matmul" in ops
        assert "matmul.bwd" in ops
        assert "sum" in ops
        assert "backward.overhead" in ops
        row = next(r for r in prof.rows() if r["op"] == "matmul")
        # 2 * n * k * m = 2 * 4 * 3 * 2
        assert row["flops"] == pytest.approx(48.0)

    def test_backward_books_only_the_products_computed(self):
        """A parent with requires_grad=False gets no gradient product."""
        flops = {}
        for live in (True, False):
            prof = OpProfiler()
            with activate(prof):
                a = Tensor(np.ones((4, 3)), requires_grad=live)
                b = Tensor(np.ones((3, 2)), requires_grad=True)
                (a @ b).sum().backward()
            flops[live] = next(
                r["flops"] for r in prof.rows() if r["op"] == "matmul.bwd"
            )
        assert flops[True] == pytest.approx(96.0)  # dA and dB: 2 * 48
        assert flops[False] == pytest.approx(48.0)  # dB only

    def test_linear_is_one_node_booked_as_matmul(self):
        prof = OpProfiler()
        with activate(prof):
            x = Tensor(np.ones((4, 3)))  # an input batch: no dx
            w = Tensor(np.ones((2, 3)), requires_grad=True)
            b = Tensor(np.ones(2), requires_grad=True)
            linear(x, w, b).sum().backward()
        rows = {r["op"]: r for r in prof.rows()}
        assert not {"transpose", "add", "add.bwd", "transpose.bwd"} & set(rows)
        assert rows["matmul"]["calls"] == rows["matmul.bwd"]["calls"] == 1
        # 2*n*k*m + n*m bias adds; backward: dW only, + 2*n*m for the bias
        assert rows["matmul"]["flops"] == pytest.approx(48.0 + 8.0)
        assert rows["matmul.bwd"]["flops"] == pytest.approx(48.0 + 16.0)
        assert x.grad is None

    def test_conv2d_flops_estimate(self):
        prof = OpProfiler()
        with activate(prof):
            x = Tensor(np.ones((1, 2, 5, 5)), requires_grad=True)
            w = Tensor(np.ones((3, 2, 3, 3)), requires_grad=True)
            conv2d(x, w).sum().backward()
        row = next(r for r in prof.rows() if r["op"] == "conv2d")
        # 2 * N * C_out * oh * ow * C_in * kh * kw = 2*1*3*3*3*2*3*3
        assert row["flops"] == pytest.approx(972.0)
        assert row["bytes"] == 1 * 3 * 3 * 3 * 8
        assert any(r["op"] == "conv2d.bwd" for r in prof.rows())

    def test_conv2d_backward_books_one_product_per_live_parent(self):
        """The stem conv's input batch takes no gradient: dW only."""
        flops = {}
        for live in (True, False):
            prof = OpProfiler()
            with activate(prof):
                x = Tensor(np.ones((1, 2, 5, 5)), requires_grad=live)
                w = Tensor(np.ones((3, 2, 3, 3)), requires_grad=True)
                conv2d(x, w, padding=1).sum().backward()
            rows = {r["op"]: r for r in prof.rows()}
            assert rows["conv2d"]["flops"] == pytest.approx(2700.0)  # 2*1*3*5*5*2*3*3
            # the padding happens inside conv2d: no separate pad2d node
            assert not {"pad2d", "pad2d.bwd"} & set(rows)
            assert rows["conv2d"]["calls"] == rows["conv2d.bwd"]["calls"] == 1
            flops[live] = rows["conv2d.bwd"]["flops"]
        assert flops[True] == pytest.approx(2 * 2700.0)  # dW and dx
        assert flops[False] == pytest.approx(2700.0)  # dW only

    @pytest.mark.parametrize(
        "training, x_live, forward, backward",
        [
            (True, True, 7, 7),  # sum of g, g*x_hat and its sum, four for dx
            (True, False, 7, 3),  # the two parameter sums only
            (False, True, 4, 4),  # the sums, one multiply for dx
            (False, False, 4, 3),
        ],
    )
    def test_batch_norm_is_one_node_with_a_per_element_estimate(
        self, training, x_live, forward, backward
    ):
        bn = BatchNorm2d(3).train(training)
        prof = OpProfiler()
        with activate(prof):
            x = Tensor(np.random.default_rng(0).normal(size=(2, 3, 4, 4)),
                       requires_grad=x_live)
            out = bn(x)
            out.backward(np.ones(out.shape))
        rows = {r["op"]: r for r in prof.rows()}
        assert set(rows) == {"batch_norm", "batch_norm.bwd", "backward.overhead"}
        assert rows["batch_norm"]["calls"] == rows["batch_norm.bwd"]["calls"] == 1
        assert rows["batch_norm"]["flops"] == pytest.approx(forward * x.size)
        assert rows["batch_norm.bwd"]["flops"] == pytest.approx(backward * x.size)
        assert rows["batch_norm"]["bytes"] == x.size * 8

    def test_optimizer_step_recorded(self):
        prof = OpProfiler()
        p = Tensor(np.ones(10), requires_grad=True)
        p.grad = np.ones(10)
        opt = SGD([p], lr=0.1)
        with activate(prof):
            opt.step()
        row = next(r for r in prof.rows() if r["op"] == "sgd.step")
        assert row["flops"] == pytest.approx(40.0)  # 4 per param

    def test_no_recording_when_inactive(self):
        before = profile_mod.ACTIVE
        assert before is None
        a = Tensor(np.ones((4, 3)), requires_grad=True)
        out = (a * 2.0).sum()
        out.backward()  # exercises hooks with ACTIVE None
        assert a.grad is not None

    def test_backward_outside_session_unrecorded(self):
        """wrap_backward re-checks ACTIVE when the closure fires."""
        prof = OpProfiler()
        with activate(prof):
            a = Tensor(np.ones((2, 2)), requires_grad=True)
            out = a.relu().sum()
        out.backward()  # fires after the session closed
        ops = {r["op"] for r in prof.rows()}
        assert "relu" in ops
        assert "relu.bwd" not in ops


class TestNumericNeutrality:
    def test_profiled_training_is_bit_identical(self):
        """Profiling must not perturb values, dtypes, or RNG streams."""

        def run_once(profiled):
            rng = np.random.default_rng(0)
            x = Tensor(rng.normal(size=(8, 4)))
            w = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
            opt = SGD([w], lr=0.1)
            for _ in range(3):
                loss = ((x @ w).relu() ** 2).sum()
                w.zero_grad()
                loss.backward()
                opt.step()
            return w.data.copy()

        baseline = run_once(profiled=False)
        with activate(OpProfiler()):
            profiled = run_once(profiled=True)
        assert profiled.dtype == baseline.dtype
        np.testing.assert_array_equal(profiled, baseline)
