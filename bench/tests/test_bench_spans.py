"""Span self-time arithmetic on hand-built trees."""

import pytest

from bench.layers import span_layer, span_metric
from bench.spans import SpanRecorder, self_times, total_by


def _span(id_, name, start, end, parent=None, **attrs):
    return {"id": id_, "name": name, "start": start, "end": end,
            "parent": parent, "rep": "t", "attrs": attrs}


TREE = [
    _span(0, "fl.simulation.run", 0.0, 10.0, algo="fedpkd"),
    _span(1, "fl.training.stage", 1.0, 4.0, parent=0, stage="local_train"),
    _span(2, "core.server_distill", 4.0, 9.0, parent=0),
    _span(3, "fl.channel.upload", 5.0, 5.5, parent=2),
    _span(4, "fl.channel.upload", 6.0, 6.5, parent=2),
    _span(5, "data.make_bundle", 10.0, 11.0),
]


def test_self_time_is_duration_minus_direct_children():
    own = self_times(TREE)
    assert own[0] == pytest.approx(10.0 - 3.0 - 5.0)  # grandchildren not subtracted twice
    assert own[1] == pytest.approx(3.0)
    assert own[2] == pytest.approx(5.0 - 0.5 - 0.5)
    assert own[3] == own[4] == pytest.approx(0.5)
    assert own[5] == pytest.approx(1.0)


def test_self_times_partition_the_covered_interval():
    # every instant under a root span belongs to exactly one span's self time
    assert sum(self_times(TREE).values()) == pytest.approx(10.0 + 1.0)


def test_layer_and_metric_attribution():
    by_layer = total_by(TREE, span_layer)
    assert by_layer == pytest.approx({
        "fl.simulation": 2.0, "fl.training": 3.0, "core": 4.0,
        "fl.channel": 1.0, "data": 1.0,
    })
    by_metric = total_by(TREE, span_metric)
    assert by_metric["fl.training.local_train_s"] == pytest.approx(3.0)
    assert by_metric["core.server_distill_s"] == pytest.approx(4.0)
    assert by_metric["fl.channel.busy_s"] == pytest.approx(1.0)
    # whole durations, not self times, when asked
    whole = total_by(TREE, lambda s: s["attrs"].get("algo"), self_time=False)
    assert whole == pytest.approx({"fedpkd": 10.0})


def test_recorder_nests_and_survives_exceptions():
    rec = SpanRecorder(rep="w/seed0/traced")

    def inner(x):
        if x < 0:
            raise ValueError(x)
        return x + 1

    wrapped = rec.wrap(inner, "nn.inner", lambda x: {"x": x})
    with rec.span("outer.call"):
        assert wrapped(1) == 2
        with pytest.raises(ValueError):
            wrapped(-1)
    assert wrapped(5) == 6
    names = [(s["name"], s["parent"]) for s in rec.spans]
    assert names == [("outer.call", None), ("nn.inner", 0), ("nn.inner", 0),
                     ("nn.inner", None)]
    assert all(s["end"] >= s["start"] and s["rep"] == "w/seed0/traced"
               for s in rec.spans)
    assert rec.spans[1]["attrs"] == {"x": 1}
