"""Span tracer: self-time arithmetic and wrapping."""

import math

import pytest

from spans import Span, Tracer, layer_self_times, patched, per_root_totals, self_times


def S(sid, parent, start, end, layer="x", name="n", count=0):
    return Span(sid, parent, layer, name, start, end, count)


def test_self_time_subtracts_children():
    spans = [S(0, -1, 0.0, 10.0), S(1, 0, 1.0, 3.0), S(2, 0, 4.0, 8.0), S(3, 2, 5.0, 6.0)]
    own = self_times(spans)
    assert own == pytest.approx({0: 4.0, 1: 2.0, 2: 3.0, 3: 1.0})


def test_self_time_counts_overlapping_children_once():
    spans = [S(0, -1, 0.0, 10.0), S(1, 0, 1.0, 5.0), S(2, 0, 3.0, 7.0), S(3, 0, 6.5, 7.5)]
    # children cover [1, 7.5] once
    assert self_times(spans)[0] == pytest.approx(3.5)


def test_self_time_clips_children_to_the_parent():
    spans = [S(0, -1, 2.0, 6.0), S(1, 0, 0.0, 3.0), S(2, 0, 5.0, 9.0), S(3, 0, 7.0, 8.0)]
    # only [2, 3] and [5, 6] lie inside the parent
    assert self_times(spans)[0] == pytest.approx(2.0)


def test_layer_self_times_add_up_to_each_root():
    spans = [
        S(0, -1, 0.0, 10.0, "bench", "iteration"),
        S(1, 0, 1.0, 6.0, "debugger", "replay"),
        S(2, 1, 2.0, 5.0, "mp", "run"),
        S(3, 2, 3.0, 4.0, "trace", "record"),
        S(4, -1, 20.0, 23.0, "bench", "iteration"),
        S(5, 4, 21.0, 22.0, "analysis", "clocks"),
        S(6, -1, 30.0, 31.0, "bench", "other-root"),
    ]
    rows = layer_self_times(spans, "iteration")
    assert rows[0] == pytest.approx({"bench": 5.0, "debugger": 2.0, "mp": 2.0, "trace": 1.0})
    assert rows[1] == pytest.approx({"bench": 2.0, "analysis": 1.0})
    assert [math.fsum(r.values()) for r in rows] == pytest.approx([10.0, 3.0])


def test_absorbing_layer_takes_its_whole_subtree():
    spans = [
        S(0, -1, 0.0, 10.0, "bench", "iteration"),
        S(1, 0, 1.0, 5.0, "check", "check"),
        S(2, 1, 2.0, 4.0, "trace", "snapshot"),
        S(3, 0, 6.0, 8.0, "trace", "write"),
    ]
    rows = layer_self_times(spans, "iteration", absorb=("check",))
    assert rows == [pytest.approx({"bench": 4.0, "check": 4.0, "trace": 2.0})]


def test_per_root_totals_sum_durations_and_counts():
    spans = [
        S(0, -1, 0.0, 10.0, name="iteration"),
        S(1, 0, 1.0, 2.0, name="races", count=3),
        S(2, 0, 3.0, 3.5, name="job"),
        S(3, 2, 3.1, 3.3, name="races", count=4),
        S(4, -1, 20.0, 30.0, name="iteration"),
    ]
    assert per_root_totals(spans, "iteration", "races") == [pytest.approx((1.2, 7))]


def test_tracer_nests_spans_and_is_silent_when_disabled():
    tracer = Tracer()
    double = tracer.wrap(lambda x: [x, x], "analysis", "double", count=len)
    with tracer.span("bench", "root"):
        double(1)
    assert tracer.spans == []
    tracer.enabled = True
    with tracer.span("bench", "root") as box:
        double(1)
        box[0] = 9
    inner, outer = tracer.spans
    assert (inner.name, inner.parent, inner.count) == ("double", outer.sid, 2)
    assert (outer.name, outer.parent, outer.count) == ("root", -1, 9)
    assert outer.start <= inner.start <= inner.end <= outer.end


def test_tracer_closes_a_span_when_the_call_raises():
    tracer = Tracer()
    tracer.enabled = True

    def boom():
        raise KeyError("x")

    with pytest.raises(KeyError):
        tracer.wrap(boom, "mp", "boom")()
    assert [s.name for s in tracer.spans] == ["boom"]
    assert tracer._stack == []


def test_patched_wraps_and_restores_program_functions():
    import repro.explore.context as context
    from repro.mp.runtime import Runtime

    original_fn = context.detect_races
    original_method = Runtime.__dict__["run_until_idle"]
    tracer = Tracer()
    with patched(tracer):
        assert context.detect_races is not original_fn
        assert Runtime.__dict__["run_until_idle"] is not original_method
    assert context.detect_races is original_fn
    assert Runtime.__dict__["run_until_idle"] is original_method
