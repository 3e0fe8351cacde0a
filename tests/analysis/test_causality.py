"""Vector clocks, happens-before, and frontiers.

The causal order under test is the index's (``trace.history_index()
.order``); message pairs used to check it come from the scalar oracle
in ``tests/oracles.py``, never from the index itself.
"""

from __future__ import annotations

import pytest

import numpy as np

from repro.analysis import (
    analyze_frontiers,
    check_trace_causality,
    is_consistent_frontier,
)
from repro.apps import LUConfig, lu_program
from repro.apps import strassen as st
from tests import oracles
from tests.conftest import traced_run


@pytest.fixture(scope="module")
def pipeline():
    """3-rank pipeline 0 -> 1 -> 2 with local compute around each hop."""

    def prog(comm):
        if comm.rank == 0:
            comm.compute(1.0)
            comm.send("x", dest=1)
            comm.compute(1.0)
        elif comm.rank == 1:
            comm.recv(source=0)
            comm.compute(1.0)
            comm.send("y", dest=2)
        else:
            comm.compute(1.0)
            comm.recv(source=1)

    _, tr = traced_run(prog, 3)
    return tr, tr.history_index().order


class TestHappensBefore:
    def test_program_order(self, pipeline):
        tr, order = pipeline
        rows = tr.by_proc(0)
        for earlier, later in zip(rows, rows[1:]):
            assert order.happens_before(earlier.index, later.index)
            assert not order.happens_before(later.index, earlier.index)

    def test_message_order(self, pipeline):
        tr, order = pipeline
        pairs = oracles.matching(tr).pairs
        assert pairs
        for send, recv in pairs:
            assert order.happens_before(send, recv)

    def test_clocks_equal_oracle(self, pipeline):
        tr, order = pipeline
        np.testing.assert_array_equal(order.clocks, oracles.causal_order(tr).clocks)

    def test_transitivity_across_hops(self, pipeline):
        tr, order = pipeline
        send0 = next(r for r in tr if r.is_send and r.proc == 0)
        recv2 = next(r for r in tr if r.is_recv and r.proc == 2)
        assert order.happens_before(send0.index, recv2.index)

    def test_concurrent_events(self, pipeline):
        tr, order = pipeline
        # p0's first compute and p2's first compute are causally unrelated.
        c0 = tr.by_proc(0)[0]
        c2 = tr.by_proc(2)[0]
        assert order.concurrent(c0.index, c2.index)

    def test_not_reflexive(self, pipeline):
        tr, order = pipeline
        assert not order.happens_before(0, 0)
        assert not order.concurrent(0, 0)

    def test_past_future_partition(self, pipeline):
        tr, order = pipeline
        recv1 = next(r for r in tr if r.is_recv and r.proc == 1)
        e = recv1.index
        past = set(order.past(e))
        future = set(order.future(e))
        conc = set(order.concurrency_region(e))
        assert past.isdisjoint(future)
        assert conc.isdisjoint(past | future)
        assert past | future | conc | {e} == set(range(len(tr)))

    def test_causality_invariant_holds(self, pipeline):
        tr, _ = pipeline
        assert check_trace_causality(tr) is None


class TestFrontiers:
    @pytest.fixture(scope="class")
    def lu_analysis(self):
        cfg = LUConfig(grid=16, nprocs=8, sweeps=3)
        _, tr = traced_run(lu_program(cfg), 8)
        order = tr.history_index().order
        # Pick a mid-trace receive on a middle rank (the Figure 8 click).
        target = [r for r in tr.by_proc(4) if r.is_recv][2]
        return tr, order, analyze_frontiers(tr, target.index, order)

    def test_past_frontier_consistent_inclusively(self, lu_analysis):
        tr, order, fa = lu_analysis
        assert is_consistent_frontier(
            tr, fa.past_frontier.indexes(), order, inclusive=True
        )

    def test_future_frontier_consistent_exclusively(self, lu_analysis):
        """Stopping just BEFORE each earliest-future event is a legal
        cut (the future stopline of Section 4.1)."""
        tr, order, fa = lu_analysis
        assert is_consistent_frontier(
            tr, fa.future_frontier.indexes(), order, inclusive=False
        )

    def test_past_before_future_per_proc(self, lu_analysis):
        _, _, fa = lu_analysis
        for p, past_rec in fa.past_frontier.events.items():
            fut_rec = fa.future_frontier.event(p)
            if past_rec is not None and fut_rec is not None:
                assert past_rec.t0 <= fut_rec.t1
                assert past_rec.marker <= fut_rec.marker

    def test_frontier_members_related_to_event(self, lu_analysis):
        _, order, fa = lu_analysis
        e = fa.event.index
        for rec in fa.past_frontier.events.values():
            if rec is not None:
                assert order.happens_before(rec.index, e)
        for rec in fa.future_frontier.events.values():
            if rec is not None:
                assert order.happens_before(e, rec.index)

    def test_concurrency_region_wide_for_pipeline(self, lu_analysis):
        """Pipelined LU gives distant ranks wide concurrency with the
        middle rank (the Figure 8 widening)."""
        _, _, fa = lu_analysis
        conc = fa.concurrency_events()
        assert any(r.proc in (0, 7) for r in conc)

    def test_past_stopline_thresholds(self, lu_analysis):
        _, _, fa = lu_analysis
        sl = fa.past_stopline()
        assert sl[fa.event.proc] == fa.event.marker
        for p, rec in fa.past_frontier.events.items():
            if p != fa.event.proc and rec is not None:
                assert sl[p] == rec.marker + 1

    def test_future_stopline_thresholds(self, lu_analysis):
        _, _, fa = lu_analysis
        sl = fa.future_stopline()
        for p, rec in fa.future_frontier.events.items():
            if p != fa.event.proc and rec is not None:
                assert sl[p] == rec.marker

    def test_send_recv_pair_is_consistent_cut(self, pipeline):
        """A cut containing both a send and its receive is consistent."""
        tr, order = pipeline
        send, recv = oracles.matching(tr).pairs[0]
        assert is_consistent_frontier(tr, [send, recv], order)

    def test_inconsistent_cut_detected(self, pipeline):
        """A receive inside the cut with its send outside is not."""
        tr, order = pipeline
        send, recv = oracles.matching(tr).pairs[0]
        before_send = tr.by_proc(tr[send].proc)[0]
        assert before_send.index != send
        assert not is_consistent_frontier(tr, [before_send.index, recv], order)

    def test_two_events_one_process_rejected(self, pipeline):
        tr, order = pipeline
        rows = tr.by_proc(0)
        assert not is_consistent_frontier(
            tr, [rows[0].index, rows[1].index], order
        )


class TestStrassenCausality:
    def test_master_sends_precede_all_worker_activity(self):
        cfg = st.StrassenConfig(n=8, nprocs=4)
        _, tr = traced_run(st.strassen_program(cfg), 4)
        order = tr.history_index().order
        first_send = next(r for r in tr.by_proc(0) if r.is_send)
        # The first operand send precedes the result receive it enables.
        result_recvs = [r for r in tr.by_proc(0) if r.is_recv]
        assert result_recvs
        assert order.happens_before(first_send.index, result_recvs[0].index)
