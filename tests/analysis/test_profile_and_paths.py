"""Trace profiles, critical paths, and race steering."""

from __future__ import annotations

import pytest

from repro import mp
from repro.analysis import (
    communication_matrix,
    critical_path,
    detect_races,
    function_profile,
    function_profile_text,
    matching_fingerprint,
    slack_per_process,
    steer_to_alternative,
    time_breakdown,
    time_breakdown_text,
)
from repro.apps import fibonacci as fibmod
from repro.apps import master_worker_program
from repro.apps import strassen as st
from tests.conftest import traced_run


@pytest.fixture(scope="module")
def strassen_trace():
    cfg = st.StrassenConfig(n=8, nprocs=4)
    _, tr = traced_run(st.strassen_program(cfg), 4)
    return tr


class TestTimeBreakdown:
    def test_totals_cover_event_durations(self, strassen_trace):
        rows = time_breakdown(strassen_trace)
        assert len(rows) == 4
        for row in rows:
            assert row.total >= 0.0
        # The master computes (operand prep + combine) and receives.
        master = rows[0]
        assert master.compute > 0
        assert master.recv_blocked + master.recv_overhead > 0

    def test_blocked_vs_overhead_split(self):
        """A receiver that arrives early logs mostly blocked time."""

        def prog(comm):
            if comm.rank == 0:
                comm.compute(100.0)
                comm.send("late", dest=1)
            else:
                comm.recv(source=0)  # waits ~100 time units

        _, tr = traced_run(prog, 2)
        row = time_breakdown(tr)[1]
        assert row.recv_blocked > 50.0
        assert row.recv_blocked > row.recv_overhead

    def test_text_rendering(self, strassen_trace):
        text = time_breakdown_text(strassen_trace)
        assert "recv-wait" in text and text.count("\n") == 4


class TestCommMatrix:
    def test_strassen_star(self, strassen_trace):
        mat = communication_matrix(strassen_trace)
        msgs, elems = mat.totals()
        assert msgs == 21
        assert elems > 0
        # Star pattern: nothing flows between workers.
        for s in range(1, 4):
            for d in range(1, 4):
                assert mat.counts[s, d] == 0
        # Operands outweigh results: 0->w carries two matrices.
        for w in range(1, 4):
            assert mat.counts[0, w] >= 2

    def test_user_only_excludes_collectives(self):
        def prog(comm):
            comm.bcast("x", root=0)
            if comm.rank == 0:
                comm.send("user", dest=1, tag=1)
            elif comm.rank == 1:
                comm.recv(source=0, tag=1)

        _, tr = traced_run(prog, 3)
        user = communication_matrix(tr, user_only=True)
        every = communication_matrix(tr, user_only=False)
        assert user.totals()[0] == 1
        assert every.totals()[0] == 3  # + two bcast legs

    def test_busiest_route(self, strassen_trace):
        src, dst = communication_matrix(strassen_trace).busiest_route()
        assert src == 0 and dst in (1, 2, 3)

    def test_text(self, strassen_trace):
        assert "total: 21 messages" in communication_matrix(strassen_trace).as_text()


class TestFunctionProfile:
    def test_fib_profile(self):
        _, tr = traced_run(fibmod.fib_program(8), 1, functions=[fibmod.fib])
        stats = function_profile(tr)
        assert stats["fib"].calls == fibmod.fib_call_count(8)
        assert stats["fib"].inclusive >= stats["fib"].exclusive >= 0
        assert "fib" in function_profile_text(tr)

    def test_exclusive_excludes_children(self):
        def parent(comm):
            child(comm)
            child(comm)

        def child(comm):
            comm.compute(10.0)

        def prog(comm):
            parent(comm)

        _, tr = traced_run(prog, 1, functions=[parent, child])
        stats = function_profile(tr)
        assert stats["child"].calls == 2
        assert stats["child"].inclusive == pytest.approx(20.0, abs=1.0)
        # Parent's exclusive time is tiny: all its time is in children.
        assert stats["parent"].exclusive < stats["parent"].inclusive / 2

    def test_empty_profile_text(self, strassen_trace):
        assert "no function records" in function_profile_text(strassen_trace)


class TestCriticalPath:
    def test_fully_serial_pipeline(self):
        """A pure pipeline is its own critical path: dominance ~ 1."""

        def prog(comm):
            if comm.rank > 0:
                comm.recv(source=comm.rank - 1)
            comm.compute(10.0)
            if comm.rank < comm.size - 1:
                comm.send("t", dest=comm.rank + 1)

        _, tr = traced_run(prog, 4)
        cp = critical_path(tr)
        assert cp.length > 0
        assert cp.hops() >= 3  # crosses every pipeline stage
        assert cp.dominance > 0.7

    def test_embarrassingly_parallel_low_dominance(self):
        def prog(comm):
            comm.compute(10.0)

        _, tr = traced_run(prog, 4)
        cp = critical_path(tr)
        # Only one process's work can be on the path.
        assert cp.records and all(r.proc == cp.records[0].proc for r in cp.records)

    def test_path_is_causal_chain(self, strassen_trace):
        from tests import oracles

        cp = critical_path(strassen_trace)
        order = oracles.causal_order(strassen_trace)
        for a, b in zip(cp.records, cp.records[1:]):
            assert order.happens_before(a.index, b.index)

    def test_slack(self):
        def prog(comm):
            comm.compute(100.0 if comm.rank == 0 else 1.0)
            comm.barrier()

        _, tr = traced_run(prog, 3)
        slack = slack_per_process(tr)
        # The heavy rank has the least slack.
        assert slack[0] < slack[1] and slack[0] < slack[2]

    def test_empty_trace(self):
        from repro.trace import Trace

        cp = critical_path(Trace([], 2))
        assert cp.length == 0.0 and cp.records == []

    def test_as_text(self, strassen_trace):
        text = critical_path(strassen_trace).as_text(limit=10)
        assert "critical path" in text and "message hops" in text


class TestRaceSteering:
    def test_steered_replay_delivers_alternative(self):
        program = master_worker_program(n_tasks=6)
        rt = mp.Runtime(4)
        from repro.instrument import WrapperLibrary
        from repro.trace import TraceRecorder

        recorder = TraceRecorder(4)
        WrapperLibrary(rt, recorder)
        rt.run(program)
        rt.shutdown()
        trace = recorder.snapshot()

        races = detect_races(trace)
        assert races
        race = races[0]
        alternative = race.alternatives[0]
        steered = steer_to_alternative(rt.comm_log, trace, race, alternative)

        rt2 = mp.Runtime(4, replay_log=steered)
        recorder2 = TraceRecorder(4)
        WrapperLibrary(rt2, recorder2)
        rt2.run(program)
        rt2.shutdown()
        trace2 = recorder2.snapshot()

        # The racing receive (same post position) now matched the
        # alternative message.
        recv2 = [
            r for r in trace2.by_proc(race.recv.proc)
            if r.is_recv and r.marker == race.recv.marker
        ]
        assert recv2, "steered run reaches the same receive"
        assert recv2[0].message_key() == alternative.message_key()
        # The program still completes with the same task results.
        assert rt2.results()[0] == rt.results()[0]
        # And the matchings genuinely differ.
        assert matching_fingerprint(rt.comm_log) != matching_fingerprint(
            rt2.comm_log
        )

    def test_invalid_alternative_rejected(self):
        program = master_worker_program(n_tasks=4)
        rt = mp.Runtime(3)
        from repro.instrument import WrapperLibrary
        from repro.trace import TraceRecorder

        recorder = TraceRecorder(3)
        WrapperLibrary(rt, recorder)
        rt.run(program)
        rt.shutdown()
        trace = recorder.snapshot()
        races = detect_races(trace)
        assert races
        not_an_alt = races[0].matched_send
        with pytest.raises(ValueError, match="not one of the race"):
            steer_to_alternative(rt.comm_log, trace, races[0], not_an_alt)
