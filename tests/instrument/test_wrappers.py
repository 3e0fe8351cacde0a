"""The wrapper instrumentation library (PMPI method, Section 2.3)."""

from __future__ import annotations

import sys

import numpy as np

from repro import mp
from repro.apps import strassen as st
from repro.instrument import WrapperLibrary, lifecycle_wrapper
from repro.mp.errors import InvalidTagError
from repro.trace import EventKind, TraceRecorder


def traced_run(program, nprocs, **rt_kw):
    """Run a program under the wrapper library; returns (runtime, trace)."""
    rt = mp.Runtime(nprocs, **rt_kw)
    recorder = TraceRecorder(nprocs)
    lib = WrapperLibrary(rt, recorder)
    rt.run(program, target_wrappers=[lifecycle_wrapper(recorder)])
    rt.shutdown()
    del lib
    return rt, recorder.snapshot()


def pingpong(comm):
    if comm.rank == 0:
        comm.send(np.arange(3), dest=1, tag=5)
        comm.recv(source=1, tag=6)
    else:
        comm.recv(source=0, tag=5)
        comm.send("back", dest=0, tag=6)


class TestAutomaticCollection:
    def test_send_recv_records(self):
        _, tr = traced_run(pingpong, 2)
        sends = tr.of_kind(EventKind.SEND)
        recvs = tr.of_kind(EventKind.RECV)
        assert len(sends) == 2 and len(recvs) == 2
        pair_keys = {p.key for p in tr.message_pairs()}
        assert (0, 1, 5, 0) in pair_keys and (1, 0, 6, 0) in pair_keys

    def test_records_carry_markers_and_times(self):
        _, tr = traced_run(pingpong, 2)
        for r in tr:
            assert r.t1 >= r.t0
            assert r.marker >= 0
        # Markers strictly increase along each process's comm events.
        for p in range(2):
            markers = [r.marker for r in tr.by_proc(p) if r.is_message]
            assert markers == sorted(markers)
            assert len(set(markers)) == len(markers)

    def test_recv_records_point_to_send_site(self):
        """Click-a-message-line support: receive records carry the
        sending construct's location."""
        _, tr = traced_run(pingpong, 2)
        recv = tr.of_kind(EventKind.RECV)[0]
        assert recv.peer_location is not None
        assert recv.peer_location.filename.endswith("test_wrappers.py")
        assert recv.peer_time <= recv.t1

    def test_lifecycle_records(self):
        _, tr = traced_run(pingpong, 2)
        assert len(tr.of_kind(EventKind.PROC_START)) == 2
        assert len(tr.of_kind(EventKind.PROC_EXIT)) == 2

    def test_compute_records(self):
        def prog(comm):
            comm.compute(7.0, label="work")

        _, tr = traced_run(prog, 1)
        comp = tr.of_kind(EventKind.COMPUTE)
        assert len(comp) == 1
        assert comp[0].duration == 7.0
        assert comp[0].extra["label"] == "work"

    def test_collective_plus_constituents(self):
        def prog(comm):
            comm.bcast("x", root=0)

        _, tr = traced_run(prog, 3)
        assert len(tr.of_kind(EventKind.BCAST)) == 3  # one per rank
        assert len(tr.of_kind(EventKind.SEND)) == 2  # root's two sends
        assert len(tr.of_kind(EventKind.RECV)) == 2

    def test_wait_completion_normalized_to_recv(self):
        def prog(comm):
            if comm.rank == 0:
                comm.send("x", dest=1, tag=3)
            else:
                req = comm.irecv(source=0, tag=3)
                comm.wait(req)

        _, tr = traced_run(prog, 2)
        recvs = tr.of_kind(EventKind.RECV)
        assert len(recvs) == 1
        assert recvs[0].extra.get("via") == "wait"
        assert recvs[0].message_key() == (0, 1, 3, 0)

    def test_failed_iprobe_not_recorded(self):
        def prog(comm):
            comm.iprobe(source=0, tag=9)

        _, tr = traced_run(prog, 1)
        assert tr.of_kind(EventKind.IPROBE) == []

    def test_uninstall_stops_collection(self):
        rt = mp.Runtime(2)
        recorder = TraceRecorder(2)
        lib = WrapperLibrary(rt, recorder)
        lib.uninstall()
        rt.run(pingpong)
        assert len(recorder.snapshot()) == 0


class TestCallSiteHandover:
    """The wrapper walks the stack once and hands the call site to the
    PMPI body; the body must record exactly what its own walk would."""

    def test_record_and_message_share_the_user_line(self):
        lines = {}

        def prog(comm):
            if comm.rank == 0:
                lines["send"] = sys._getframe().f_lineno + 1
                comm.send("x", dest=1, tag=3)
            else:
                comm.recv(source=0, tag=3)

        _, tr = traced_run(prog, 2)
        send = tr.of_kind(EventKind.SEND)[0]
        recv = tr.of_kind(EventKind.RECV)[0]
        assert send.location.lineno == lines["send"]
        assert send.location.function == "prog"
        assert recv.peer_location == send.location

    def test_failed_op_does_not_leak_its_call_site(self):
        lines = {}

        def prog(comm):
            if comm.rank == 0:
                try:
                    comm.send("x", dest=1, tag=-7)  # rejected before the body walks
                except InvalidTagError:
                    pass
                assert comm.entry_location is None
                lines["direct"] = sys._getframe().f_lineno + 1
                comm.pmpi_send("direct", 1, 0)  # unwrapped: walks for itself
            else:
                return comm.recv(source=0)

        rt, tr = traced_run(prog, 2)
        assert rt.results()[1] == "direct"
        recv = tr.of_kind(EventKind.RECV)[0]
        assert recv.peer_location.lineno == lines["direct"]


class TestStrassenTraceShape:
    """Trace-level view of the Figure 3 run."""

    def test_correct_run_message_structure(self):
        cfg = st.StrassenConfig(n=8, nprocs=8)
        _, tr = traced_run(st.strassen_program(cfg), 8)
        # 14 operand messages + 7 results, all matched.
        assert len(tr.message_pairs()) == 21
        assert tr.unmatched_sends() == []
        counts = tr.recv_counts()
        assert all(counts[w] == 2 for w in range(1, 8))  # two operands each
        assert counts[0] == 7  # seven partial results

    def test_buggy_run_trace_diagnostics(self):
        cfg = st.StrassenConfig(n=8, nprocs=8, buggy=True)
        rt = mp.Runtime(8)
        recorder = TraceRecorder(8)
        WrapperLibrary(rt, recorder)
        rt.run(st.strassen_program(cfg), raise_errors=False)
        tr = recorder.snapshot()
        counts = tr.recv_counts()
        assert all(counts[w] == 2 for w in range(1, 7))
        assert counts[7] == 1  # the missing tick of Figure 6
        missed = tr.unmatched_sends()
        assert len(missed) == 1 and missed[0].tag == st.TAG_OPERAND_B
        rt.shutdown()

    def test_trace_deterministic(self):
        cfg = st.StrassenConfig(n=8, nprocs=4)
        _, tr1 = traced_run(st.strassen_program(cfg), 4)
        _, tr2 = traced_run(st.strassen_program(cfg), 4)
        assert [
            (r.proc, r.kind, r.t0, r.t1, r.marker) for r in tr1
        ] == [(r.proc, r.kind, r.t0, r.t1, r.marker) for r in tr2]
