"""Property tests of causality, stoplines, and replay over randomly
generated (but deadlock-free) message-passing programs."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as hst

from repro import mp
from repro.analysis import (
    check_trace_causality,
    cut_of_frontier,
    is_consistent_cut,
)
from repro.debugger import vertical_stopline_at_time, verify_stopline_consistency
from repro.instrument import WrapperLibrary
from repro.trace import TraceRecorder
from tests import oracles

NPROCS = 4

# ----------------------------------------------------------------------
# random deadlock-free program generation
# ----------------------------------------------------------------------
# A program is, per rank, a list of phases; phase k of every rank
# executes before phase k+1 thanks to a barrier, and within a phase each
# rank sends to a fixed target set then receives everything addressed to
# it (counts are globally consistent by construction).
phase_strategy = hst.lists(
    hst.tuples(hst.integers(0, NPROCS - 1), hst.integers(0, NPROCS - 1),
               hst.integers(0, 2)),  # (src, dst, tag)
    min_size=0,
    max_size=6,
)
program_strategy = hst.lists(phase_strategy, min_size=1, max_size=3)


def build_program(phases):
    """Materialize the random schedule as an SPMD function."""

    def prog(comm):
        rank = comm.rank
        for phase in phases:
            for i, (src, dst, tag) in enumerate(phase):
                if src == rank:
                    comm.send((src, dst, tag, i), dest=dst, tag=tag)
            my_inbound = [m for m in phase if m[1] == rank]
            for src, dst, tag in my_inbound:
                comm.recv(source=src, tag=tag)
            comm.barrier()
        return rank

    return prog


def traced(phases, **kw):
    rt = mp.Runtime(NPROCS, **kw)
    recorder = TraceRecorder(NPROCS)
    WrapperLibrary(rt, recorder)
    rt.run(build_program(phases))
    rt.shutdown()
    return rt, recorder.snapshot()


# ----------------------------------------------------------------------
@settings(max_examples=25, deadline=None)
@given(program_strategy)
def test_trace_causality_invariant(phases):
    """No receive ever completes before its send (DESIGN invariant)."""
    _, trace = traced(phases)
    assert check_trace_causality(trace) is None


@settings(max_examples=25, deadline=None)
@given(program_strategy)
def test_happens_before_is_strict_partial_order(phases):
    _, trace = traced(phases)
    order = trace.history_index().order
    np.testing.assert_array_equal(order.clocks, oracles.causal_order(trace).clocks)
    n = len(trace)
    idxs = list(range(0, n, max(1, n // 12)))  # sample for speed
    for a in idxs:
        assert not order.happens_before(a, a)
        for b in idxs:
            if order.happens_before(a, b):
                assert not order.happens_before(b, a)
            for c in idxs:
                if order.happens_before(a, b) and order.happens_before(b, c):
                    assert order.happens_before(a, c)


@settings(max_examples=25, deadline=None)
@given(program_strategy, hst.floats(0.0, 1.0))
def test_vertical_stoplines_always_consistent(phases, frac):
    """Any vertical time slice is a consistent cut (§4.1)."""
    _, trace = traced(phases)
    t_lo, t_hi = trace.span
    t = t_lo + frac * (t_hi - t_lo)
    sl = vertical_stopline_at_time(trace, t)
    assert verify_stopline_consistency(trace, sl)


@settings(max_examples=25, deadline=None)
@given(program_strategy, hst.integers(0, 10_000))
def test_per_proc_prefixes_of_completed_recvs_are_consistent(phases, salt):
    """A cut taken at any completed event boundary has its receives'
    sends inside (exercises cut_of_frontier + is_consistent_cut)."""
    _, trace = traced(phases)
    if len(trace) == 0:
        return
    # Pick one event per proc deterministically from the salt.
    picks = []
    for p in range(trace.nprocs):
        rows = trace.by_proc(p)
        if rows:
            picks.append(rows[salt % len(rows)].index)
    # An arbitrary frontier need not be consistent -- but the inclusive
    # cut of per-proc *time-aligned* prefixes at the max completion time
    # must be.  Build it via the vertical stopline at that time instead.
    t = max(trace[i].t1 for i in picks)
    sl = vertical_stopline_at_time(trace, t)
    assert verify_stopline_consistency(trace, sl)
    cut = cut_of_frontier(trace, picks, inclusive=True)
    if cut is not None and is_consistent_cut(trace, cut):
        # When the random frontier happens to be consistent, all of its
        # receives' sends are inside -- restated directly, on the
        # oracle's matching:
        for send, recv in oracles.matching(trace).pairs:
            if recv in cut:
                assert send in cut


@settings(max_examples=20, deadline=None)
@given(program_strategy, hst.integers(0, 7))
def test_policies_agree_on_results(phases, seed):
    """Interleaving choices never change a deterministic program's
    results (scheduler-determinism invariant)."""
    outcomes = []
    for policy in ("run_to_block", "virtual_time"):
        rt = mp.Runtime(NPROCS, policy=policy, seed=seed)
        rt.run(build_program(phases))
        rt.shutdown()
        outcomes.append(tuple(rt.results()))
    assert len(set(outcomes)) == 1


@settings(max_examples=20, deadline=None)
@given(program_strategy)
def test_replay_reproduces_trace_fingerprint(phases):
    """Replaying under the recorded log yields the identical per-proc
    event fingerprint (replay-fidelity invariant)."""
    rt1, trace1 = traced(phases)
    _, trace2 = traced(phases, replay_log=rt1.comm_log)

    def fingerprint(tr):
        return [
            [(r.kind, r.marker, r.src, r.dst, r.tag, r.seq) for r in tr.by_proc(p)]
            for p in range(tr.nprocs)
        ]

    assert fingerprint(trace1) == fingerprint(trace2)


@settings(max_examples=20, deadline=None)
@given(program_strategy)
def test_markers_strictly_increase(phases):
    """Per-process marker values in a trace are strictly increasing over
    marker-bumping records (monotonicity invariant)."""
    _, trace = traced(phases)
    for p in range(trace.nprocs):
        markers = [r.marker for r in trace.by_proc(p) if r.is_message]
        assert markers == sorted(set(markers))
