"""Property: the incrementally-built HistoryIndex equals the batch one.

Random deadlock-free programs (the same phase/barrier construction as
``test_causality_properties``) plus randomized ring/LU parameterizations
are traced; the index fed record-by-record -- with catch-up queries at
random interleave points -- must equal the scalar oracles of
``tests/oracles.py`` (clocks, matching) exactly.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as hst

from repro import mp
from repro.analysis import HistoryIndex
from repro.apps.lu import LUConfig, lu_program
from repro.apps.ring import ring_program
from repro.instrument import WrapperLibrary
from repro.trace import TraceRecorder
from tests import oracles

NPROCS = 4

phase_strategy = hst.lists(
    hst.tuples(hst.integers(0, NPROCS - 1), hst.integers(0, NPROCS - 1),
               hst.integers(0, 2)),  # (src, dst, tag)
    min_size=0,
    max_size=6,
)
program_strategy = hst.lists(phase_strategy, min_size=1, max_size=3)


def build_program(phases):
    def prog(comm):
        rank = comm.rank
        for phase in phases:
            for i, (src, dst, tag) in enumerate(phase):
                if src == rank:
                    comm.send((src, dst, tag, i), dest=dst, tag=tag)
            for src, dst, tag in (m for m in phase if m[1] == rank):
                comm.recv(source=src, tag=tag)
            comm.barrier()
        return rank

    return prog


def traced(program, nprocs):
    rt = mp.Runtime(nprocs)
    recorder = TraceRecorder(nprocs)
    WrapperLibrary(rt, recorder)
    rt.run(program)
    rt.shutdown()
    return recorder.snapshot()


def assert_incremental_equals_batch(trace, catchup_every):
    want = oracles.matching(trace)
    index = HistoryIndex(nprocs=trace.nprocs)
    for k, rec in enumerate(trace):
        index.extend(rec)
        if catchup_every and k % catchup_every == 0:
            index.message_pairs()
            _ = index.clocks
    np.testing.assert_array_equal(
        index.clocks, oracles.clocks(trace, trace.nprocs, want.send_of_recv)
    )
    assert [
        (p.send.index, p.recv.index) for p in index.message_pairs()
    ] == want.pairs
    assert [r.index for r in index.unmatched_sends()] == want.unmatched_sends
    assert [r.index for r in index.unmatched_recvs()] == want.unmatched_recvs
    stats = index.stats()
    assert stats.clock_builds <= 1
    assert stats.matching_builds <= 1


@settings(max_examples=20, deadline=None)
@given(program_strategy, hst.integers(0, 13))
def test_incremental_equals_batch_random_programs(phases, catchup_every):
    trace = traced(build_program(phases), NPROCS)
    assert_incremental_equals_batch(trace, catchup_every)


@settings(max_examples=8, deadline=None)
@given(hst.integers(1, 3), hst.integers(2, 5), hst.integers(0, 7))
def test_incremental_equals_batch_ring(rounds, nprocs, catchup_every):
    trace = traced(ring_program(rounds=rounds), nprocs)
    assert_incremental_equals_batch(trace, catchup_every)


@settings(max_examples=5, deadline=None)
@given(hst.integers(1, 2), hst.integers(1, 2), hst.integers(0, 31))
def test_incremental_equals_batch_lu(sweeps, panels, catchup_every):
    cfg = LUConfig(grid=8, nprocs=4, panels=panels, sweeps=sweeps)
    trace = traced(lu_program(cfg), 4)
    assert_incremental_equals_batch(trace, catchup_every)
