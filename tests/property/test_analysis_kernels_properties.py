"""Property: the analysis kernels equal the scalar oracles of
``tests/oracles.py`` exactly.

Random synthetic traces -- messages with wildcard-receive patterns,
duplicate message keys, unmatched sends/receives, waits/collectives and
compute -- and two structured shapes the random ones never reach --
round-based neighbour exchanges over up to 16 processes (join levels as
wide as the process count) and a relayed token (one join per level) --
are indexed in batch and incrementally (streamed in chunks with
catch-up queries between chunks), and every derived artifact must
equal the oracle's: clock matrices (integer-exact), matching pairs and
unmatched lists, window queries, race reports, and critical paths
(bitwise float equality: the segment ``add.accumulate`` DP performs
the same sequential additions as the per-record loop).  ``Trace``
matching, which answers from the index, is held to the same oracle.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from repro.analysis import HistoryIndex
from repro.analysis.critical_path import critical_path
from repro.analysis.races import detect_races
from repro.mp.datatypes import ANY_SOURCE, ANY_TAG, SourceLocation
from repro.trace.events import EventKind, TraceRecord
from repro.trace.trace import Trace
from tests import oracles

LOC = SourceLocation("prog.py", 1, "main")

OTHER_KINDS = (
    EventKind.COMPUTE,
    EventKind.WAIT,
    EventKind.BARRIER,
    EventKind.SENDRECV,
    EventKind.ALLREDUCE,
)


def _record(i, proc, kind, **kw):
    return TraceRecord(
        index=i, proc=proc, kind=kind, t0=kw.pop("t0"), t1=kw.pop("t1"),
        marker=i + 1, location=LOC, **kw,
    )


@hst.composite
def trace_records(draw, max_events=120, max_procs=5):
    """A causally-valid random record list with adversarial structure:
    wildcard receives, optional duplicate keys, drops (unmatched sends),
    stray receives (unmatched), zero-weight kinds."""
    nprocs = draw(hst.integers(1, max_procs))
    n = draw(hst.integers(1, max_events))
    dup_keys = draw(hst.booleans())
    rng_seed = draw(hst.integers(0, 2**31))
    rng = np.random.default_rng(rng_seed)
    records, open_sends, seqs = [], [], {}
    t = 0.0
    for i in range(n):
        t += float(rng.random())
        p = int(rng.integers(nprocs))
        roll = float(rng.random())
        if roll < 0.30:
            q = int(rng.integers(nprocs))
            tag = int(rng.integers(3))
            if dup_keys:
                seq = int(rng.integers(2))  # collisions on purpose
            else:
                seq = seqs.get((p, q), 0)
                seqs[(p, q)] = seq + 1
            rec = _record(i, p, EventKind.SEND, src=p, dst=q, tag=tag,
                          seq=seq, size=int(rng.integers(100)),
                          t0=t, t1=t + 0.1)
            open_sends.append(rec)
            records.append(rec)
        elif roll < 0.55 and open_sends:
            # deliver a pending send (drop some: unmatched sends remain)
            s = open_sends.pop(int(rng.integers(len(open_sends))))
            extra = {}
            if rng.random() < 0.4:
                extra["posted_src"] = ANY_SOURCE
            if rng.random() < 0.3:
                extra["posted_tag"] = ANY_TAG
            records.append(
                _record(i, s.dst, EventKind.RECV, src=s.src, dst=s.dst,
                        tag=s.tag, seq=s.seq, extra=extra, t0=t, t1=t + 0.2)
            )
        elif roll < 0.62:
            # stray receive: no matching send exists
            records.append(
                _record(i, p, EventKind.RECV, src=int(rng.integers(nprocs)),
                        dst=p, tag=9, seq=10_000 + i, t0=t, t1=t + 0.2)
            )
        else:
            kind = OTHER_KINDS[int(rng.integers(len(OTHER_KINDS)))]
            records.append(_record(i, p, kind, t0=t, t1=t + 0.05))
    return nprocs, records


def _message(i, kind, proc, src, dst, tag, seq, t, dur, **kw):
    return _record(i, proc, kind, src=src, dst=dst, tag=tag, seq=seq,
                   size=8, t0=t, t1=t + dur, **kw)


def exchange(nprocs, rounds, offsets, seed):
    """Round-based neighbour exchanges, shaped like the perfbench store
    trace: each round every rank sends to each of its neighbours (one
    tag per neighbour offset), then the round's receives follow, then
    every rank computes.  One hop of a round is a join level as wide as
    the process count.  Durations come from a two-value set, so the
    critical path meets exact ties."""
    rng = np.random.default_rng(seed)
    records = []
    t = 0.0

    def tick():
        nonlocal t
        t += float(rng.integers(1, 3))
        return t

    for r in range(rounds):
        for p in range(nprocs):
            for d, off in enumerate(offsets):
                records.append(_message(len(records), EventKind.SEND, p, p,
                                        (p + off) % nprocs, d, r, tick(), 0.5))
        recvs = [(p, d) for p in range(nprocs) for d in range(len(offsets))]
        if rng.random() < 0.5:
            rng.shuffle(recvs)  # receives in arrival order, not rank order
        for p, d in recvs:
            src = (p - offsets[d]) % nprocs
            extra = {"posted_src": ANY_SOURCE} if rng.random() < 0.1 else {}
            records.append(_message(len(records), EventKind.RECV, p, src, p, d,
                                    r, tick(), float(rng.integers(1, 3)),
                                    extra=extra))
        for p in range(nprocs):
            records.append(_record(len(records), p, EventKind.COMPUTE, t0=tick(),
                                   t1=t + float(rng.integers(1, 3))))
    return nprocs, records


def relay(nprocs, hops, seed):
    """A token relayed between processes, mostly around the ring, now
    and then to a random process (itself included): every receive joins
    the previous hop's send, so the join DAG is one chain -- one join
    per level.  Unrelated compute lands between hops."""
    rng = np.random.default_rng(seed)
    records, seqs = [], {}
    t = 0.0
    holder = 0
    for _ in range(hops):
        nxt = (holder + 1) % nprocs
        if rng.random() < 0.2:
            nxt = int(rng.integers(nprocs))
        seq = seqs.get((holder, nxt), 0)
        seqs[(holder, nxt)] = seq + 1
        t += 1.0
        records.append(_message(len(records), EventKind.SEND, holder, holder,
                                nxt, 0, seq, t, 0.5))
        for _ in range(int(rng.integers(0, 3))):
            t += 1.0
            records.append(_record(len(records), int(rng.integers(nprocs)),
                                   EventKind.COMPUTE, t0=t, t1=t + 2.0))
        t += 1.0
        records.append(_message(len(records), EventKind.RECV, nxt, holder, nxt,
                                0, seq, t, float(rng.integers(1, 3))))
        holder = nxt
    return nprocs, records


@hst.composite
def exchange_records(draw, max_procs=16, max_rounds=5):
    nprocs = draw(hst.integers(2, max_procs))
    offsets = draw(hst.lists(hst.integers(1, nprocs - 1), min_size=1,
                             max_size=min(4, nprocs - 1), unique=True))
    return exchange(nprocs, draw(hst.integers(1, max_rounds)), offsets,
                    draw(hst.integers(0, 2**31)))


@hst.composite
def relay_records(draw, max_procs=8, max_hops=60):
    return relay(draw(hst.integers(1, max_procs)),
                 draw(hst.integers(1, max_hops)), draw(hst.integers(0, 2**31)))


#: every generator: the random adversarial one and the two structured
#: ones (wide join levels; a single chain of width-1 levels)
any_records = hst.one_of(trace_records(), exchange_records(), relay_records())


def build_index(nprocs, records, chunk):
    """The index fed ``records``; ``chunk`` > 0 streams with interleaved
    catch-up queries (incremental path), 0 builds in batch."""
    idx = HistoryIndex(nprocs=nprocs)
    if chunk:
        for lo in range(0, len(records), chunk):
            for rec in records[lo:lo + chunk]:
                idx.extend(rec)
            idx.message_pairs()  # force incremental catch-up paths
            _ = idx.clocks
    else:
        idx.extend_many(records)
    return idx


def assert_matching_equals_oracle(source, records):
    """``source`` (an index or a trace) matches like the oracle."""
    want = oracles.matching(records)
    assert [(p.send.index, p.recv.index) for p in source.message_pairs()] == want.pairs
    assert [r.index for r in source.unmatched_sends()] == want.unmatched_sends
    assert [r.index for r in source.unmatched_recvs()] == want.unmatched_recvs
    return want


def race_key(races):
    return [
        (r.recv.index, r.matched_send.index, [a.index for a in r.alternatives])
        for r in races
    ]


@settings(max_examples=90, deadline=None)
@given(any_records, hst.integers(0, 17))
def test_clocks_and_matching_equal_oracle(tr, chunk):
    nprocs, records = tr
    idx = build_index(nprocs, records, chunk)
    want = assert_matching_equals_oracle(idx, records)
    assert idx.send_of_recv == want.send_of_recv
    np.testing.assert_array_equal(
        idx.clocks, oracles.clocks(records, nprocs, want.send_of_recv)
    )
    # lazy catch-up discipline: extended, never rebuilt
    assert idx.stats().clock_builds == 1
    assert idx.stats().matching_builds == 1


@settings(max_examples=40, deadline=None)
@given(trace_records(), hst.booleans())
def test_trace_matching_equals_oracle(tr, chunked):
    """``Trace.message_pairs()`` / ``unmatched_*()`` delegate to the
    index; on adversarial traces (duplicate keys, stray receives) they
    still follow the oracle's single-pass slot rule, for a bare trace
    and for a snapshot of an index built in chunks."""
    nprocs, records = tr
    if chunked:
        trace = build_index(nprocs, records, 5).trace
    else:
        trace = Trace(records, nprocs)
    assert_matching_equals_oracle(trace, records)


@settings(max_examples=40, deadline=None)
@given(trace_records(), hst.integers(0, 17), hst.data())
def test_window_equals_oracle(tr, chunk, data):
    nprocs, records = tr
    idx = build_index(nprocs, records, chunk)
    t_lo, t_hi = idx.span
    a = data.draw(hst.floats(t_lo - 1.0, t_hi + 1.0, allow_nan=False))
    b = data.draw(hst.floats(t_lo - 1.0, t_hi + 1.0, allow_nan=False))
    for lo, hi in [(min(a, b), max(a, b)), (t_lo, t_hi), (t_hi, t_lo)]:
        assert [r.index for r in idx.window(lo, hi)] == oracles.window(
            records, lo, hi
        )


@settings(max_examples=40, deadline=None)
@given(trace_records(), hst.booleans())
def test_races_equal_oracle(tr, include_tag_wildcards):
    nprocs, records = tr
    idx = build_index(nprocs, records, 0)
    got = detect_races(
        idx.trace, include_tag_wildcards=include_tag_wildcards, index=idx
    )
    want = oracles.races(
        Trace(records, nprocs), include_tag_wildcards=include_tag_wildcards
    )
    assert race_key(got) == race_key(want)


@settings(max_examples=60, deadline=None)
@given(any_records)
def test_critical_path_equals_oracle(tr):
    nprocs, records = tr
    idx = build_index(nprocs, records, 0)
    got = critical_path(idx.trace, index=idx)
    want = oracles.critical_path(records)
    assert [r.index for r in got.records] == [r.index for r in want.records]
    assert got.length == want.length  # bitwise: same sequential additions
    assert got.span == want.span
    assert got.weights == want.weights


@settings(max_examples=40, deadline=None)
@given(any_records, hst.integers(1, 17))
def test_streamed_equals_batch(tr, chunk):
    nprocs, records = tr
    batch = HistoryIndex(records, nprocs=nprocs)
    streamed = HistoryIndex(nprocs=nprocs)
    for lo in range(0, len(records), chunk):
        for rec in records[lo:lo + chunk]:
            streamed.extend(rec)
        streamed.message_pairs()
        _ = streamed.clocks
        t0, t1 = streamed.span
        streamed.window(t0, (t0 + t1) / 2)
    np.testing.assert_array_equal(batch.clocks, streamed.clocks)
    want = assert_matching_equals_oracle(streamed, records)
    assert batch.send_of_recv == streamed.send_of_recv == want.send_of_recv
    assert streamed.stats().clock_builds == 1
    assert streamed.stats().matching_builds == 1
    assert streamed.stats().window_builds == 1


def _split(chunk, groups):
    """Whether a chunk boundary falls inside some group of row indexes."""
    return any(min(g) // chunk != max(g) // chunk for g in groups)


@pytest.mark.parametrize(
    "tr",
    [exchange(8, 3, (1, 3), seed=5), exchange(16, 2, (1, 4, 5, 11), seed=9),
     relay(5, 40, seed=3)],
    ids=["exchange-8", "exchange-16", "relay-5"],
)
def test_streaming_splits_levels_and_messages(tr):
    """Catch-ups that end inside a join level, and between a send and
    its receive, still give the oracle's clocks and critical path."""
    nprocs, records = tr
    want = oracles.matching(records)
    sched = HistoryIndex(records, nprocs=nprocs).join_schedule()
    bounds = sched.bounds.tolist()
    levels = [sched.recv[a:z].tolist() for a, z in zip(bounds, bounds[1:])]
    split_level = [c for c in range(1, 41) if _split(c, levels)]
    split_pair = [c for c in range(1, 41) if _split(c, want.pairs)]
    assert split_pair
    assert split_level or max(map(len, levels)) == 1  # a relay's levels are single joins
    clocks = oracles.clocks(records, nprocs, want.send_of_recv)
    path = oracles.critical_path(records)
    for chunk in sorted(set(split_level[:3] + split_pair[:3])):
        idx = build_index(nprocs, records, chunk)
        np.testing.assert_array_equal(idx.clocks, clocks)
        assert idx.stats().clock_builds == 1
        got = critical_path(idx.trace, index=idx)
        assert [r.index for r in got.records] == [r.index for r in path.records]
        assert (got.length, got.weights) == (path.length, path.weights)
