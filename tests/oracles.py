"""Scalar reference implementations of the analysis kernels.

``repro.analysis`` ships exactly one implementation of each derived
concept -- the vectorized :class:`~repro.analysis.history.HistoryIndex`
kernels for matching, vector clocks and time windows, plus the columnar
race-detection and critical-path kernels.  The functions here are the
per-record Python versions of the same algorithms, written for clarity,
not speed.  Tests assert production output equal to them (exactly:
integer clocks, index lists, bitwise float path lengths), and the
analysis-kernel benchmark times production against them.

Every function takes a positional record list (``records[i].index ==
i``) and works in one batch pass; production state built incrementally
must equal it.  The module imports only numpy and ``repro``, so the
benchmark jobs can use it without the test-only dependencies.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Sequence

import numpy as np

from repro.analysis.causality import CausalOrder
from repro.analysis.critical_path import ZERO_WEIGHT_KINDS, CriticalPath
from repro.analysis.races import MessageRace, _posted_pattern, is_wildcard_recv
from repro.mp.datatypes import ANY_SOURCE, ANY_TAG
from repro.trace.events import TraceRecord
from repro.trace.trace import Trace


class Matching(NamedTuple):
    """Send/receive matching of one history, by record index."""

    #: (send, recv) pairs in receive order
    pairs: list[tuple[int, int]]
    #: sends still open at the end of the history, in trace order
    unmatched_sends: list[int]
    #: receives that found no open send, in trace order
    unmatched_recvs: list[int]
    #: recv index -> matched send index
    send_of_recv: dict[int, int]


def matching(records: Sequence[TraceRecord]) -> Matching:
    """Single-pass matching by (src, dst, tag, seq) key.

    A send opens its key's slot (a later send with the same key
    overwrites it); a receive takes the open send of its key or, when
    none is open, is unmatched.  Under MPI non-overtaking keys are
    unique and a receive is recorded after its send, so this is the
    plain pairing; the slot rule pins the answer on synthetic traces
    that break either property.
    """
    open_sends: dict[tuple[int, int, int, int], int] = {}
    pairs: list[tuple[int, int]] = []
    unmatched_recvs: list[int] = []
    for rec in records:
        if rec.is_send:
            open_sends[rec.message_key()] = rec.index
        elif rec.is_recv:
            s = open_sends.pop(rec.message_key(), None)
            if s is None:
                unmatched_recvs.append(rec.index)
            else:
                pairs.append((s, rec.index))
    return Matching(
        pairs=pairs,
        unmatched_sends=sorted(open_sends.values()),
        unmatched_recvs=unmatched_recvs,
        send_of_recv={r: s for s, r in pairs},
    )


def clocks(
    records: Sequence[TraceRecord], nprocs: int, send_of_recv: dict[int, int]
) -> np.ndarray:
    """The (n, nprocs) vector-clock matrix, one record at a time.

    Every record ticks its own process's component; a matched receive
    also joins its send's clock.  Trace order is a causal linearization,
    so the send's row is final when its receive is visited.
    """
    out = np.zeros((len(records), nprocs), dtype=np.int64)
    current = np.zeros((nprocs, nprocs), dtype=np.int64)
    for rec in records:
        p = rec.proc
        row = current[p]
        row[p] += 1
        s = send_of_recv.get(rec.index)
        if s is not None:
            np.maximum(row, out[s], out=row)
        out[rec.index] = row
    return out


def causal_order(trace: Trace) -> CausalOrder:
    """A :class:`CausalOrder` over ``trace`` built from the oracle clocks."""
    m = matching(trace)
    return CausalOrder(
        trace=trace,
        clocks=clocks(trace, trace.nprocs, m.send_of_recv),
        procs=np.array([r.proc for r in trace], dtype=np.int64),
    )


def window(records: Sequence[TraceRecord], t_lo: float, t_hi: float) -> list[int]:
    """Indexes of the records overlapping [t_lo, t_hi], by full scan."""
    return [r.index for r in records if r.t1 >= t_lo and r.t0 <= t_hi]


def races(
    trace: Trace,
    include_tag_wildcards: bool = True,
    *,
    order: Optional[CausalOrder] = None,
    match: Optional[Matching] = None,
) -> list[MessageRace]:
    """Message races by one ``happens_before`` test per (receive, send).

    A send ``s2`` races with wildcard receive ``r`` (matched to ``s``)
    when ``s2 != s`` targets ``r``'s process, fits the posted
    (source, tag) pattern, and ``r`` does not happen before ``s2``.
    ``order`` and ``match`` are derived when not passed in.
    """
    if order is None:
        order = causal_order(trace)
    if match is None:
        match = matching(trace)
    pairs = {r: trace[s] for s, r in match.pairs}
    sends = [r for r in trace if r.is_send]
    out: list[MessageRace] = []
    for rec in trace:
        if not rec.is_recv or not is_wildcard_recv(rec):
            continue
        psrc, ptag = _posted_pattern(rec)
        if psrc != ANY_SOURCE and not include_tag_wildcards:
            continue
        matched = pairs.get(rec.index)
        if matched is None:
            continue
        alternatives = []
        for s2 in sends:
            if s2.index == matched.index or s2.dst != rec.proc:
                continue
            if psrc not in (ANY_SOURCE, s2.src):
                continue
            if ptag not in (ANY_TAG, s2.tag):
                continue
            if not order.happens_before(rec.index, s2.index):
                alternatives.append(s2)
        if alternatives:
            out.append(
                MessageRace(recv=rec, matched_send=matched, alternatives=alternatives)
            )
    return out


def critical_path(
    records: Sequence[TraceRecord], *, match: Optional[Matching] = None
) -> CriticalPath:
    """Longest weighted causal chain, one DP step per record.

    Trace order is a topological order of the happens-before DAG.  A
    record's weight is its duration, zero for aggregate/wait kinds; a
    matched receive weighs only the part after its send completed, an
    unmatched one nothing.  Ties keep the program-order predecessor (a
    send edge wins only when strictly longer), and the path ends at the
    first record of maximal distance.  ``match`` is derived when not
    passed in.
    """
    n = len(records)
    if n == 0:
        return CriticalPath([], 0.0, 0.0, [])
    if match is None:
        match = matching(records)
    send_of_recv = match.send_of_recv

    def work(rec: TraceRecord) -> float:
        if rec.is_recv:
            s = send_of_recv.get(rec.index)
            if s is None:
                return 0.0
            return max(0.0, rec.t1 - max(records[s].t1, rec.t0))
        if rec.kind in ZERO_WEIGHT_KINDS:
            return 0.0
        return rec.duration

    dist = [0.0] * n  # longest path ending at record i (inclusive)
    pred = [-1] * n
    last_on_proc: dict[int, int] = {}
    for rec in records:
        i = rec.index
        w = work(rec)
        best, best_pred = w, -1
        j = last_on_proc.get(rec.proc, -1)
        if j >= 0 and dist[j] + w > best:
            best, best_pred = dist[j] + w, j
        s = send_of_recv.get(i)
        if s is not None:
            cand = dist[s] + max(0.0, rec.t1 - max(records[s].t1, rec.t0))
            if cand > best:
                best, best_pred = cand, s
        dist[i] = best
        pred[i] = best_pred
        last_on_proc[rec.proc] = i

    end = max(range(n), key=lambda i: dist[i])
    path = []
    i = end
    while i >= 0:
        path.append(records[i])
        i = pred[i]
    path.reverse()
    span = max(r.t1 for r in records) - min(r.t0 for r in records)
    return CriticalPath(
        records=path, length=dist[end], span=span, weights=[work(r) for r in path]
    )
