"""Critical-path analysis over the happens-before DAG.

The longest causal chain through the trace bounds the execution's
makespan: no scheduling or overlap can make the run shorter than its
critical path.  Identifying it tells the user *which* dependency chain
(computes and message hops) to attack -- the quantitative companion to
eyeballing the time-space diagram's dominant diagonal.

Edges and weights:

* program order: consecutive records of one process, weighted by the
  later record's duration (plus any idle gap in between -- idle gaps are
  *not* on the critical path, so they carry zero weight);
* message order: a send's record to its receive's record, weighted by
  the transfer portion of the receive (completion minus send time).

A receive's own weight is that same transfer portion: its bar includes
time spent waiting for the message, which is not work on this chain.
An unmatched (deadlocked) receive and the aggregate/wait kinds of
:data:`ZERO_WEIGHT_KINDS` weigh nothing.

The path is a longest-path DP over the happens-before DAG.  Its one
implementation, :func:`_critical_path`, runs one numpy pass per level
of the receive-join DAG (the index's
:class:`~repro.analysis.history.JoinSchedule`, shared with the clock
kernel), so Python-level work is O(levels), not O(messages);
``tests/oracles.py`` keeps a per-record version in trace order (a
topological order: receives are recorded after their sends, per-process
order is program order) that the tests hold it bitwise equal to.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Optional

import numpy as np

from repro.trace.columnar import KIND_CODES
from repro.trace.events import COLLECTIVE_KINDS, EventKind, TraceRecord
from repro.trace.trace import Trace

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .history import HistoryIndex

#: kinds whose records carry zero path weight: aggregate/wait records
#: overlap their constituent point-to-point events (which carry the
#: weight) and include wait time.
ZERO_WEIGHT_KINDS = frozenset(COLLECTIVE_KINDS) | {
    EventKind.WAIT,
    EventKind.WAITALL,
    EventKind.WAITANY,
    EventKind.SENDRECV,
    EventKind.TEST,
}
#: kind code -> weighs nothing by kind: the zero-weight kinds, and
#: receives (a matched one gets its transfer weight back)
_ZERO_BY_KIND = np.zeros(256, dtype=bool)
_ZERO_BY_KIND[[KIND_CODES[k] for k in ZERO_WEIGHT_KINDS | {EventKind.RECV}]] = True


@dataclass
class CriticalPath:
    """The longest weighted causal chain of a trace."""

    records: list[TraceRecord]
    length: float
    #: total duration of all events on every process (for the ratio)
    span: float
    #: effective work weight of each path record (blocked receive time
    #: excluded), parallel to ``records``
    weights: list[float] = None  # type: ignore[assignment]

    @property
    def dominance(self) -> float:
        """Path length / trace span: near 1.0 means fully serialized."""
        return self.length / self.span if self.span > 0 else 0.0

    def hops(self) -> int:
        """How many times the path crosses processes (message edges)."""
        return sum(
            1
            for a, b in zip(self.records, self.records[1:])
            if a.proc != b.proc
        )

    def as_text(self, limit: int = 30) -> str:
        lines = [
            f"critical path: {self.length:.2f} time units over "
            f"{len(self.records)} events, {self.hops()} message hops, "
            f"dominance {self.dominance:.2f}"
        ]
        shown = self.records if len(self.records) <= limit else (
            self.records[: limit // 2] + self.records[-limit // 2:]
        )
        skipped = len(self.records) - len(shown)
        for i, rec in enumerate(shown):
            if skipped and i == limit // 2:
                lines.append(f"  ... {skipped} events ...")
            lines.append(f"  {rec}")
        return "\n".join(lines)


def critical_path(
    trace: "Trace | Iterable[TraceRecord]",
    index: "Optional[HistoryIndex]" = None,
) -> CriticalPath:
    """Longest path through the happens-before DAG of the trace.

    Accepts a materialized :class:`Trace` or any record iterator (the
    streaming consumers hand a file reader's stream straight in).  The
    join schedule and span come from the shared
    :class:`~repro.analysis.history.HistoryIndex`.

    The DP runs over the index's column store (see
    :func:`_critical_path`).  Wall-clock time is reported into the
    index's per-kernel stats (``critical_path``).
    """
    from .history import ensure_index

    idx = ensure_index(trace, index=index)
    start = time.perf_counter()
    try:
        return _critical_path(idx)
    finally:
        idx.record_kernel("critical_path", time.perf_counter() - start)


def _critical_path(idx: "HistoryIndex") -> CriticalPath:
    """The longest-path DP, one numpy pass per level of the receive-join
    DAG (:class:`~repro.analysis.history.JoinSchedule`).

    Between receive joins a process's DP is a pure running sum (every
    weight and distance is non-negative, so the program-order candidate
    always wins or ties the fresh-start one).  Each segment -- a join
    row and the rows after it up to the process's next join, or a
    process's rows before its first join after a virtual 0.0 -- is one
    row of a padded 2-D block, one block per level, all blocks in one
    flat buffer that holds every row's distance.  Level 0 (the base
    segments) is one ``np.add.accumulate(axis=1)``; each later level
    sets its join distances -- the larger of the program and the send
    candidate -- then accumulates its block.  Accumulation adds
    sequentially along each row, so distances are bitwise those of a
    per-record loop.  Predecessors follow from the final distances in
    one vectorized pass under the fixed tie-break (program first, the
    send wins only strictly).  A level holds at most one segment per
    process and its block is as wide as its longest segment, so the
    buffer has at most p x (n + p) cells -- the clock matrix's size.
    """
    trace = idx.trace
    n = len(trace)
    if n == 0:
        return CriticalPath([], 0.0, 0.0, [])
    sched = idx.join_schedule()
    nprocs = idx.nprocs
    t0 = idx.column("t0")
    t1 = idx.column("t1")
    proc = idx.column("proc")

    # --- weights, vectorized ------------------------------------------
    recv, send = sched.recv, sched.send
    w = t1 - t0
    w[_ZERO_BY_KIND[idx.column("kind")]] = 0.0
    w[recv] = np.maximum(0.0, t1[recv] - np.maximum(t1[send], t0[recv]))

    # --- buffer layout: level blocks of padded segment rows -----------
    seg, rank = sched.seg, sched.rank
    nseg = nprocs + recv.size
    # cells per segment: its rows, plus the virtual 0.0 of a base segment
    cells = np.bincount(seg, minlength=nseg)
    cells[:nprocs] += 1
    seg_bounds = np.concatenate(([0], nprocs + sched.bounds))
    per_level = seg_bounds[1:] - seg_bounds[:-1]
    width = np.maximum.reduceat(cells, seg_bounds[:-1])
    offsets = np.zeros(per_level.size + 1, dtype=np.int64)
    np.cumsum(per_level * width, out=offsets[1:])
    first_cell = offsets[:-1].repeat(per_level) + (
        np.arange(nseg) - seg_bounds[:-1].repeat(per_level)
    ) * width.repeat(per_level)
    # a row's cell: its segment's first cell plus its place in the
    # segment, after the virtual 0.0 in a base segment
    start_rank = np.full(nseg, -1, dtype=np.int64)
    start_rank[nprocs:] = rank[recv]
    cell = (first_cell - start_rank)[seg] + rank
    buf = np.zeros(int(offsets[-1]), dtype=np.float64)
    buf[cell] = w
    base = buf[: offsets[1]].reshape(nprocs, width[0])
    np.add.accumulate(base, axis=1, out=base)

    # --- one pass per join level --------------------------------------
    # previous row in program order (-1 at a process's first row); a
    # join without one reads its base segment's virtual 0.0
    order, starts = sched.order, sched.starts
    prev_row = np.empty(n, dtype=np.int64)
    prev_row[order[1:]] = order[:-1]
    prev_row[order[starts[:-1][sched.per_proc > 0]]] = -1
    if recv.size:
        join_prev = prev_row[recv]
        prev_cell = np.where(
            join_prev >= 0, cell[join_prev], first_cell[proc[recv]]
        )
        parents = sched.interleave(prev_cell, cell[send])
        w_join = sched.interleave(w[recv], w[recv])
        offsets_l = offsets.tolist()
        width_l = width.tolist()
        a = 0
        for lev, z in enumerate(sched.bounds[1:].tolist(), start=1):
            cand = buf.take(parents[2 * a: 2 * z])
            cand += w_join[2 * a: 2 * z]
            k = z - a
            o = offsets_l[lev]
            wl = width_l[lev]
            if wl == 1:
                np.maximum(cand[:k], cand[k:], out=buf[o: o + k])
            else:
                blk = buf[o: o + k * wl].reshape(k, wl)
                np.maximum(cand[:k], cand[k:], out=blk[:, 0])
                np.add.accumulate(blk, axis=1, out=blk)
            a = z

    dist = buf[cell]
    # the program edge is taken only when strictly better than a fresh
    # start; a join takes its send edge only when strictly better still
    pred = np.where(dist > w, prev_row, -1)
    if recv.size:
        by_prev = buf[prev_cell] + w[recv]
        by_send = buf[cell[send]] + w[recv]
        pred[recv] = np.where(by_send > by_prev, send, pred[recv])

    end = int(np.argmax(dist))  # the first maximum
    path = []
    i = end
    while i >= 0:
        path.append(trace[i])
        i = int(pred[i])
    path.reverse()
    t_lo, t_hi = idx.span
    return CriticalPath(
        records=path,
        length=float(dist[end]),
        span=t_hi - t_lo,
        weights=[float(w[rec.index]) for rec in path],
    )


def slack_per_process(
    trace: Trace,
    path: "CriticalPath | None" = None,
    index: "Optional[HistoryIndex]" = None,
) -> dict[int, float]:
    """Per-process slack: how much of the run each process spent NOT on
    the critical path (a target ranking for load balancing)."""
    from .history import ensure_index

    idx = ensure_index(trace, index=index)
    trace = idx.trace
    if path is None:
        path = critical_path(trace, index=idx)
    on_path: dict[int, float] = {p: 0.0 for p in range(trace.nprocs)}
    for rec, w in zip(path.records, path.weights):
        on_path[rec.proc] += w
    t_lo, t_hi = idx.span
    total = t_hi - t_lo
    return {p: max(0.0, total - on_path[p]) for p in range(trace.nprocs)}
