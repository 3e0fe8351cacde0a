"""Happens-before over trace events, via vector clocks.

The causality relation the paper's features rest on (§4.1):

* program order: events of one process in trace order;
* message order: a send happens before its matching receive;
* transitive closure of the above.

"The consistency of breakpoints derived from the stopline follows from
the causality of communications in the trace file, i.e., no message was
received before it was sent."

The vector clocks are built by the one clock builder in the package,
:class:`~repro.analysis.history.HistoryIndex` (recording order is a
linearization of happens-before: a receive record is only appended
after its matching send's record exists), and stored as an
``(n_events, nprocs)`` NumPy array for O(1) comparisons and vectorized
past/future closures.  ``trace.history_index().order`` is the
:class:`CausalOrder` of a trace.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.trace.trace import Trace


@dataclass
class CausalOrder:
    """Vector clocks plus comparison/closure queries for one trace.

    ``clocks[i]`` is the vector clock of the record with trace index
    ``i`` (component p = count of events of process p in that record's
    causal past, inclusive).
    """

    trace: Trace
    clocks: np.ndarray  # (n_events, nprocs), dtype int64
    #: per-record proc column (int64); the index hands in its column
    #: store so closure queries never walk the records
    procs: np.ndarray

    # ------------------------------------------------------------------
    # pairwise relations
    # ------------------------------------------------------------------
    def happens_before(self, a: int, b: int) -> bool:
        """Does record ``a`` causally precede record ``b``?  (strict)

        Standard vector-clock test: since every record increments its own
        process component, ``a -> b`` iff b's clock has seen a's own
        component: ``VC[a][proc(a)] <= VC[b][proc(a)]``.
        """
        if a == b:
            return False
        pa = self.trace[a].proc
        return bool(self.clocks[a, pa] <= self.clocks[b, pa])

    def concurrent(self, a: int, b: int) -> bool:
        """Neither ordered: the pair lies in each other's concurrency
        region (the area between the slanted lines of Figure 8)."""
        if a == b:
            return False
        return not self.happens_before(a, b) and not self.happens_before(b, a)

    # ------------------------------------------------------------------
    # closures
    # ------------------------------------------------------------------
    def past(self, e: int) -> np.ndarray:
        """Trace indexes of all events that happen before ``e``.

        "The past of the event is defined as the set of events that are
        guaranteed to have happened before it."
        """
        own = self.clocks[np.arange(len(self.trace)), self.procs]
        mask = own <= self.clocks[e, self.procs]
        mask[e] = False
        return np.nonzero(mask)[0]

    def future(self, e: int) -> np.ndarray:
        """Trace indexes of all events ``e`` happens before.

        "An event is in the future of the current event if the [current
        event] happened before [it]."
        """
        pe = self.trace[e].proc
        mask = self.clocks[:, pe] >= self.clocks[e, pe]
        mask[e] = False
        return np.nonzero(mask)[0]

    def concurrency_region(self, e: int) -> np.ndarray:
        """Events neither in the past nor the future of ``e``."""
        mask = np.ones(len(self.trace), dtype=bool)
        mask[self.past(e)] = False
        mask[self.future(e)] = False
        mask[e] = False
        return np.nonzero(mask)[0]

    # ------------------------------------------------------------------
    def vector_of(self, e: int) -> tuple[int, ...]:
        return tuple(int(x) for x in self.clocks[e])


def check_trace_causality(trace: Trace, index=None) -> Optional[str]:
    """Verify the fundamental invariant: no receive completes before its
    matching send completed (returns a description of the first
    violation, or None).

    This is the property that makes a vertical stopline a consistent cut
    (§4.1: "no message was received before it was sent").  Pass a
    :class:`~repro.analysis.history.HistoryIndex` via ``index=`` to reuse
    an existing matching.
    """
    from .history import ensure_index

    for pair in ensure_index(trace, index=index).message_pairs():
        if pair.recv.t1 < pair.send.t1:
            return (
                f"receive {pair.recv.index} (t1={pair.recv.t1}) completes "
                f"before its send {pair.send.index} (t1={pair.send.t1})"
            )
    return None
