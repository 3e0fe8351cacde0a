"""Figure 8: "Past and future frontiers of a time point in a specific
processor ... The concurrency region is shown between the slanted black
lines."

The workload is the NAS-LU-like pipelined SSOR solver (the paper used a
NAS Parallel Benchmark LU trace).  The benchmark selects an event on a
middle rank (the user's circled click), computes the past/future
frontiers and the concurrency region between them, regenerates the
timeline with the slanted frontier overlays, and asserts the geometry:
frontiers are consistent cuts, the region lies between them, and it
*widens with pipeline distance* from the selected processor -- the
slant of Figure 8's black lines.
"""

from __future__ import annotations

from repro.analysis import analyze_frontiers, is_consistent_frontier
from repro.apps import LUConfig, lu_program
from repro.viz import build_diagram, render_ascii, render_svg
from tests import oracles

from .conftest import RESULTS_DIR, write_artifact
from .conftest import traced_run

NPROCS = 8
CENTER = 4


def test_fig8_frontiers(benchmark):
    # residual_every=0: pure pipeline, no mid-run global reductions
    # (those would synchronize everything and flatten the region).
    cfg = LUConfig(grid=16, nprocs=NPROCS, sweeps=3, residual_every=0)
    _, trace = traced_run(lu_program(cfg), NPROCS)
    target = [r for r in trace.by_proc(CENTER) if r.is_recv][2]

    analysis = benchmark(lambda: analyze_frontiers(trace, target.index))
    # the frontier geometry is checked against the scalar oracle's
    # clocks, built independently of the index the analysis used
    order = oracles.causal_order(trace)

    # --- artifact -------------------------------------------------------------
    rows = [f"selected event: {target}"]
    for p in range(NPROCS):
        past = analysis.past_frontier.event(p)
        fut = analysis.future_frontier.event(p)
        rows.append(
            f"  p{p}: past={'t%.2f' % past.t1 if past else '--':>9} "
            f"future={'t%.2f' % fut.t0 if fut else '--':>9}"
        )
    conc = analysis.concurrency_events()
    rows.append(f"concurrency region: {len(conc)} events")
    diagram = build_diagram(trace)
    diagram.set_frontiers(
        analysis.past_frontier.times(), analysis.future_frontier.times()
    )
    rows.append("")
    rows.append(render_ascii(diagram, columns=100))
    write_artifact("fig8_frontiers.txt", "\n".join(rows))
    (RESULTS_DIR / "fig8_frontiers.svg").write_text(render_svg(diagram))

    # --- frontier correctness ---------------------------------------------------
    assert is_consistent_frontier(
        trace, analysis.past_frontier.indexes(), order, inclusive=True
    )
    assert is_consistent_frontier(
        trace, analysis.future_frontier.indexes(), order, inclusive=False
    )
    for p in range(NPROCS):
        past = analysis.past_frontier.event(p)
        fut = analysis.future_frontier.event(p)
        if past is not None:
            assert order.happens_before(past.index, target.index)
        if fut is not None:
            assert order.happens_before(target.index, fut.index)

    # Concurrency region lies strictly between the frontiers.
    past_set = set(order.past(target.index))
    future_set = set(order.future(target.index))
    for rec in conc:
        assert rec.index not in past_set and rec.index not in future_set

    # --- the slant: the region widens with pipeline distance --------------------
    # Width in virtual time between frontier *completions* (a blocked
    # receive's start time predates its causal trigger, so t1 is the
    # causally meaningful coordinate), and in event counts.
    def region_width(p: int) -> float:
        past = analysis.past_frontier.event(p)
        fut = analysis.future_frontier.event(p)
        lo = past.t1 if past else trace.span[0]
        hi = fut.t1 if fut else trace.span[1]
        return hi - lo

    def region_events(p: int) -> int:
        return sum(1 for r in conc if r.proc == p)

    # The selected processor's own events are totally ordered with the
    # selection: nothing of its own is concurrent.
    assert region_events(CENTER) == 0
    # Distant stages have genuinely concurrent work (the wavefront).
    assert region_events(NPROCS - 1) > 0 and region_events(0) > 0
    assert region_width(NPROCS - 1) >= region_width(CENTER + 1)

    # The slanted black lines: moving away from the selected processor,
    # the last-affecting (past-frontier) time falls and the
    # first-affected (future-frontier) time rises, on both sides.
    past_t = {p: e.t1 for p, e in analysis.past_frontier.events.items() if e}
    fut_t = {p: e.t1 for p, e in analysis.future_frontier.events.items() if e}
    below = [p for p in range(CENTER, NPROCS) if p in past_t]
    for a, b in zip(below, below[1:]):
        assert past_t[b] <= past_t[a] + 1e-9, f"past frontier slants down {a}->{b}"
    below_f = [p for p in range(CENTER, NPROCS) if p in fut_t]
    for a, b in zip(below_f, below_f[1:]):
        assert fut_t[b] >= fut_t[a] - 1e-9, f"future frontier slants up {a}->{b}"
