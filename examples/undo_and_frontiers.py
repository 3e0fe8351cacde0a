#!/usr/bin/env python3
"""Parallel undo and past/future frontiers on the LU pipeline (Figure 8).

Part A drives the §4.2 *undo*: step a pipelined solver forward past the
interesting point, realize it, and undo -- a controlled replay returns
every process to the markers recorded at the previous stop.

Part B reproduces Figure 8: pick an event on a middle rank of the LU
(SSOR) pipeline, compute its past and future frontiers, display the
concurrency region between them, and derive frontier *stoplines*.

Run:  python examples/undo_and_frontiers.py
"""

from __future__ import annotations

from pathlib import Path

from repro.analysis import analyze_frontiers
from repro.apps import LUConfig, lu_program
from repro.debugger import DebugSession, StoplinePlacement
from repro.viz import build_diagram, render_ascii, save_svg

OUT_DIR = Path(__file__).resolve().parent / "output"


def main() -> None:
    cfg = LUConfig(grid=16, nprocs=8, sweeps=3)

    # ==================================================================
    print("=== Part A: parallel undo ===")
    session = DebugSession(lu_program(cfg), 8)
    session.set_threshold(0, 5)
    session.run()
    print("stopped early:   ", dict(session.markers().as_dict()))

    session.set_threshold(0, 15)
    session.cont()
    print("stepped too far: ", dict(session.markers().as_dict()))

    print("undo...")
    session.undo()
    print("back to:         ", dict(session.markers().as_dict()))

    # Finish the run and keep the full trace for Part B.
    session.clear_thresholds()
    session.cont()
    residuals = session.results()[0]
    print(f"solver residual history: {[f'{r:.3f}' for r in residuals]}")
    trace = session.trace()
    session.shutdown()

    # ==================================================================
    print("\n=== Part B: Figure 8 -- frontiers of a selected event ===")
    # The trace's history index holds its vector clocks and matching;
    # every analysis below shares them.
    order = trace.history_index().order
    # "The user clicked at the point indicated by the circle": a receive
    # in the middle of the pipeline.
    target = [r for r in trace.by_proc(4) if r.is_recv][2]
    print(f"selected event: {target}")

    fa = analyze_frontiers(trace, target.index, order)
    print("\nper-process frontiers (times):")
    for p in range(8):
        past = fa.past_frontier.event(p)
        fut = fa.future_frontier.event(p)
        past_s = f"t={past.t1:8.2f}" if past else "   --   "
        fut_s = f"t={fut.t0:8.2f}" if fut else "   --   "
        print(f"  p{p}: last-affecting {past_s}   first-affected {fut_s}")

    conc = fa.concurrency_events()
    print(f"\nconcurrency region: {len(conc)} events between the frontiers")

    diagram = build_diagram(trace)
    diagram.set_frontiers(fa.past_frontier.times(), fa.future_frontier.times())
    print()
    print(render_ascii(diagram, columns=90))

    OUT_DIR.mkdir(exist_ok=True)
    save_svg(diagram, OUT_DIR / "figure8_frontiers.svg")
    print(f"\nSVG written to {OUT_DIR / 'figure8_frontiers.svg'}")

    # Frontier stoplines: the §4.1 alternative placements.
    session2 = DebugSession(lu_program(cfg), 8)
    session2.run()
    for placement in (StoplinePlacement.PAST_FRONTIER, StoplinePlacement.FUTURE_FRONTIER):
        # Re-pick the event against the current (full) trace: each replay
        # truncates history to the stopline, so finish the run first.
        if not session2.finished:
            session2.clear_thresholds()
            session2.cont()
        tr2 = session2.trace()
        target2 = [r for r in tr2.by_proc(4) if r.is_recv][2]
        sl = session2.set_stopline(target2.index, placement)
        print(f"\n{sl.describe()}")
        summary = session2.replay()
        print(f"  replay -> {summary.outcome.value}; markers "
              f"{session2.markers().as_dict()}")
    session2.shutdown()


if __name__ == "__main__":
    main()
