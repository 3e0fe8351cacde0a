"""The benchmark's workloads: one scripted debugging session per
iteration, sized so that a different set of layers carries the time.

Every iteration runs the same six steps a developer takes, one command
after another (a closed loop with one client):

1. **record** -- ``DebugSession.run`` of the target program;
2. **store and answer** -- write the trace, reopen it, build
   ``HistoryIndex.from_file`` and answer clocks, matching, races and the
   critical path (plus frontiers of one event);
3. **look** -- a time-space diagram and a trace graph of the session;
4. **navigate** -- stoplines placed backwards through the history, each
   replayed, then undos;
5. **explore** -- ``repro.explore.explore`` of a schedule-sensitive
   program;
6. **query** -- a forward sweep across the stored trace and random
   seeks through the paged index, in chunks between the navigate
   commands; sampled windows are also asked of the in-memory index.

The workloads differ in sizes only (see :data:`WORKLOADS`).  Every step
runs on every workload so that every metric is measured on every
workload; each workload's ``why`` in ``BENCHMARK.json`` says which steps
carry its time.  Everything runs on the ``simtime`` backend, pinned
explicitly (see ``perfbench/README.md`` for why).
"""

from __future__ import annotations

import gc
import os
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator, Optional

import numpy as np

import storegen
from hostspeed import HostSpeed
from spans import Tracer, layer_self_times, patched, per_root_totals

from repro.analysis.critical_path import critical_path
from repro.analysis.frontiers import analyze_frontiers
from repro.analysis.history import HistoryIndex
from repro.analysis.races import detect_races
from repro.apps.halo2d import halo2d_program, process_grid, reference_halo2d
from repro.apps.schedbug import schedbug_program
from repro.debugger import DebugSession, verify_stopline_consistency
from repro.explore import explore
from repro.graphs.tracegraph import TraceGraph
from repro.instrument.wrappers import WrapperLibrary, lifecycle_wrapper
from repro.mp.runtime import Runtime
from repro.trace import TraceFileReader, TraceRecorder, TraceShardWriter, verify_replay_prefix
from repro.trace.tracefile import save_trace
from repro.viz.timespace import build_diagram

BACKEND = "simtime"
SETUP_REPEATS = 7
PROBE_REPEATS = 3
EXPLORE_DEPTH = 2
#: halo2d's tile edge (cells per rank per axis)
TILE = 2
#: undos after the stoplines of every iteration (fewer than the stoplines)
UNDOS = 5
#: schedbug's task count when it is the record program
SCHEDBUG_TASKS = 48
#: every this many-th query window is also asked of the in-memory index
SAMPLE_EVERY = 5
STORE_SHARDS = 8
STORE_NPROCS = 64
#: the query step's forward sweep and random seeks
SWEEP_WINDOWS = 60
SEEKS = 40
STORE_WILDCARD_SHARE = 0.002
LOCK_ROUNDS = 2000
#: latencies whose percentiles are taken within each iteration (one
#: debugging session) and then averaged over the run's iterations
SESSION_LATENCIES = ("debugger.replay", "debugger.undo", "analysis.paged_query")
#: timings (one per iteration) that are also kept at the reference host
#: speed, as ``<key>@ref``; so are the session percentiles, taken over
#: samples each divided by its own slowdown (see ``hostspeed.py``)
AT_REF = ("iter_s", "answer_s", "debugger.run", "explore.explore")
#: host-speed chunks before and after every set-up
SETUP_CHUNKS = 10

#: expected explore outcome per (nprocs, n_tasks, max_schedules) of
#: ``schedbug_program(mode="unsafe")`` at depth 2, recorded from the
#: code this benchmark was written against.  ``task_cost`` (which the
#: seed sets) scales all compute uniformly and leaves them unchanged.
EXPECTED_EXPLORE = {
    (4, 8, 32): {"explored": 27, "divergent": 27, "deduped": 6, "converged": 5,
                 "pending": 14},
    (8, 16, 128): {"explored": 121, "divergent": 121, "deduped": 6,
                   "converged": 7, "pending": 91},
}
#: rank 0's result of the recorded (run_to_block) schedbug schedule,
#: per nprocs, with ``SCHEDBUG_TASKS`` tasks
EXPECTED_SCHEDBUG_RESULT = {8: 13.468749999999922}


@dataclass(frozen=True)
class Workload:
    name: str
    #: target program of the record/look/navigate steps
    program: str  # "halo2d" or "schedbug"
    nprocs: int
    steps: int = 8
    stoplines: int = 8
    #: the explore step's schedbug size and replay budget
    explore_nprocs: int = 4
    explore_tasks: int = 8
    explore_budget: int = 32
    #: > 0: the store step writes a synthetic trace of about this many
    #: events instead of the session's own trace
    store_events: int = 0


#: Stoplines and ``UNDOS`` come in odd numbers.  Each replay (undo) of
#: an iteration re-executes a different prefix, so their times form one
#: class per stopline (undo); with an odd count an iteration's median is
#: the middle class's sample, not the mean of two unlike classes.
WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("debug-halo2d", "halo2d", 64, steps=8, stoplines=9),
        Workload("explore-schedbug", "schedbug", 8, stoplines=15, explore_nprocs=8,
                 explore_tasks=16, explore_budget=128),
        Workload("store-1m", "halo2d", 16, steps=4, stoplines=7, store_events=125_000),
    )
}


# ----------------------------------------------------------------------
# one run's bookkeeping
# ----------------------------------------------------------------------
class Run:
    """Samples, checks and spans of one benchmark run."""

    def __init__(self, tracer: Tracer, host: HostSpeed) -> None:
        self.tracer = tracer
        self.host = host
        self.samples: dict[str, list[float]] = defaultdict(list)
        #: the (start, end) clock readings of the timed samples, which
        #: give each its host slowdown
        self.when: dict[str, list[tuple[float, float]]] = defaultdict(list)
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        #: time kept out of the timings: checks and host-speed chunks
        self.aside_s = 0.0

    @contextmanager
    def timed(self, layer: str, name: str) -> Iterator[list]:
        """Time one command; its duration becomes a sample of ``name``.
        A host-speed chunk follows it when one is due."""
        with self.tracer.span(layer, name) as box:
            start = time.perf_counter()
            yield box
            end = time.perf_counter()
            self.samples[name].append(end - start)
            self.when[name].append((start, end))
        if self.host.due():
            self.calibrate()

    def calibrate(self) -> None:
        """Run a host-speed chunk, kept out of the timings."""
        start = time.perf_counter()
        with self.tracer.span("host", "host.chunk"):
            self.host.chunk()
        self.aside_s += time.perf_counter() - start

    @contextmanager
    def checking(self) -> Iterator[None]:
        """Correctness checks: their time is kept out of the timings."""
        start = time.perf_counter()
        with self.tracer.span("check", "check"):
            yield
        self.aside_s += time.perf_counter() - start

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)


# ----------------------------------------------------------------------
# inputs (made from the seed; the program sees only these)
# ----------------------------------------------------------------------
@dataclass
class Inputs:
    workload: Workload
    program: Callable[[], object]
    explore_program: Callable[[], object]
    check_results: Callable[[list], bool]
    store: Optional[storegen.SyntheticStore]


def make_inputs(w: Workload, seed: int) -> Inputs:
    cost = 1.0 + 0.5 * (seed % 8)  # schedbug's compute scale
    if w.program == "halo2d":
        grid = reference_halo2d(w.nprocs, TILE, w.steps, seed)
        _, px = process_grid(w.nprocs)
        expected = [
            float(grid[(r // px) * TILE:(r // px + 1) * TILE,
                       (r % px) * TILE:(r % px + 1) * TILE].sum())
            for r in range(w.nprocs)
        ]

        def program():
            return halo2d_program(tile=TILE, steps=w.steps, seed=seed)

        def check_results(results):
            return len(results) == w.nprocs and bool(
                np.allclose(results, expected, rtol=1e-9, atol=1e-12)
            )
    else:
        want = EXPECTED_SCHEDBUG_RESULT[w.nprocs]

        def program():
            return schedbug_program(n_tasks=SCHEDBUG_TASKS, mode="unsafe", task_cost=cost)

        def check_results(results):
            return abs(results[0] - want) <= 1e-9 and all(
                r is None for r in results[1:]
            )

    def explore_program():
        return schedbug_program(n_tasks=w.explore_tasks, mode="unsafe", task_cost=cost)

    store = None
    if w.store_events:
        store = storegen.generate(
            w.store_events, STORE_NPROCS, seed, STORE_WILDCARD_SHARE
        )
    return Inputs(w, program, explore_program, check_results, store)


#: what a fresh interpreter imports before it can run an iteration
IMPORTS = (
    "repro.analysis.critical_path, repro.analysis.frontiers, "
    "repro.analysis.history, repro.analysis.paged, repro.analysis.races, "
    "repro.apps.halo2d, repro.apps.schedbug, repro.debugger, repro.explore, "
    "repro.graphs.tracegraph, repro.trace, repro.viz.timespace"
)


def setup(w: Workload, seed: int) -> Inputs:
    """Import the program in a fresh interpreter (so work moved into
    import time shows), make the inputs, and warm the runtime up with
    one plain run."""
    src = Path(__file__).resolve().parent.parent / "src"
    subprocess.run(
        [sys.executable, "-c", f"import {IMPORTS}"],
        check=True, env=dict(os.environ, PYTHONPATH=str(src)), timeout=120,
    )
    inputs = make_inputs(w, seed)
    rt = Runtime(w.nprocs, backend=BACKEND)
    rt.run(inputs.program())
    rt.shutdown()
    del rt
    gc.collect()  # set-up's garbage is set-up's cost
    return inputs


# ----------------------------------------------------------------------
# one iteration
# ----------------------------------------------------------------------
def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.iterdir())


def _windows(idx: HistoryIndex, rng) -> list[tuple[float, float]]:
    """The sweep's windows, which pan across the whole trace, then the
    random seeks' windows of the same width.  A seek
    starts at a random event, so no seek lands in an idle gap and the
    share of empty windows does not depend on the seed."""
    lo, hi = idx.span
    width = (hi - lo) / SWEEP_WINDOWS
    sweep = [(lo + k * width, lo + (k + 1) * width) for k in range(SWEEP_WINDOWS)]
    t0 = idx.column("t0")
    starts = t0[rng.integers(0, len(t0), SEEKS)]
    return sweep + [(a, a + width) for a in starts.tolist()]


def _store(inputs: Inputs, run: Run, original, path: Path) -> int:
    """Write the store step's trace; returns its event count."""
    if inputs.store is None:
        with run.timed("trace", "trace.write") as box:
            save_trace(original, path)
            box[0] = len(original)
        return len(original)
    block = inputs.store.block
    with run.timed("trace", "trace.write") as box:
        with TraceShardWriter(
            path, nprocs=STORE_NPROCS, by="hash",
            shards=STORE_SHARDS, compression="zlib",
        ) as writer:
            writer.write_columns(block)
        box[0] = len(block)
    return len(block)


def _check_store(inputs: Inputs, run: Run, original, idx: HistoryIndex, races) -> None:
    if inputs.store is None:
        run.check(
            len(idx) == len(original)
            and all(a == b for a, b in zip(idx.records, original.records)),
            "stored trace reads back record for record",
        )
        return
    store = inputs.store
    cols = idx.columns
    same = all(
        np.array_equal(cols[name], store.block.columns[name])
        for name in ("proc", "kind", "t0", "t1", "marker", "src", "dst", "tag", "seq")
    )
    run.check(len(idx) == store.events and same, "store columns read back")
    sor = idx.send_of_recv
    got = np.array(sorted(sor.items()), dtype=np.int64).reshape(-1, 2)
    run.check(
        got.shape == store.pairs.shape
        and storegen.pair_checksum(got) == storegen.pair_checksum(store.pairs),
        "store pair count and checksum",
    )
    run.check(len(races) == store.wildcards, "one race per wildcard receive")


class _Queries:
    """The query step: a forward sweep across the stored trace, then
    random seeks, asked of the paged index in chunks between the
    navigate commands.

    The developer pans a few windows further after each command, so the
    window latencies are sampled across the whole iteration rather than
    in one burst that a passing slow spell of the machine can cover.
    ``expected`` holds the in-memory index's answers for the sampled
    windows, asked right after the answer step so that the in-memory
    index is gone (and its objects no longer lengthen the collector's
    passes) by the time the debugger replays.
    """

    def __init__(self, run: Run, path: Path, windows: list, expected: dict,
                 w: Workload) -> None:
        self.run, self.windows, self.expected = run, windows, expected
        with run.timed("analysis", "analysis.paged_open"):
            self.paged = HistoryIndex.from_file(TraceFileReader(path), paged=True)
        self.chunk = -(-len(windows) // (w.stoplines + UNDOS + 1))
        self.done = 0

    def ask(self, count: Optional[int] = None) -> None:
        run = self.run
        stop = len(self.windows) if count is None else self.done + count
        for n in range(self.done, min(stop, len(self.windows))):
            with run.timed("analysis", "analysis.paged_query"):
                got = self.paged.window(*self.windows[n])
            if n in self.expected:
                with run.checking():
                    run.check(
                        [r.index for r in got] == self.expected[n],
                        f"paged window {n} equals the in-memory window",
                    )
            self.done = n + 1
        # readahead finishes in the developer's think time, before the
        # next command
        self.paged.wait_prefetch(60.0)

    def close(self) -> None:
        stats = self.paged.stats()
        self.paged.close()
        self.run.samples["analysis.paged_hit_rate"].append(stats.hit_rate)
        self.run.samples["analysis.paged_loads"].append(stats.block_loads)


def _in_memory_windows(run: Run, idx: HistoryIndex, windows: list) -> dict[int, list[int]]:
    """Every ``SAMPLE_EVERY``-th window asked of the in-memory index."""
    expected = {}
    for n in range(0, len(windows), SAMPLE_EVERY):
        with run.timed("analysis", "analysis.window"):
            records = idx.window(*windows[n])
        expected[n] = [r.index for r in records]
    return expected


def _answer(run: Run, path: Path) -> tuple[HistoryIndex, list]:
    """Trace on disk to clocks, matching, races and critical path."""
    aside = run.aside_s
    start = time.perf_counter()
    with run.timed("trace", "trace.open"):
        reader = TraceFileReader(path)
    with run.timed("analysis", "analysis.build"):
        idx = HistoryIndex.from_file(reader)
    with run.timed("analysis", "analysis.matching"):
        idx.send_of_recv
    with run.timed("analysis", "analysis.clocks"):
        idx.clocks
    with run.timed("analysis", "analysis.detect_races") as box:
        races = detect_races(idx.trace, index=idx)
        box[0] = len(races)
    with run.timed("analysis", "analysis.critical_path"):
        critical_path(idx.trace, index=idx)
    end = time.perf_counter()
    run.samples["answer_s"].append(end - start - (run.aside_s - aside))
    run.when["answer_s"].append((start, end))
    return idx, races


def _navigate(run: Run, session: DebugSession, original, w: Workload, queries: _Queries) -> None:
    """Stoplines placed backwards through the history, each replayed,
    then undos; a chunk of queries after every command.

    Each stopline is anchored at an event of rank 0 whose marker is a
    falling share of rank 0's last marker.  Rank 0's threshold then
    falls at every step, so no earlier stop is a checkpoint the replay
    could start recording from, and every replay records its whole
    prefix.
    """
    top = max(r.marker for r in original.by_proc(0))
    for k in range(w.stoplines):
        marker = top * (w.stoplines - k) // (w.stoplines + 1)
        anchor = max(
            (r for r in session.trace().by_proc(0) if r.marker <= marker),
            key=lambda r: r.marker,
        )
        with run.timed("debugger", "debugger.stopline"):
            stopline = session.set_stopline(anchor.index)
        with run.checking():
            placed_on = session.index()
            run.check(
                verify_stopline_consistency(placed_on.trace, stopline, index=placed_on),
                f"stopline {k} is a consistent cut",
            )
        with run.timed("debugger", "debugger.replay") as box:
            summary = session.replay()
            box[0] = sum(summary.markers.values())
        with run.checking():
            # processes without a threshold run on until they block;
            # what they did replay must still match the record
            thresholds = stopline.thresholds.as_dict()
            limits = {p: min(thresholds.get(p, m), m) for p, m in summary.markers.items()}
            run.check(
                all(summary.markers[p] == m for p, m in thresholds.items())
                and verify_replay_prefix(original, session.trace(), limits).identical,
                f"replay {k} stops at the stopline and reproduces the record",
            )
        queries.ask(queries.chunk)
    for u in range(UNDOS):
        target_vector = session.stop_history[-2].as_dict()
        with run.timed("debugger", "debugger.undo") as box:
            summary = session.undo()
            box[0] = sum(summary.markers.values())
        with run.checking():
            run.check(summary.markers == target_vector, f"undo {u} reaches its stop")
        queries.ask(queries.chunk)


def _explore(run: Run, inputs: Inputs) -> None:
    w = inputs.workload
    with run.timed("explore", "explore.explore"):
        report = explore(
            inputs.explore_program(), w.explore_nprocs, depth=EXPLORE_DEPTH,
            max_schedules=w.explore_budget, batch="serial",
            backend=BACKEND, replay_backend=BACKEND,
        )
    run.samples["schedules"].append(report.explored)
    run.samples["explore.useful_ratio"].append(
        report.explored / (report.explored + report.converged)
    )
    with run.checking():
        want = EXPECTED_EXPLORE[(w.explore_nprocs, w.explore_tasks, w.explore_budget)]
        got = {
            "explored": report.explored,
            "divergent": report.counts["divergent"],
            "deduped": report.deduped,
            "converged": report.converged,
            "pending": report.pending,
        }
        run.check(got == want, f"explore outcome {got} != expected {want}")


def iteration(inputs: Inputs, run: Run, workdir: Path, rng) -> None:
    """One scripted debugging session (the six steps of the module
    docstring); its time, less the checks', is one ``iter_s`` sample.
    The garbage it leaves is collected inside the timing, so it is not
    the next iteration's cost either."""
    w = inputs.workload
    firsts = {key: len(run.samples[key]) for key in SESSION_LATENCIES}
    start = time.perf_counter()
    aside = run.aside_s
    with run.tracer.span("bench", "iteration"):
        # 1. record
        session = DebugSession(inputs.program(), w.nprocs, backend=BACKEND)
        with run.timed("debugger", "debugger.run"):
            session.run()
        original = session.trace()
        run.samples["events_run"].append(len(original))
        with run.checking():
            run.check(inputs.check_results(session.results()), "program results")

        # 2. store and answer
        if workdir.exists():
            shutil.rmtree(workdir)
        workdir.mkdir(parents=True)
        path = workdir / "trace.rtrace"
        events = _store(inputs, run, original, path)
        run.samples["bytes_per_event"].append(_dir_bytes(workdir) / events)
        idx, races = _answer(run, path)
        with run.timed("analysis", "analysis.frontiers"):
            analyze_frontiers(idx.trace, len(idx) // 2, index=idx)
        with run.checking():
            _check_store(inputs, run, original, idx, races)
        windows = _windows(idx, rng)
        expected = _in_memory_windows(run, idx, windows)
        del idx, races
        # the dropped in-memory index's garbage is the answer step's
        # cost; a session pays for collecting it, so the iteration does
        with run.timed("gc", "gc.collect"):
            gc.collect()

        # 3. look
        with run.timed("analysis", "analysis.session_index"):
            sidx = session.index()
        with run.timed("viz", "viz.diagram"):
            build_diagram(original, index=sidx)
        with run.timed("graphs", "graphs.tracegraph"):
            TraceGraph.from_index(sidx)

        # 4. navigate, with 6. query in between; 5. explore
        queries = _Queries(run, path, windows, expected, w)
        _navigate(run, session, original, w, queries)
        session.shutdown()
        _explore(run, inputs)
        queries.ask()
        queries.close()
        with run.timed("gc", "gc.collect"):
            gc.collect()
    end = time.perf_counter()
    run.samples["iter_s"].append(end - start - (run.aside_s - aside))
    run.when["iter_s"].append((start, end))
    run.samples["trace.bytes"].append(_dir_bytes(workdir))
    run.calibrate()  # the host's speed at the iteration's end
    host = run.host
    run.samples["host.slowdown"].append(host.slowdown(start, end))
    for key in AT_REF:
        run.samples[key + "@ref"].append(
            run.samples[key][-1] / host.slowdown(*run.when[key][-1])
        )
    for key in SESSION_LATENCIES:
        mine = run.samples[key][firsts[key]:]
        when = run.when[key][firsts[key]:]
        at_ref = [t / host.slowdown(a, b) for t, (a, b) in zip(mine, when)]
        for q in (50, 90):
            run.samples[f"{key}.p{q}"].append(float(np.percentile(mine, q)))
            run.samples[f"{key}.p{q}@ref"].append(float(np.percentile(at_ref, q)))


# ----------------------------------------------------------------------
# the traced run's probes
# ----------------------------------------------------------------------
def _interleaved(probes: dict[str, Callable[[], object]]) -> dict[str, float]:
    """Median wall time of each probe.  The probes take turns, so a slow
    spell of the machine hits all of them alike and the figures stay
    comparable side by side."""
    samples: dict[str, list[float]] = {name: [] for name in probes}
    for _ in range(PROBE_REPEATS):
        for name, fn in probes.items():
            gc.collect()  # no probe pays for the garbage of the one before
            start = time.perf_counter()
            fn()
            samples[name].append(time.perf_counter() - start)
    return {name: statistics.median(v) for name, v in samples.items()}


def lock_rtt_us() -> float:
    """Raw two-thread semaphore round trip: the handoff floor."""
    ping, pong = threading.Semaphore(0), threading.Semaphore(0)

    def echo():
        for _ in range(LOCK_ROUNDS):
            ping.acquire()
            pong.release()

    thread = threading.Thread(target=echo)
    thread.start()
    start = time.perf_counter()
    for _ in range(LOCK_ROUNDS):
        ping.release()
        pong.acquire()
    elapsed = time.perf_counter() - start
    thread.join()
    return elapsed / LOCK_ROUNDS * 1e6


def _sweep(path: Path, lo: float, hi: float, prefetch: Optional[int]) -> None:
    paged = HistoryIndex.from_file(
        TraceFileReader(path), paged=True, prefetch_blocks=prefetch
    )
    width = (hi - lo) / SWEEP_WINDOWS
    for k in range(SWEEP_WINDOWS):
        paged.window(lo + k * width, lo + (k + 1) * width)
    paged.close()


def pinned_probes(inputs: Inputs, workdir: Path) -> dict[str, float]:
    """Probes on the one CPU the iterations run on: plain, instrumented
    and session runs of the record program, the raw thread handoff they
    are compared with, and the decode of the last iteration's stored
    trace that ``analysis.build_s`` is compared with."""
    w = inputs.workload
    out: dict[str, float] = {}
    path = workdir / "trace.rtrace"

    grants = events = 0

    def plain():
        nonlocal grants
        rt = Runtime(w.nprocs, backend=BACKEND)
        grants = rt.run(inputs.program()).grants
        rt.shutdown()

    def instrumented():
        nonlocal events
        rt = Runtime(w.nprocs, backend=BACKEND)
        recorder = TraceRecorder(w.nprocs)
        WrapperLibrary(rt, recorder)
        rt.run(inputs.program(), target_wrappers=[lifecycle_wrapper(recorder)])
        rt.shutdown()
        events = recorder.total_recorded

    def session():
        s = DebugSession(inputs.program(), w.nprocs, backend=BACKEND)
        s.run()
        s.shutdown()

    t = _interleaved({
        "plain": plain, "instrumented": instrumented, "session": session,
        "decode": lambda: TraceFileReader(path).read_columns(),
    })
    out["mp.run_s"] = t["plain"]
    out["mp.grants"] = grants
    out["mp.grant_us"] = t["plain"] / grants * 1e6
    out["instrument.overhead_s"] = t["instrumented"] - t["plain"]
    out["instrument.event_us"] = out["instrument.overhead_s"] / events * 1e6
    out["debugger.session_overhead_s"] = t["session"] - t["instrumented"]
    out["trace.decode_s"] = t["decode"]
    out["ref.lock_rtt_us"] = statistics.median(lock_rtt_us() for _ in range(PROBE_REPEATS))
    return out


def store_probes(workdir: Path) -> dict[str, float]:
    """Deferred vs parallel builds, and the sweep with and without
    readahead, over the last iteration's stored trace."""
    out: dict[str, float] = {}
    path = workdir / "trace.rtrace"
    paged = HistoryIndex.from_file(TraceFileReader(path), paged=True)
    nprocs, (lo, hi) = paged.nprocs, paged.span
    paged.close()

    def deferred():
        index = HistoryIndex(nprocs=nprocs)
        index.extend_columns(TraceFileReader(path).read_columns(), defer_records=True)

    t = _interleaved({
        "deferred": deferred,
        "parallel": lambda: HistoryIndex.from_file(TraceFileReader(path), parallel=2),
        "sweep": lambda: _sweep(path, lo, hi, None),
        "sweep_noprefetch": lambda: _sweep(path, lo, hi, 0),
    })
    out["analysis.build_deferred_s"] = t["deferred"]
    out["analysis.build_parallel_s"] = t["parallel"]
    out["analysis.sweep_s"] = t["sweep"]
    out["analysis.sweep_noprefetch_s"] = t["sweep_noprefetch"]
    return out


# ----------------------------------------------------------------------
# a whole run
# ----------------------------------------------------------------------
def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(
    w: Workload, seed: int, seconds: float, traced: bool, workdir: Path
) -> tuple[Run, Inputs, dict[str, float]]:
    """Set up, warm up, then iterate for ``seconds``.  With ``traced``
    the iterations alternate untraced and traced (at least one of each)
    so the tracing overhead is measured within the run.

    Returns the run, the inputs and the median set-up time, raw
    (``"setup_s"``) and at the reference host speed
    (``"setup_s@ref"``).  That median is over ``SETUP_REPEATS`` set-ups:
    the one the run needs, and the others spread evenly between the
    iterations, so that they meet the same slow and fast spells of the
    machine as the iterations do rather than one spell at the start.
    Each set-up is bracketed by ``SETUP_CHUNKS`` host-speed chunks on
    either side, which give its slowdown."""
    host = HostSpeed()
    setups: list[float] = []
    setups_at_ref: list[float] = []

    def timed_setup() -> Inputs:
        for _ in range(SETUP_CHUNKS):
            host.chunk()
        start = time.perf_counter()
        made = setup(w, seed)
        end = time.perf_counter()
        for _ in range(SETUP_CHUNKS):
            host.chunk()
        setups.append(end - start)
        setups_at_ref.append(setups[-1] / host.slowdown(start, end))
        return made

    try:
        inputs = timed_setup()
        # one untimed iteration first: lazy imports, caches and the
        # machine's clock settle; its checks still count
        warm = Run(Tracer(), host)
        iteration(inputs, warm, workdir, np.random.default_rng(seed))
        run = Run(Tracer(), host)
        run.attempted, run.failed, run.failures = warm.attempted, warm.failed, warm.failures
        rng = np.random.default_rng(seed)
        start = time.perf_counter()
        i = 0
        while True:
            on = traced and i % 2 == 1
            if on:
                run.tracer.enabled = True
                with patched(run.tracer):
                    iteration(inputs, run, workdir, rng)
                run.tracer.enabled = False
                run.samples["traced_iter_s"].append(run.samples["iter_s"].pop())
                run.samples["iter_s@ref"].pop()
            else:
                iteration(inputs, run, workdir, rng)
            i += 1
            done = time.perf_counter() - start - sum(setups[1:])
            if len(setups) < SETUP_REPEATS and done >= seconds * len(setups) / SETUP_REPEATS:
                timed_setup()
            if done >= seconds and (not traced or i >= 2):
                break
        while len(setups) < SETUP_REPEATS:
            timed_setup()
    finally:
        host.close()
    med = statistics.median
    return run, inputs, {"setup_s": med(setups), "setup_s@ref": med(setups_at_ref)}


def end_to_end(run: Run, setup: dict[str, float], at: str = "@ref") -> dict[str, float]:
    """The end-to-end metrics.  Timings are at the reference host speed
    (``at="@ref"``, what the benchmark reports) or raw (``at=""``)."""
    s = run.samples
    med = statistics.median
    # The machine this was tuned on switches between a fast and a ~1.6x
    # slower state every few seconds, and the share of slow time varies
    # from run to run.  A percentile pooled over a run's samples jumps
    # between the states' values as that share crosses the percentile;
    # a session's percentile (one iteration, mostly one state) averaged
    # over the run's sessions, a mean and a rate move in proportion to
    # it.  Computed both ways from one batch of ten runs per workload,
    # the pooled p50/p90 spread up to 0.30 and the averaged ones 0.20.
    pct = lambda key, q: statistics.fmean(s[f"{key}.p{q}{at}"])  # noqa: E731
    return {
        "setup_s": setup["setup_s" + at],
        "iter_s.p50": med(s["iter_s" + at]),
        "run_eps": sum(s["events_run"]) / sum(s["debugger.run" + at]),
        "replay_s.p50": pct("debugger.replay", 50),
        "replay_s.p90": pct("debugger.replay", 90),
        "undo_s.p50": pct("debugger.undo", 50),
        "answer_s": statistics.fmean(s["answer_s" + at]),
        "query_ms.p50": pct("analysis.paged_query", 50) * 1e3,
        "query_ms.p90": pct("analysis.paged_query", 90) * 1e3,
        "schedules_per_s": sum(s["schedules"]) / sum(s["explore.explore" + at]),
        "bytes_per_event": med(s["bytes_per_event"]),
        "peak_rss_mb": peak_rss_mb(),
        "ok_frac": 1.0 - run.failed / run.attempted,
    }


LAYERS = ("mp", "instrument", "trace", "analysis", "debugger", "explore", "viz",
          "graphs", "gc", "bench")


def per_layer(run: Run, probe: dict[str, float]) -> dict[str, float]:
    spans = run.tracer.spans
    med = statistics.median

    def per_call(name: str) -> float:
        return med(s.duration for s in spans if s.name == name)

    def per_iter(name: str) -> list[tuple[float, int]]:
        return per_root_totals(spans, "iteration", name)

    layer_rows = layer_self_times(spans, "iteration", absorb=("check",))
    out = {
        f"layer.{layer}.self_s": med(row.get(layer, 0.0) for row in layer_rows)
        for layer in LAYERS
    }
    # checks and host-speed chunks are kept out of the iteration's time
    sums = [sum(v for k, v in row.items() if k not in ("check", "host"))
            for row in layer_rows]
    untraced = med(run.samples["iter_s"])
    out["tracing.layer_sum_s"] = med(sums)
    out["tracing.untraced_iter_s"] = untraced
    out["tracing.overhead_s"] = med(run.samples["traced_iter_s"]) - untraced
    out["tracing.spans"] = len(spans) / len(layer_rows)
    out["host.slowdown"] = med(run.samples["host.slowdown"])

    replay = per_iter("debugger.replay")
    writes = per_iter("trace.write")
    races = per_iter("analysis.detect_races")
    out.update({
        "debugger.stopline_s": per_call("debugger.stopline"),
        "debugger.replayed_events": med(n for _, n in replay),
        "debugger.replay_event_us": med(t / n for t, n in replay) * 1e6,
        "debugger.undo_s": per_call("debugger.undo"),
        "trace.write_s": per_call("trace.write"),
        "trace.write_eps": med(n / t for t, n in writes),
        "trace.bytes": med(run.samples["trace.bytes"]),
        "trace.open_s": per_call("trace.open"),
        "analysis.build_s": per_call("analysis.build"),
        "analysis.clocks_s": per_call("analysis.clocks"),
        "analysis.matching_s": per_call("analysis.matching"),
        "analysis.races_s": med(t for t, _ in races),
        "analysis.races_found": med(n for _, n in races),
        "analysis.critical_path_s": per_call("analysis.critical_path"),
        "analysis.frontiers_s": per_call("analysis.frontiers"),
        "analysis.window_s": med(t for t, _ in per_iter("analysis.window")),
        "analysis.paged_query_ms": per_call("analysis.paged_query") * 1e3,
        "analysis.paged_hit_rate": med(run.samples["analysis.paged_hit_rate"]),
        "analysis.paged_loads": med(run.samples["analysis.paged_loads"]),
        "explore.base_s": per_call("explore.base"),
        "explore.job_s": per_call("explore.job"),
        "explore.useful_ratio": med(run.samples["explore.useful_ratio"]),
        "viz.diagram_s": per_call("viz.diagram"),
        "graphs.tracegraph_s": per_call("graphs.tracegraph"),
    })
    out.update(probe)
    # both on the same single CPU: from_file's shard fan-out there gets
    # no more CPUs than the decode probe did
    out["analysis.ingest_s"] = out["analysis.build_s"] - out["trace.decode_s"]
    return out
