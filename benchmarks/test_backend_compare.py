"""Execution-backend comparison: threaded vs simtime at scale.

The tentpole claim behind the pluggable-backend refactor: both
cooperative backends run the *same* engine (identical schedules,
identical traces -- asserted record-for-record in the conformance
suite), but the threaded backend pays one OS thread per rank plus an
O(nprocs) ``notify_all`` thundering herd on every token handoff, while
simtime uses lazy carriers and O(1) raw-lock handoffs.  At 256 ranks
that difference must be worth **>= 10x** wall-clock on both scaling
workloads (the issue's floor):

* the token ring (pure point-to-point, scheduling-dominated), and
* the 2-D halo-exchange stencil (isend/irecv/waitall + numpy compute).

A 1024-rank stencil trace must additionally complete in single-digit
seconds on simtime -- the "1000+-rank traces are cheap" promise.

Results land in ``benchmarks/results/backend_compare.txt``, with a >2x
regression gate against the committed baseline in
``backend_compare_baseline.json`` (same pattern as the analysis-kernel
and tracefile-v3 gates wired into the CI benchmark smoke job).
"""

from __future__ import annotations

import json
import time

from benchmarks.conftest import RESULTS_DIR, write_artifact
from repro.apps import halo2d_program, reference_halo2d, ring_program
from repro.mp import run_program

NPROCS = 256
RING_ROUNDS = 4
HALO_TILE = 2
HALO_STEPS = 4
BIG_NPROCS = 1024

BASELINE = RESULTS_DIR / "backend_compare_baseline.json"
#: CI regression gate: fail when a measured speedup drops below
#: baseline/REGRESSION_FACTOR or the big-run wall exceeds baseline*factor.
REGRESSION_FACTOR = 2.0
#: absolute floors from the issue.
MIN_SPEEDUP = 10.0
MAX_BIG_WALL = 9.9  # "single-digit seconds" for the 1024-rank trace


def timed_run(prog, nprocs, backend, reps=1):
    """Best-of-``reps`` wall clock; returns (seconds, runtime)."""
    best, rt = float("inf"), None
    for _ in range(reps):
        t0 = time.perf_counter()
        rt = run_program(prog, nprocs=nprocs, backend=backend)
        best = min(best, time.perf_counter() - t0)
    return best, rt


def test_simtime_speedup_and_1024_rank_wall():
    walls = {}
    speedups = {}

    # -- ring: scheduling-dominated point-to-point ---------------------
    ring = ring_program(rounds=RING_ROUNDS)
    expect = float(RING_ROUNDS * sum(range(NPROCS)))
    # threaded is the expensive side: one rep (noise only raises the
    # ratio); simtime is cheap: best-of-2 shields the floor from noise.
    walls["ring_threaded"], rt_t = timed_run(ring, NPROCS, "threaded")
    walls["ring_simtime"], rt_s = timed_run(ring, NPROCS, "simtime", reps=2)
    assert rt_t.results()[0] == expect
    assert rt_s.results()[0] == expect
    speedups["ring"] = walls["ring_threaded"] / walls["ring_simtime"]

    # -- halo2d: nonblocking neighbourhood exchange + compute ----------
    halo = halo2d_program(tile=HALO_TILE, steps=HALO_STEPS)
    ref_sum = float(reference_halo2d(NPROCS, HALO_TILE, HALO_STEPS).sum())
    walls["halo_threaded"], rt_t = timed_run(halo, NPROCS, "threaded")
    walls["halo_simtime"], rt_s = timed_run(halo, NPROCS, "simtime", reps=2)
    for rt in (rt_t, rt_s):
        total = sum(rt.results())
        assert abs(total - ref_sum) < 1e-6 * max(1.0, abs(ref_sum))
    speedups["halo2d"] = walls["halo_threaded"] / walls["halo_simtime"]

    # -- 1024 ranks on simtime alone -----------------------------------
    big = halo2d_program(tile=HALO_TILE, steps=2)
    walls["big_simtime"], rt = timed_run(big, BIG_NPROCS, "simtime")
    assert len(rt.results()) == BIG_NPROCS

    for name in ("ring", "halo2d"):
        assert speedups[name] >= MIN_SPEEDUP, (
            f"simtime speedup on {name}@{NPROCS} is {speedups[name]:.1f}x, "
            f"below the {MIN_SPEEDUP}x floor"
        )
    assert walls["big_simtime"] <= MAX_BIG_WALL, (
        f"1024-rank stencil took {walls['big_simtime']:.1f}s on simtime; "
        f"the issue requires single-digit seconds"
    )

    # -- regression gate against the recorded baseline -----------------
    gate_lines = ["baseline: (none; recorded this run)"]
    if BASELINE.exists():
        baseline = json.loads(BASELINE.read_text())
        gate_lines = []
        for key, measured in (
            ("ring_speedup", speedups["ring"]),
            ("halo2d_speedup", speedups["halo2d"]),
        ):
            floor = baseline[key] / REGRESSION_FACTOR
            gate_lines.append(
                f"baseline {key} {baseline[key]:.1f}x, gate floor {floor:.1f}x"
            )
            assert measured >= floor, (
                f"{key} regressed: {measured:.1f}x measured vs "
                f"{baseline[key]:.1f}x baseline (floor {floor:.1f}x)"
            )
        ceiling = baseline["big_wall_seconds"] * REGRESSION_FACTOR
        gate_lines.append(
            f"baseline 1024-rank wall {baseline['big_wall_seconds']:.2f}s, "
            f"gate ceiling {ceiling:.2f}s"
        )
        assert walls["big_simtime"] <= ceiling, (
            f"1024-rank wall regressed: {walls['big_simtime']:.2f}s vs "
            f"{baseline['big_wall_seconds']:.2f}s baseline "
            f"(ceiling {ceiling:.2f}s)"
        )
    else:
        RESULTS_DIR.mkdir(exist_ok=True)
        BASELINE.write_text(
            json.dumps(
                {
                    "ring_speedup": round(speedups["ring"], 1),
                    "halo2d_speedup": round(speedups["halo2d"], 1),
                    "big_wall_seconds": round(walls["big_simtime"], 2),
                    "nprocs": NPROCS,
                }
            )
            + "\n"
        )

    write_artifact(
        "backend_compare.txt",
        "\n".join(
            [
                f"Execution backends at {NPROCS} ranks "
                f"(same engine, same traces -- see the conformance suite)",
                "",
                f"  ring x{RING_ROUNDS}      : threaded "
                f"{walls['ring_threaded']:6.2f} s | simtime "
                f"{walls['ring_simtime']:6.3f} s | "
                f"{speedups['ring']:5.1f}x (floor {MIN_SPEEDUP}x)",
                f"  halo2d {HALO_TILE}x{HALO_TILE}x{HALO_STEPS} : threaded "
                f"{walls['halo_threaded']:6.2f} s | simtime "
                f"{walls['halo_simtime']:6.3f} s | "
                f"{speedups['halo2d']:5.1f}x (floor {MIN_SPEEDUP}x)",
                "",
                f"  halo2d @ {BIG_NPROCS} ranks on simtime: "
                f"{walls['big_simtime']:.2f} s "
                f"(ceiling {MAX_BIG_WALL}s)",
                "",
                *gate_lines,
            ]
        ),
    )
