"""Run one benchmark workload and print its metrics as a JSON line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload debug-halo2d --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` prints its per-layer metrics, from a run whose iterations
alternate untraced and traced and which then runs the layer probes.
Spans and the full result are written under ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
#: CPUs the process may use; it measures on the first one only
CPUS = sorted(os.sched_getaffinity(0))
#: Python salts str hashes per process, which moves dict/set layouts
#: and the run phase's timing between processes; a fixed salt narrowed
#: the spread of run medians across processes from ~25% to ~13%.
HASH_SEED = "0"


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path[:0] = [str(HERE), str(ROOT / "src")]
    try:
        import metrics
        import workloads
    except ImportError as exc:
        print(f"perfbench: cannot import the program: {exc}", file=sys.stderr)
        return 2
    spec = metrics.load_spec(ROOT)
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; expected one of "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    workload = workloads.WORKLOADS[args.workload]
    workdir = OUT / f"run-{os.getpid()}"
    # simtime runs one rank at a time, so one debugging session needs one
    # CPU.  With more, every grant may wake the next rank's thread on an
    # idle CPU, and the wall time then measures how fast the host wakes
    # that CPU -- the OS scheduler, not the program.  Threads and child
    # processes inherit the pin.
    os.sched_setaffinity(0, CPUS[:1])
    try:
        run, inputs, setup = workloads.measure(
            workload, args.seed, args.seconds, bool(args.trace), workdir
        )
        e2e = workloads.end_to_end(run, setup)
        raw = workloads.end_to_end(run, setup, at="")
        layer = {}
        if args.trace:
            probe = workloads.pinned_probes(inputs, workdir)
            # the parallel build and readahead exist to use more CPUs
            os.sched_setaffinity(0, CPUS)
            probe.update(workloads.store_probes(workdir))
            layer = workloads.per_layer(run, probe)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    s = run.samples
    counts = {
        "iterations": len(s["iter_s"]) + len(s["traced_iter_s"]),
        "replays": len(s["debugger.replay"]),
        "undos": len(s["debugger.undo"]),
        "queries": len(s["analysis.paged_query"]),
    }
    print(f"workload {args.workload} seed {args.seed}: {counts['iterations']} "
          f"iterations, {run.attempted} checks, {run.failed} failed "
          f"(failed_frac {run.failed / run.attempted:.4f})")
    slowdown = s["host.slowdown"]
    print(f"  host slowdown per iteration: median {statistics.median(slowdown):.3f}, "
          f"range {min(slowdown):.3f}-{max(slowdown):.3f}")
    print(f"  {'metric':18s} {'at ref speed':>14s} {'raw':>14s}")
    for name, value in e2e.items():
        print(f"  {name:18s} {value:14.6g} {raw[name]:14.6g}")
    print(f"  samples: iter_s {len(s['iter_s'])}, replay_s {counts['replays']}, "
          f"undo_s {counts['undos']}, query_ms {counts['queries']}")
    for what in run.failures:
        print(f"FAILED: {what}", file=sys.stderr)

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    OUT.mkdir(exist_ok=True)
    if args.trace:
        run.tracer.write(OUT / f"spans-{tag}.jsonl.gz")
    (OUT / f"result-{tag}.json").write_text(json.dumps({
        "end_to_end": e2e, "end_to_end_raw": raw, "per_layer": layer,
        "samples": counts, "setup": setup, "failures": run.failures,
        "samples_by_name": {k: v for k, v in s.items() if v},
    }, indent=1) + "\n")

    group, values = ("per_layer", layer) if args.trace else ("end_to_end", e2e)
    print(metrics.result_line(spec, group, values, run.attempted, run.failed))
    return 0


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
        os.execve(sys.executable, [sys.executable, *sys.argv], env)
    sys.exit(main(sys.argv[1:]))
