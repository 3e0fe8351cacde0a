"""Tiny-size runs of every workload: all checks pass and every declared
metric is produced, untraced and traced."""

import dataclasses
from pathlib import Path

import pytest

import workloads
from metrics import load_spec, result_line

ROOT = Path(__file__).resolve().parents[2]

#: each workload shrunk to well under a second per iteration, keeping
#: the explore sizes the benchmark has expected outcomes for
TINY = {
    "debug-halo2d": dict(nprocs=16, steps=4, stoplines=6),
    "explore-schedbug": dict(stoplines=6, explore_nprocs=4,
                             explore_tasks=8, explore_budget=32),
    "store-1m": dict(steps=4, stoplines=6, store_events=6000),
}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_workload_passes_every_check(name, tmp_path):
    spec = load_spec(ROOT)
    w = dataclasses.replace(workloads.WORKLOADS[name], **TINY[name])
    run, inputs, setup_s = workloads.measure(w, 7, 0.0, True, tmp_path / "work")
    assert run.attempted > 0
    assert run.failed == 0, run.failures  # failed_frac == 0
    e2e = workloads.end_to_end(run, setup_s)
    probe = workloads.pinned_probes(inputs, tmp_path / "work")
    probe.update(workloads.store_probes(tmp_path / "work"))
    layer = workloads.per_layer(run, probe)
    # result_line refuses missing, undeclared and non-finite metrics
    result_line(spec, "end_to_end", e2e, run.attempted, run.failed)
    result_line(spec, "per_layer", layer, run.attempted, run.failed)
    assert e2e["ok_frac"] == 1.0
    # the traced iteration's layers add up to its (traced) duration
    assert layer["tracing.layer_sum_s"] == pytest.approx(
        run.samples["traced_iter_s"][0], rel=0.05
    )


def test_the_seed_changes_the_inputs_but_not_the_structure():
    w = dataclasses.replace(workloads.WORKLOADS["store-1m"], **TINY["store-1m"])
    a, b = workloads.make_inputs(w, 1), workloads.make_inputs(w, 2)
    assert a.store.events == b.store.events
    assert (a.store.pairs == b.store.pairs).all()
    assert not (a.store.block.columns["t0"] == b.store.block.columns["t0"]).all()
