"""BENCHMARK.json validation and the result line."""

import copy
import json
import math
from pathlib import Path

import pytest

from metrics import SpecError, load_spec, result_line, validate_spec

ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture
def spec():
    return load_spec(ROOT)


def test_the_repo_spec_is_valid(spec):
    names = [m["name"] for m in spec["end_to_end"]]
    assert "setup_s" in names
    assert [w["name"] for w in spec["workloads"]] == [
        "debug-halo2d", "explore-schedbug", "store-1m"
    ]


@pytest.mark.parametrize("bad", ["", "_lead", ".lead", "has space", "a/b", "x" * 65, "ü"])
def test_bad_metric_names_are_refused(spec, bad):
    broken = copy.deepcopy(spec)
    broken["per_layer"][0]["name"] = bad
    with pytest.raises(SpecError):
        validate_spec(broken)


def test_a_name_used_twice_is_refused(spec):
    broken = copy.deepcopy(spec)
    broken["per_layer"][1]["name"] = broken["end_to_end"][1]["name"]
    with pytest.raises(SpecError, match="twice"):
        validate_spec(broken)


@pytest.mark.parametrize(
    "mutate",
    [
        lambda s: s.update(extra=1),
        lambda s: s["end_to_end"][1].update(bound=0.3),
        lambda s: s["end_to_end"][1].update(unit="seconds and more"),
        lambda s: s["end_to_end"][1].update(better="faster"),
        lambda s: s["per_layer"][0].update(bound=0.1),
        lambda s: s["workloads"][0].update(why="two\nlines"),
        lambda s: s.update(run_seconds=61),
        lambda s: s.update(command=["python3", "/abs/run.py"]),
        lambda s: s.update(paths=["../outside"]),
        lambda s: s.update(end_to_end=[m for m in s["end_to_end"] if m["name"] != "setup_s"]),
        lambda s: s["end_to_end"][0].update(bound=0.01),
    ],
)
def test_contract_breaks_are_refused(spec, mutate):
    broken = copy.deepcopy(spec)
    mutate(broken)
    with pytest.raises(SpecError):
        validate_spec(broken)


def test_result_line_carries_every_declared_metric(spec):
    values = {m["name"]: 1.5 for m in spec["end_to_end"]}
    line = json.loads(result_line(spec, "end_to_end", values, attempted=4, failed=1))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is False
    assert line["metrics"]["setup_s"] == {"value": 1.5, "unit": "s"}


def test_result_line_refuses_missing_undeclared_or_non_finite(spec):
    values = {m["name"]: 1.0 for m in spec["end_to_end"]}
    with pytest.raises(SpecError, match="missing"):
        result_line(spec, "end_to_end", {k: v for k, v in values.items() if k != "run_eps"}, 1, 0)
    with pytest.raises(SpecError, match="undeclared"):
        result_line(spec, "end_to_end", {**values, "nope": 1.0}, 1, 0)
    with pytest.raises(SpecError, match="non-finite"):
        result_line(spec, "end_to_end", {**values, "run_eps": math.nan}, 1, 0)
