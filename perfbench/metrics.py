"""Metric declarations, their validation, and the result line.

The metric names, units and bounds live in ``BENCHMARK.json`` at the
checkout root; this module reads them from there, checks the file
against the benchmark contract, and checks every result against the
declared metrics before it is printed.
"""

from __future__ import annotations

import json
import math
import re
from pathlib import Path
from typing import Iterable

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH_RE = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")
KEYS = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}


class SpecError(ValueError):
    """``BENCHMARK.json`` or a result breaks the benchmark contract."""


def load_spec(root: Path) -> dict:
    spec = json.loads((root / "BENCHMARK.json").read_text())
    validate_spec(spec)
    return spec


def _check_names(names: Iterable[str], seen: set[str], what: str) -> None:
    for name in names:
        if not isinstance(name, str) or not NAME_RE.match(name):
            raise SpecError(f"{what} name {name!r} is not a valid metric name")
        if name in seen:
            raise SpecError(f"name {name!r} is used twice")
        seen.add(name)


def validate_spec(spec: dict) -> None:
    """Raise :class:`SpecError` unless ``spec`` meets the contract."""
    if set(spec) != KEYS:
        raise SpecError(f"keys must be exactly {sorted(KEYS)}, got {sorted(spec)}")
    cmd = spec["command"]
    if not (1 <= len(cmd) <= 32) or not all(
        isinstance(c, str) and len(c) <= 200 for c in cmd
    ):
        raise SpecError("command must be 1-32 strings of at most 200 characters")
    if any(c.startswith("/") or ".." in c.split("/") for c in cmd):
        raise SpecError("command may not name absolute paths or leave the repo")
    paths = spec["paths"]
    if not (1 <= len(paths) <= 16) or not all(
        isinstance(p, str) and PATH_RE.match(p) and ".." not in p.split("/")
        and not p.startswith("/") for p in paths
    ):
        raise SpecError("paths must be 1-16 relative directories")
    secs = spec["run_seconds"]
    if not isinstance(secs, int) or not 1 <= secs <= 60:
        raise SpecError("run_seconds must be a whole number from 1 to 60")

    seen: set[str] = set()
    workloads = spec["workloads"]
    if not 2 <= len(workloads) <= 8:
        raise SpecError("there must be 2 to 8 workloads")
    for w in workloads:
        if set(w) != {"name", "why"}:
            raise SpecError(f"workload keys must be name and why: {w}")
        why = w["why"]
        if not isinstance(why, str) or not why or len(why) > 200 or "\n" in why:
            raise SpecError(f"workload {w['name']!r}: why must be one line of <= 200 chars")
    _check_names((w["name"] for w in workloads), seen, "workload")

    for group, keys, lo, hi in (
        ("end_to_end", {"name", "unit", "better", "bound"}, 1, 16),
        ("per_layer", {"name", "unit", "better"}, 1, 128),
    ):
        metrics = spec[group]
        if not lo <= len(metrics) <= hi:
            raise SpecError(f"{group} must hold {lo} to {hi} metrics")
        for m in metrics:
            if set(m) != keys:
                raise SpecError(f"{group} metric keys must be {sorted(keys)}: {m}")
            if not UNIT_RE.match(m["unit"]):
                raise SpecError(f"metric {m['name']!r}: bad unit {m['unit']!r}")
            if m["better"] not in ("lower", "higher"):
                raise SpecError(f"metric {m['name']!r}: better must be lower or higher")
            if group == "end_to_end":
                bound = m["bound"]
                if not isinstance(bound, (int, float)) or not 0 < bound <= 0.25:
                    raise SpecError(f"metric {m['name']!r}: bound must be in (0, 0.25]")
        _check_names((m["name"] for m in metrics), seen, group)

    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower":
        raise SpecError("end_to_end must hold setup_s in s, lower is better")
    if setup[0]["bound"] < max(m["bound"] for m in spec["end_to_end"]):
        raise SpecError("setup_s must carry the largest bound")
    if len(json.dumps(spec)) > 64 * 1024:
        raise SpecError("BENCHMARK.json must stay under 64 KiB")


def result_line(
    spec: dict, group: str, values: dict[str, float],
    attempted: int, failed: int,
) -> str:
    """The final JSON line; every declared ``group`` metric must be in
    ``values`` as a finite number, and nothing else may be."""
    declared = {m["name"]: m["unit"] for m in spec[group]}
    missing = sorted(set(declared) - set(values))
    extra = sorted(set(values) - set(declared))
    if missing or extra:
        raise SpecError(f"{group}: missing {missing}, undeclared {extra}")
    bad = [k for k, v in values.items() if not math.isfinite(v)]
    if bad:
        raise SpecError(f"{group}: non-finite values for {bad}")
    if attempted < 1:
        raise SpecError("a run must attempt at least one check")
    return json.dumps({
        "correct": failed == 0,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {
            name: {"value": float(values[name]), "unit": declared[name]}
            for name in declared
        },
    })
