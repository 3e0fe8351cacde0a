"""In-memory span tracer for the benchmark's traced run.

A span is ``(sid, parent, layer, name, start, end, count)``: one timed
call into a layer, the span that was open when it started, and an
optional count of work the call did (events, races found).  Spans are
appended to a list in memory and written out once, at the end of the
run.

The open-span stack is one list shared by all threads, not a
thread-local.  That is correct here because every workload runs on the
``simtime`` backend: exactly one rank carrier thread executes at a time,
and only while the controller thread is parked inside
``Runtime.run_until_idle``.  A call wrapped on a carrier thread (for
example ``TraceRecorder.record``) therefore nests under the controller's
open ``mp`` span.  Only calls that never yield to another rank are
wrapped, so a span never straddles a thread switch.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import itertools
import json
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterator, NamedTuple, Optional


class Span(NamedTuple):
    sid: int
    parent: int  # -1 for a root span
    layer: str
    name: str
    start: float
    end: float
    count: int = 0

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans while ``enabled``; costs one flag test when not."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.enabled = False
        self._stack: list[int] = []
        self._ids = itertools.count()

    @contextmanager
    def span(self, layer: str, name: str) -> Iterator[list]:
        """Time the body as one span.  The yielded one-element list lets
        the body set the span's count: ``box[0] = n``."""
        box = [0]
        if not self.enabled:
            yield box
            return
        stack = self._stack
        sid = next(self._ids)
        parent = stack[-1] if stack else -1
        stack.append(sid)
        start = time.perf_counter()
        try:
            yield box
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(Span(sid, parent, layer, name, start, end, box[0]))

    def wrap(
        self,
        fn: Callable,
        layer: str,
        name: str,
        count: Optional[Callable[[Any], int]] = None,
    ) -> Callable:
        """``fn`` with a span around every call made while enabled."""
        spans, stack, ids = self.spans, self._stack, self._ids
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            sid = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            n = 0
            try:
                result = fn(*args, **kwargs)
                if count is not None:
                    n = count(result)
                return result
            finally:
                end = clock()
                stack.pop()
                spans.append(Span(sid, parent, layer, name, start, end, n))

        return traced

    def write(self, path: Path) -> None:
        """Write every span as one JSON line (gzip)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for s in sorted(self.spans, key=lambda s: s.sid):
                fh.write(json.dumps(s._asdict()) + "\n")


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of it its children cover.

    Children of one parent may overlap each other or stick out of the
    parent; only the union of their intervals, clipped to the parent,
    is subtracted.
    """
    children: dict[int, list[Span]] = {}
    for s in spans:
        children.setdefault(s.parent, []).append(s)
    out: dict[int, float] = {}
    for s in spans:
        covered = 0.0
        lo = hi = None
        for c in sorted(children.get(s.sid, ()), key=lambda c: c.start):
            a, b = max(c.start, s.start), min(c.end, s.end)
            if b <= a:
                continue
            if hi is None or a > hi:
                if hi is not None:
                    covered += hi - lo
                lo, hi = a, b
            else:
                hi = max(hi, b)
        if hi is not None:
            covered += hi - lo
        out[s.sid] = s.duration - covered
    return out


def roots_of(spans: list[Span]) -> dict[int, int]:
    """Span id -> id of the root span it descends from."""
    by_id = {s.sid: s for s in spans}
    root: dict[int, int] = {}
    for s in sorted(spans, key=lambda s: s.sid):  # parents start first
        root[s.sid] = s.sid if s.parent not in by_id else root[s.parent]
    return root


def layer_self_times(
    spans: list[Span], root_name: str, absorb: tuple[str, ...] = ()
) -> list[dict[str, float]]:
    """Per root span called ``root_name``: layer -> summed self time.

    A span below a span of an ``absorb`` layer counts toward that layer
    (the benchmark's checks call into the program too).
    """
    own = self_times(spans)
    root = roots_of(spans)
    by_id = {s.sid: s for s in spans}
    layer_of: dict[int, str] = {}
    for s in sorted(spans, key=lambda s: s.sid):  # parents start first
        outer = layer_of.get(s.parent)
        layer_of[s.sid] = outer if outer in absorb else s.layer
    per_root: dict[int, dict[str, float]] = {
        s.sid: {} for s in spans if s.parent == -1 and s.name == root_name
    }
    for s in spans:
        layers = per_root.get(root[s.sid])
        if layers is not None:
            layer = layer_of[s.sid]
            layers[layer] = layers.get(layer, 0.0) + own[s.sid]
    return [per_root[sid] for sid in sorted(per_root, key=lambda i: by_id[i].start)]


def per_root_totals(
    spans: list[Span], root_name: str, name: str
) -> list[tuple[float, int]]:
    """Per root span called ``root_name``: (summed duration, summed
    count) of its descendant spans called ``name``; roots without any
    such span are left out."""
    root = roots_of(spans)
    by_id = {s.sid: s for s in spans}
    totals: dict[int, list] = {}
    for s in spans:
        if s.name != name:
            continue
        r = by_id[root[s.sid]]
        if r.parent == -1 and r.name == root_name and r.sid != s.sid:
            t = totals.setdefault(r.sid, [0.0, 0])
            t[0] += s.duration
            t[1] += s.count
    return [tuple(totals[k]) for k in sorted(totals, key=lambda i: by_id[i].start)]


# ----------------------------------------------------------------------
# calls inside the program that the traced run wraps
# ----------------------------------------------------------------------
def _len(result: Any) -> int:
    return len(result)


#: (module, attribute path, layer, span name, count).  Only calls that
#: never yield to another rank are wrapped (see the module docstring);
#: names imported into another module are wrapped where they are looked
#: up.  Everything a wrapped call does that is not itself wrapped counts
#: as the caller's self time -- e.g. the target program's own Python
#: work and the PMPI wrapper closures land in ``mp``.
PATCHES: tuple[tuple[str, str, str, str, Optional[Callable]], ...] = (
    ("repro.mp.runtime", "Runtime.__init__", "mp", "mp.runtime_init", None),
    ("repro.mp.runtime", "Runtime.launch", "mp", "mp.launch", None),
    ("repro.mp.runtime", "Runtime.run_until_idle", "mp", "mp.run_until_idle", None),
    ("repro.mp.runtime", "Runtime.shutdown", "mp", "mp.shutdown", None),
    ("repro.instrument.wrappers", "WrapperLibrary.__init__", "instrument",
     "instrument.install", None),
    ("repro.instrument.wrappers", "WrapperLibrary._record", "instrument",
     "instrument.record", None),
    ("repro.instrument.wrappers", "caller_location", "instrument",
     "instrument.caller_location", None),
    ("repro.trace.recorder", "TraceRecorder.record", "trace", "trace.record", None),
    ("repro.trace.recorder", "TraceRecorder.snapshot", "trace", "trace.snapshot", None),
    ("repro.trace.recorder", "TraceRecorder.subscribe", "trace", "trace.subscribe", None),
    ("repro.trace.recorder", "TraceRecorder.close", "trace", "trace.close", None),
    ("repro.analysis.history", "IndexSink.emit", "analysis", "analysis.index_emit", None),
    ("repro.debugger.session", "compute_stopline", "debugger",
     "debugger.compute_stopline", None),
    ("repro.explore.driver", "run_base", "explore", "explore.base", None),
    ("repro.explore.driver", "matching_fingerprint", "analysis",
     "analysis.matching_fingerprint", None),
    ("repro.explore.batch", "run_schedule_job", "explore", "explore.job", None),
    ("repro.explore.context", "detect_races", "analysis", "analysis.detect_races", _len),
    ("repro.explore.context", "steer_to_alternative", "analysis",
     "analysis.steer_to_alternative", None),
    ("repro.explore.context", "ensure_index", "analysis", "analysis.ensure_index", None),
    ("repro.explore.context", "matching_fingerprint", "analysis",
     "analysis.matching_fingerprint", None),
    ("repro.explore.context", "diff_traces", "trace", "trace.diff_traces", None),
    ("repro.explore.context", "first_divergence_locations", "trace",
     "trace.first_divergence_locations", None),
)


@contextmanager
def patched(tracer: Tracer) -> Iterator[None]:
    """Install span wrappers on :data:`PATCHES` for the body; restore after."""
    undo: list[tuple[Any, str, Any]] = []
    try:
        for module_name, path, layer, name, count in PATCHES:
            owner: Any = importlib.import_module(module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            undo.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(original, layer, name, count))
        yield
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)
