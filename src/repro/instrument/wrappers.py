"""Instrumented wrappers on message-passing library functions (§2.3).

    "Using this technique we supply an instrumented MPI library that acts
    as a front-end to the PMPI_ functions.  For example, we supply an
    MPI_Send that generates history information and then calls PMPI_Send.
    When the user links with the debugging version of the MPI library,
    the history collection is automatic."

The wrapper library publishes through the recorder's
:class:`~repro.trace.sinks.TraceBus`: every record a wrapper emits is
delivered once to all attached sinks (in-memory history, trace file,
live analyses), so "the history collection is automatic" extends to any
number of streaming consumers.

:class:`WrapperLibrary` is that debugging library: installing it on a
runtime's PMPI layer makes every communication call

1. generate the next execution marker (and evaluate stop conditions --
   this is where stopline thresholds park a process, *before* the
   construct executes);
2. run the real (``pmpi_``) implementation;
3. append a trace record with the construct's endpoints, tag, payload
   size, sequence number, and virtual start/end times.

Receive-completing operations (``wait``/``test``/``waitany`` on a
receive request) are normalized to ``RECV`` records so the downstream
matching analysis sees one uniform receive kind.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.mp.comm import Comm, OpDetail
from repro.mp.datatypes import ANY_SOURCE, ANY_TAG
from repro.mp.locutil import caller_location
from repro.mp.pmpi import INTERPOSABLE_OPS
from repro.mp.runtime import Runtime, Target
from repro.trace.events import OP_TO_KIND, EventKind
from repro.trace.recorder import TraceRecorder

#: Ops whose records are worth keeping by default.  ``waitall`` is pure
#: plumbing around per-request waits and is recorded only in verbose mode.
DEFAULT_OPS: tuple[str, ...] = tuple(
    op for op in INTERPOSABLE_OPS if op not in ("waitall",)
)


class WrapperLibrary:
    """The instrumented communication library.

    Parameters
    ----------
    runtime:
        Target runtime (wrappers are installed on its PMPI layer).
    recorder:
        Trace destination; created with ``runtime.nprocs`` if omitted.
    ops:
        Which operations to wrap (default: everything but ``waitall``).
    bump_markers:
        Generate an execution marker per wrapped call (on by default;
        turning it off yields a record-only library for pure monitoring).
    """

    def __init__(
        self,
        runtime: Runtime,
        recorder: Optional[TraceRecorder] = None,
        ops: Optional[Iterable[str]] = None,
        bump_markers: bool = True,
    ) -> None:
        self.runtime = runtime
        # NB: an empty TraceRecorder is falsy (len 0); test identity.
        self.recorder = recorder if recorder is not None else TraceRecorder(runtime.nprocs)
        self.ops = tuple(ops) if ops is not None else DEFAULT_OPS
        self.bump_markers = bump_markers
        self._installed: list[tuple[str, object]] = []
        self._install()

    @property
    def bus(self):
        """The event bus this library publishes records through --
        attach sinks here to observe the wrapped calls live."""
        return self.recorder.bus

    # ------------------------------------------------------------------
    def _install(self) -> None:
        for op in self.ops:
            wrapper = self._make_wrapper(op)
            self.runtime.pmpi_layer.install(op, wrapper)
            self._installed.append((op, wrapper))

    def uninstall(self) -> None:
        """Unlink the debugging library."""
        for op, wrapper in self._installed:
            self.runtime.pmpi_layer.uninstall(op, wrapper)
        self._installed.clear()

    # ------------------------------------------------------------------
    def _make_wrapper(self, op: str):
        base_kind = OP_TO_KIND.get(op)

        def wrapper(next_call, comm: Comm, *args, **kwargs):
            proc = comm.proc
            loc = caller_location()
            if self.bump_markers:
                # Marker first: a threshold hit parks the process HERE,
                # before the construct runs -- "the user can have the
                # execution stop before the problem occurs" (§4.1).
                proc.current_location = loc
                marker = proc.bump_marker(loc)
            else:
                marker = proc.marker
            # Hand the call site on to the PMPI body (one walk per op).
            comm.entry_location = loc
            try:
                result = next_call(comm, *args, **kwargs)
            finally:
                comm.entry_location = None
            detail = comm.last_op
            if detail is not None:
                self._record(comm, op, base_kind, marker, detail, args)
            return result

        return wrapper

    def _record(
        self,
        comm: Comm,
        op: str,
        base_kind: Optional[EventKind],
        marker: int,
        detail: OpDetail,
        args: tuple = (),
    ) -> None:
        kind = base_kind or EventKind.COMPUTE
        extra = dict(detail.extra)
        if op in ("recv", "irecv", "probe", "iprobe"):
            # Preserve the *posted* pattern (possibly wildcards) next to
            # the resolved endpoints -- the race detector needs to know a
            # receive could have matched something else.
            extra["posted_src"] = args[0] if len(args) >= 1 else ANY_SOURCE
            extra["posted_tag"] = args[1] if len(args) >= 2 else ANY_TAG
        # Normalize receive completions arriving via wait/test/waitany:
        # a completed receive is a RECV record wherever it completed.
        if op in ("wait", "test", "waitany") and detail.dst == comm.rank and detail.seq >= 0:
            extra["via"] = op
            kind = EventKind.RECV
        elif op == "test" and not extra.get("flag", True):
            return  # unsuccessful polls are noise, not history
        elif op == "iprobe" and not extra.get("flag", True):
            return
        self.recorder.record(
            comm.rank,
            kind,
            detail.t0,
            detail.t1,
            marker,
            location=detail.location,
            src=detail.src,
            dst=detail.dst,
            tag=detail.tag,
            size=detail.size,
            seq=detail.seq,
            peer_location=detail.peer_location,
            peer_marker=detail.peer_marker,
            peer_time=detail.peer_send_time,
            extra=extra,
        )


def lifecycle_wrapper(recorder: TraceRecorder):
    """A launch-time target wrapper adding PROC_START / PROC_EXIT records.

    Usage: ``runtime.launch(prog, target_wrappers=[lifecycle_wrapper(rec)])``.
    """

    def wrap(target: Target, rank: int) -> Target:
        def wrapped(comm: Comm):
            proc = comm.proc
            recorder.record(
                rank,
                EventKind.PROC_START,
                proc.clock.now,
                proc.clock.now,
                proc.marker,
            )
            try:
                return target(comm)
            finally:
                recorder.record(
                    rank,
                    EventKind.PROC_EXIT,
                    proc.clock.now,
                    proc.clock.now,
                    proc.marker,
                )

        return wrapped

    return wrap
