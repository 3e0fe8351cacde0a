"""The communicator: the public message-passing API of the substrate.

:class:`Comm` exposes an mpi4py-flavoured API (``send``/``recv``/
``isend``/``irecv``/collectives) whose every entry point is routed
through the PMPI interposition layer (:mod:`repro.mp.pmpi`): the public
method ``send`` is the ``MPI_Send`` name a profiling library may wrap;
``pmpi_send`` is the ``PMPI_Send`` base implementation.

Collectives are implemented *on top of* the public point-to-point calls
so that an installed wrapper library observes their constituent messages
-- exactly how the paper's time-space diagrams render collective traffic
as individual message lines.

All methods must be called from the owning process's worker thread while
it holds the scheduler token (which is automatic for code invoked by the
runtime).
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Optional, Sequence

from .channel import validate_ready_send
from .datatypes import (
    ANY_SOURCE,
    ANY_TAG,
    PROC_NULL,
    CollectiveTag,
    SendMode,
    SourceLocation,
    check_rank,
    check_tag,
)
from .errors import RequestError, TruncationError
from .locutil import caller_location
from .message import Envelope, Message, copy_payload, payload_size
from .process import WaitInfo, WaitKind
from .requests import (
    RecvRequest,
    Request,
    SendRequest,
    first_complete_index,
)
from .status import Status

if TYPE_CHECKING:  # pragma: no cover
    from .runtime import Runtime


@dataclass
class OpDetail:
    """Introspection record of the most recent completed operation.

    The base (PMPI) implementations fill this in; wrapper libraries read
    it right after the inner call returns to build their trace records
    (source/destination/tag/size and the virtual start/end times that
    position the construct's bar in the time-space diagram).
    """

    op: str
    t0: float
    t1: float
    location: SourceLocation
    src: int = -1
    dst: int = -1
    tag: int = -1
    size: int = 0
    seq: int = -1
    root: int = -1
    #: for receives: marker & location captured at the matching send
    peer_location: Optional[SourceLocation] = None
    peer_marker: int = -1
    peer_send_time: float = -1.0
    extra: dict = field(default_factory=dict)


def _collective_impl(fn):
    """Decorator for collective PMPI implementations.

    Marks the dynamic extent of the collective so its internal
    point-to-point traffic is allowed to use the reserved tag space
    above ``COLLECTIVE_TAG_BASE`` (user calls outside collectives are
    still rejected).  Nesting-safe: ``allreduce`` -> ``reduce`` ->
    sends keeps the depth positive throughout.
    """

    @functools.wraps(fn)
    def wrapper(self: "Comm", *args, **kwargs):
        self._collective_depth += 1
        try:
            return fn(self, *args, **kwargs)
        finally:
            self._collective_depth -= 1

    return wrapper


class Comm:
    """A communicator bound to one simulated process.

    The initial (world) communicator spans all ranks with
    ``comm_id == 0``; :meth:`split` derives sub-communicators whose
    traffic lives in its own matching context, exactly like
    ``MPI_Comm_split``.  Public ``rank``/``size`` and all rank arguments
    are *communicator-relative*; envelopes, trace records, and wait
    info carry world ranks.

    Attributes
    ----------
    rank / size:
        This process's rank in this communicator, and its size.
    world_rank:
        The process's rank in the world communicator.
    comm_id:
        The communicator's matching context (0 for the world).
    runtime:
        The owning :class:`~repro.mp.runtime.Runtime`.
    last_op:
        :class:`OpDetail` of the most recent completed base operation.
    entry_location:
        The user call site of the operation being entered, set by an
        instrumentation wrapper that already walked the stack for it
        (None otherwise); the base implementation takes it instead of
        walking the stack a second time.
    """

    def __init__(
        self,
        runtime: "Runtime",
        world_rank: int,
        group: Optional[Sequence[int]] = None,
        comm_id: int = 0,
    ) -> None:
        self.runtime = runtime
        self.world_rank = world_rank
        self.group: tuple[int, ...] = (
            tuple(group) if group is not None else tuple(range(runtime.nprocs))
        )
        if world_rank not in self.group:
            raise ValueError(
                f"world rank {world_rank} is not in group {self.group}"
            )
        self.comm_id = comm_id
        self._group_rank = self.group.index(world_rank)
        self.last_op: Optional[OpDetail] = None
        self.entry_location: Optional[SourceLocation] = None
        # >0 while executing inside a collective body; point-to-point
        # calls then accept reserved tags (collective plumbing).
        self._collective_depth = 0

    # ------------------------------------------------------------------
    # conveniences
    # ------------------------------------------------------------------
    @property
    def rank(self) -> int:
        """This process's rank in THIS communicator."""
        return self._group_rank

    @property
    def size(self) -> int:
        return len(self.group)

    @property
    def proc(self):
        return self.runtime.procs[self.world_rank]

    def _call_site(self) -> SourceLocation:
        """Where the user issued the operation this base implementation
        runs: the wrapper's ``entry_location`` if one was handed over,
        else a stack walk.  Taking the handed-over location clears it, so
        operations the body issues itself walk for their own."""
        loc = self.entry_location
        if loc is None:
            return caller_location(skip=2)
        self.entry_location = None
        return loc

    # -- rank translation ----------------------------------------------
    def _to_world(self, rank: int, *, wildcard_ok: bool = False) -> int:
        """Map a communicator-relative rank argument to a world rank."""
        if rank in (PROC_NULL,) or (wildcard_ok and rank == ANY_SOURCE):
            return rank
        check_rank(rank, self.size, wildcard_ok=wildcard_ok)
        return self.group[rank]

    def _to_group(self, world_rank: int) -> int:
        """Map a world rank back to this communicator (for statuses)."""
        try:
            return self.group.index(world_rank)
        except ValueError:
            return world_rank

    @property
    def _cost(self):
        return self.runtime.cost_model

    @property
    def _clock(self):
        return self.proc.clock

    def __repr__(self) -> str:  # pragma: no cover
        extra = f" comm={self.comm_id}" if self.comm_id else ""
        return f"<Comm rank={self.rank}/{self.size}{extra}>"

    def _poll_yield(self) -> None:
        """Give other READY processes a turn after an unsuccessful poll
        (``test``/``iprobe`` spin loops); see the backend's
        ``poll_yield`` for why a cooperative runtime requires this."""
        self.runtime.scheduler.poll_yield(self.proc)


    # ==================================================================
    # PUBLIC (MPI_) ENTRY POINTS -- all routed through the PMPI layer
    # ==================================================================
    def send(self, obj: Any, dest: int, tag: int = 0) -> None:
        """Standard-mode blocking send (buffered; never blocks here)."""
        return self.runtime.pmpi_layer.call("send", self, obj, dest, tag)

    def ssend(self, obj: Any, dest: int, tag: int = 0) -> None:
        """Synchronous-mode send: completes only when matched."""
        return self.runtime.pmpi_layer.call("ssend", self, obj, dest, tag)

    def rsend(self, obj: Any, dest: int, tag: int = 0) -> None:
        """Ready-mode send: erroneous unless a matching receive is posted."""
        return self.runtime.pmpi_layer.call("rsend", self, obj, dest, tag)

    def recv(
        self,
        source: int = ANY_SOURCE,
        tag: int = ANY_TAG,
        status: Optional[Status] = None,
        max_count: Optional[int] = None,
    ) -> Any:
        """Blocking receive; returns the payload.

        ``max_count`` mirrors MPI's receive-buffer capacity: a matched
        message whose element count exceeds it raises
        :class:`~repro.mp.errors.TruncationError` (after consuming the
        message, as MPI_ERR_TRUNCATE does).
        """
        return self.runtime.pmpi_layer.call(
            "recv", self, source, tag, status, max_count
        )

    def isend(self, obj: Any, dest: int, tag: int = 0) -> Request:
        """Nonblocking standard send; returns a request."""
        return self.runtime.pmpi_layer.call("isend", self, obj, dest, tag)

    def issend(self, obj: Any, dest: int, tag: int = 0) -> Request:
        """Nonblocking synchronous send."""
        return self.runtime.pmpi_layer.call("issend", self, obj, dest, tag)

    def irecv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Request:
        """Nonblocking receive; returns a request."""
        return self.runtime.pmpi_layer.call("irecv", self, source, tag)

    def probe(
        self,
        source: int = ANY_SOURCE,
        tag: int = ANY_TAG,
        status: Optional[Status] = None,
    ) -> Status:
        """Block until a matching message is available; don't receive it."""
        return self.runtime.pmpi_layer.call("probe", self, source, tag, status)

    def iprobe(
        self,
        source: int = ANY_SOURCE,
        tag: int = ANY_TAG,
        status: Optional[Status] = None,
    ) -> bool:
        """Nonblocking probe: is a matching message available now?"""
        return self.runtime.pmpi_layer.call("iprobe", self, source, tag, status)

    def sendrecv(
        self,
        sendobj: Any,
        dest: int,
        sendtag: int = 0,
        source: int = ANY_SOURCE,
        recvtag: int = ANY_TAG,
        status: Optional[Status] = None,
    ) -> Any:
        """Combined send-then-receive (deadlock-safe: sends are buffered)."""
        return self.runtime.pmpi_layer.call(
            "sendrecv", self, sendobj, dest, sendtag, source, recvtag, status
        )

    def wait(self, request: Request, status: Optional[Status] = None) -> Any:
        """Block until ``request`` completes; return its payload."""
        return self.runtime.pmpi_layer.call("wait", self, request, status)

    def test(
        self, request: Request, status: Optional[Status] = None
    ) -> tuple[bool, Any]:
        """(complete?, payload) without blocking.  A successful test
        finalizes the request (it may not be waited on afterwards)."""
        return self.runtime.pmpi_layer.call("test", self, request, status)

    def waitall(
        self, requests: Sequence[Request], statuses: Optional[list[Status]] = None
    ) -> list[Any]:
        """Wait for every request; payloads in request order."""
        return self.runtime.pmpi_layer.call("waitall", self, requests, statuses)

    def waitany(
        self, requests: Sequence[Request], status: Optional[Status] = None
    ) -> tuple[int, Any]:
        """Wait until some request completes; (index, payload).

        The index chosen is recorded in the runtime's communication log
        so a controlled replay reproduces it (DESIGN.md Section 6).
        """
        return self.runtime.pmpi_layer.call("waitany", self, requests, status)

    def cancel(self, request: Request) -> bool:
        """Try to cancel a request; True if cancellation took effect."""
        return self.runtime.pmpi_layer.call("cancel", self, request)

    def barrier(self) -> None:
        """Synchronize all ranks."""
        return self.runtime.pmpi_layer.call("barrier", self)

    def bcast(self, obj: Any = None, root: int = 0) -> Any:
        """Broadcast ``obj`` from ``root``; every rank returns it."""
        return self.runtime.pmpi_layer.call("bcast", self, obj, root)

    def scatter(self, sendobjs: Optional[Sequence[Any]] = None, root: int = 0) -> Any:
        """Scatter one element of ``sendobjs`` (length ``size``) per rank."""
        return self.runtime.pmpi_layer.call("scatter", self, sendobjs, root)

    def gather(self, obj: Any, root: int = 0) -> Optional[list[Any]]:
        """Gather one object per rank to ``root`` (rank order)."""
        return self.runtime.pmpi_layer.call("gather", self, obj, root)

    def allgather(self, obj: Any) -> list[Any]:
        """Gather to all ranks."""
        return self.runtime.pmpi_layer.call("allgather", self, obj)

    def reduce(
        self, obj: Any, op: Optional[Callable[[Any, Any], Any]] = None, root: int = 0
    ) -> Any:
        """Reduce with ``op`` (default ``operator.add``) onto ``root``."""
        return self.runtime.pmpi_layer.call("reduce", self, obj, op, root)

    def allreduce(self, obj: Any, op: Optional[Callable[[Any, Any], Any]] = None) -> Any:
        """Reduce and broadcast the result to all ranks."""
        return self.runtime.pmpi_layer.call("allreduce", self, obj, op)

    def alltoall(self, objs: Sequence[Any]) -> list[Any]:
        """Personalized all-to-all: rank i's ``objs[j]`` goes to rank j."""
        return self.runtime.pmpi_layer.call("alltoall", self, objs)

    def scan(self, obj: Any, op: Optional[Callable[[Any, Any], Any]] = None) -> Any:
        """Inclusive prefix reduction across ranks."""
        return self.runtime.pmpi_layer.call("scan", self, obj, op)

    def compute(self, duration: float, label: str = "compute") -> None:
        """Advance this process's virtual clock by ``duration``.

        Workloads call this to model local computation; the time-space
        diagram renders it as a computation bar.
        """
        return self.runtime.pmpi_layer.call("compute", self, duration, label)

    def split(self, color: Optional[int], key: int = 0) -> "Optional[Comm]":
        """Partition this communicator (``MPI_Comm_split``).

        Every member calls with a ``color``; members sharing a color form
        a new communicator, ranked by ``(key, old rank)``.  ``color=None``
        opts out (``MPI_UNDEFINED``) and returns None.  Collective: all
        members of this communicator must call.
        """
        return self.runtime.pmpi_layer.call("split", self, color, key)

    # ==================================================================
    # PMPI_ BASE IMPLEMENTATIONS
    # ==================================================================
    # -- point-to-point -------------------------------------------------
    def pmpi_send(self, obj: Any, dest: int, tag: int = 0) -> None:
        self._send_impl(obj, dest, tag, SendMode.STANDARD)

    def pmpi_ssend(self, obj: Any, dest: int, tag: int = 0) -> None:
        self._send_impl(obj, dest, tag, SendMode.SYNCHRONOUS)

    def pmpi_rsend(self, obj: Any, dest: int, tag: int = 0) -> None:
        self._send_impl(obj, dest, tag, SendMode.READY)

    def _send_impl(self, obj: Any, dest: int, tag: int, mode: SendMode) -> None:
        proc = self.proc
        proc.check_killed()
        check_tag(tag, reserved_ok=self._collective_depth > 0)
        dest = self._to_world(dest)
        loc = self._call_site()
        t0 = self._clock.now
        if dest == PROC_NULL:
            self._clock.advance(self._cost.send_overhead)
            self.last_op = OpDetail(
                op=mode.value + "_send" if mode is not SendMode.STANDARD else "send",
                t0=t0,
                t1=self._clock.now,
                location=loc,
                src=self.world_rank,
                dst=PROC_NULL,
                tag=tag,
            )
            return
        seq = self.runtime.next_seq(self.world_rank, dest, tag, self.comm_id)
        msg = Message(
            envelope=Envelope(self.world_rank, dest, tag, seq, self.comm_id),
            payload=copy_payload(obj),
            send_location=loc,
            send_marker=proc.marker,
            synchronous=(mode is SendMode.SYNCHRONOUS),
        )
        self._clock.advance(self._cost.send_overhead)
        msg.send_time = self._clock.now
        if mode is SendMode.READY:
            validate_ready_send(
                self.runtime.mailboxes[dest], self.world_rank, tag, self.comm_id
            )
        self.runtime.deposit(msg)
        if mode is SendMode.SYNCHRONOUS:
            wait = WaitInfo(self.world_rank, WaitKind.SSEND, dest, tag, loc)
            while self.runtime.ssend_outstanding(msg.msg_id):
                self.runtime.scheduler.yield_blocked(proc, wait)
                proc.check_killed()
            # Rendezvous completed: the sender cannot be ahead of the
            # message's earliest possible delivery.
            self._clock.advance_to(msg.send_time + self._cost.latency)
        opname = {
            SendMode.STANDARD: "send",
            SendMode.SYNCHRONOUS: "ssend",
            SendMode.READY: "rsend",
        }[mode]
        self.last_op = OpDetail(
            op=opname,
            t0=t0,
            t1=self._clock.now,
            location=loc,
            src=self.world_rank,
            dst=dest,
            tag=tag,
            size=msg.size,
            seq=seq,
            extra={"comm": self.comm_id} if self.comm_id else {},
        )

    def pmpi_recv(
        self,
        source: int = ANY_SOURCE,
        tag: int = ANY_TAG,
        status: Optional[Status] = None,
        max_count: Optional[int] = None,
    ) -> Any:
        proc = self.proc
        proc.check_killed()
        check_tag(tag, wildcard_ok=True, reserved_ok=self._collective_depth > 0)
        source = self._to_world(source, wildcard_ok=True)
        loc = self._call_site()
        t0 = self._clock.now
        if source == PROC_NULL:
            self._clock.advance(self._cost.recv_overhead)
            if status is not None:
                status.set_from(Status(source=PROC_NULL, tag=tag, count=0))
            self.last_op = OpDetail(
                op="recv", t0=t0, t1=self._clock.now, location=loc,
                src=PROC_NULL, dst=self.world_rank, tag=tag,
            )
            return None
        pending = self._post_recv(source, tag, loc)
        wait = WaitInfo(self.world_rank, WaitKind.RECV, source, tag, loc)
        while pending.matched is None:
            self.runtime.scheduler.yield_blocked(proc, wait)
            proc.check_killed()
        msg = pending.matched
        self._finish_recv_clock(msg)
        st = Status(
            source=self._to_group(msg.envelope.src),
            tag=msg.envelope.tag,
            count=payload_size(msg.payload),
        )
        if max_count is not None and st.count > max_count:
            if status is not None:
                status.set_from(st)
            raise TruncationError(expected=max_count, actual=st.count)
        if status is not None:
            status.set_from(st)
        self.last_op = OpDetail(
            op="recv",
            t0=t0,
            t1=self._clock.now,
            location=loc,
            src=msg.envelope.src,
            dst=self.world_rank,
            tag=msg.envelope.tag,
            size=st.count,
            seq=msg.envelope.seq,
            peer_location=msg.send_location,
            peer_marker=msg.send_marker,
            peer_send_time=msg.send_time,
        )
        return msg.payload

    def _post_recv(self, source: int, tag: int, loc: SourceLocation):
        """Post a receive, consulting the replay director for forcing.

        ``source`` is already a world rank (or a wildcard); post indexes
        are per world mailbox, shared across communicators, so replay
        keys stay stable however the program splits communicators.
        """
        mailbox = self.runtime.mailboxes[self.world_rank]
        post_index = mailbox.next_post_order
        forced = self.runtime.replay_forced_recv(
            self.world_rank, post_index, source, tag
        )
        return mailbox.post(
            source, tag, comm_id=self.comm_id, forced=forced, location=loc
        )

    def _finish_recv_clock(self, msg: Message) -> None:
        self._clock.advance(self._cost.recv_overhead)
        self._clock.advance_to(msg.send_time + self._cost.transfer_time(msg.size))

    # -- nonblocking ------------------------------------------------------
    def pmpi_isend(self, obj: Any, dest: int, tag: int = 0) -> Request:
        return self._isend_impl(obj, dest, tag, synchronous=False)

    def pmpi_issend(self, obj: Any, dest: int, tag: int = 0) -> Request:
        return self._isend_impl(obj, dest, tag, synchronous=True)

    def _isend_impl(self, obj: Any, dest: int, tag: int, synchronous: bool) -> Request:
        proc = self.proc
        proc.check_killed()
        check_tag(tag, reserved_ok=self._collective_depth > 0)
        dest = self._to_world(dest)
        loc = self._call_site()
        t0 = self._clock.now
        seq = self.runtime.next_seq(self.world_rank, dest, tag, self.comm_id)
        msg = Message(
            envelope=Envelope(self.world_rank, dest, tag, seq, self.comm_id),
            payload=copy_payload(obj),
            send_location=loc,
            send_marker=proc.marker,
            synchronous=synchronous,
        )
        self._clock.advance(self._cost.send_overhead)
        msg.send_time = self._clock.now
        self.runtime.deposit(msg)
        self.last_op = OpDetail(
            op="issend" if synchronous else "isend",
            t0=t0,
            t1=self._clock.now,
            location=loc,
            src=self.world_rank,
            dst=dest,
            tag=tag,
            size=msg.size,
            seq=seq,
        )
        return SendRequest(self, msg, synchronous)

    def pmpi_irecv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Request:
        proc = self.proc
        proc.check_killed()
        check_tag(tag, wildcard_ok=True, reserved_ok=self._collective_depth > 0)
        source = self._to_world(source, wildcard_ok=True)
        loc = self._call_site()
        t0 = self._clock.now
        pending = self._post_recv(source, tag, loc)
        self._clock.advance(self._cost.call_overhead)
        self.last_op = OpDetail(
            op="irecv", t0=t0, t1=self._clock.now, location=loc,
            src=source, dst=self.world_rank, tag=tag,
        )
        return RecvRequest(self, pending)

    def pmpi_wait(self, request: Request, status: Optional[Status] = None) -> Any:
        proc = self.proc
        proc.check_killed()
        request._check_reusable()
        loc = self._call_site()
        t0 = self._clock.now
        wait = WaitInfo(self.world_rank, WaitKind.REQUEST, ANY_SOURCE, ANY_TAG, loc)
        while not request.complete:
            self.runtime.scheduler.yield_blocked(proc, wait)
            proc.check_killed()
        payload = self._finalize_request(request, status)
        self.last_op = OpDetail(
            op="wait", t0=t0, t1=self._clock.now, location=loc,
            **self._request_detail(request),
        )
        return payload

    def pmpi_test(
        self, request: Request, status: Optional[Status] = None
    ) -> tuple[bool, Any]:
        proc = self.proc
        proc.check_killed()
        request._check_reusable()
        loc = self._call_site()
        t0 = self._clock.now
        self._clock.advance(self._cost.probe_overhead)
        if not request.complete:
            self.last_op = OpDetail(
                op="test", t0=t0, t1=self._clock.now, location=loc,
                extra={"flag": False},
            )
            self._poll_yield()
            return (False, None)
        payload = self._finalize_request(request, status)
        self.last_op = OpDetail(
            op="test", t0=t0, t1=self._clock.now, location=loc,
            extra={"flag": True}, **self._request_detail(request),
        )
        return (True, payload)

    def pmpi_waitall(
        self,
        requests: Sequence[Request],
        statuses: Optional[list[Status]] = None,
    ) -> list[Any]:
        loc = self._call_site()
        t0 = self._clock.now
        out: list[Any] = []
        for i, req in enumerate(requests):
            st = Status()
            out.append(self.pmpi_wait(req, st))
            if statuses is not None:
                if i < len(statuses):
                    statuses[i].set_from(st)
                else:
                    statuses.append(st)
        self.last_op = OpDetail(
            op="waitall", t0=t0, t1=self._clock.now, location=loc,
            extra={"count": len(requests)},
        )
        return out

    def pmpi_waitany(
        self, requests: Sequence[Request], status: Optional[Status] = None
    ) -> tuple[int, Any]:
        proc = self.proc
        proc.check_killed()
        if not requests:
            raise RequestError("waitany on an empty request list")
        loc = self._call_site()
        t0 = self._clock.now
        # waitany call indexes are per PROCESS (not per communicator), so
        # replay keys are stable across comm splits.
        call_index = proc.waitany_calls
        proc.waitany_calls += 1
        forced = self.runtime.replay_forced_waitany(self.world_rank, call_index)
        wait = WaitInfo(self.world_rank, WaitKind.REQUEST, ANY_SOURCE, ANY_TAG, loc)
        if forced is not None:
            if not 0 <= forced < len(requests):
                raise RequestError(
                    f"replayed waitany choice {forced} out of range "
                    f"for {len(requests)} requests"
                )
            while not requests[forced].complete:
                self.runtime.scheduler.yield_blocked(proc, wait)
                proc.check_killed()
            index = forced
        else:
            while (idx := first_complete_index(requests)) is None:
                self.runtime.scheduler.yield_blocked(proc, wait)
                proc.check_killed()
            index = idx
        self.runtime.record_waitany(self.world_rank, call_index, index)
        payload = self._finalize_request(requests[index], status)
        self.last_op = OpDetail(
            op="waitany", t0=t0, t1=self._clock.now, location=loc,
            extra={"index": index}, **self._request_detail(requests[index]),
        )
        return (index, payload)

    def pmpi_cancel(self, request: Request) -> bool:
        proc = self.proc
        proc.check_killed()
        loc = self._call_site()
        t0 = self._clock.now
        self._clock.advance(self._cost.probe_overhead)
        ok = False
        if isinstance(request, RecvRequest):
            ok = self.runtime.mailboxes[self.world_rank].cancel(request.pending)
            if ok:
                request.cancelled = True
        self.last_op = OpDetail(
            op="cancel", t0=t0, t1=self._clock.now, location=loc,
            extra={"cancelled": ok},
        )
        return ok

    def _finalize_request(self, request: Request, status: Optional[Status]) -> Any:
        """Apply completion clock effects and statuses; single-shot."""
        if isinstance(request, RecvRequest) and not request.cancelled:
            msg = request.pending.matched
            assert msg is not None
            self._finish_recv_clock(msg)
        st = request._status()
        if status is not None:
            status.set_from(st)
        request._finalize()
        return request._payload()

    @staticmethod
    def _request_detail(request: Request) -> dict:
        """OpDetail keyword fields describing a completed request."""
        if isinstance(request, RecvRequest) and request.pending.matched is not None:
            msg = request.pending.matched
            return {
                "src": msg.envelope.src,
                "dst": msg.envelope.dst,
                "tag": msg.envelope.tag,
                "size": msg.size,
                "seq": msg.envelope.seq,
                "peer_location": msg.send_location,
                "peer_marker": msg.send_marker,
                "peer_send_time": msg.send_time,
            }
        if isinstance(request, SendRequest):
            env = request.msg.envelope
            return {
                "src": env.src,
                "dst": env.dst,
                "tag": env.tag,
                "size": request.msg.size,
                "seq": env.seq,
            }
        return {}

    # -- probes ------------------------------------------------------------
    def pmpi_probe(
        self,
        source: int = ANY_SOURCE,
        tag: int = ANY_TAG,
        status: Optional[Status] = None,
    ) -> Status:
        proc = self.proc
        proc.check_killed()
        check_tag(tag, wildcard_ok=True)
        source = self._to_world(source, wildcard_ok=True)
        loc = self._call_site()
        t0 = self._clock.now
        mailbox = self.runtime.mailboxes[self.world_rank]
        wait = WaitInfo(self.world_rank, WaitKind.RECV, source, tag, loc)
        while (msg := mailbox.probe(source, tag, self.comm_id)) is None:
            self.runtime.scheduler.yield_blocked(proc, wait)
            proc.check_killed()
        self._clock.advance(self._cost.probe_overhead)
        st = Status(
            source=self._to_group(msg.envelope.src),
            tag=msg.envelope.tag,
            count=payload_size(msg.payload),
        )
        if status is not None:
            status.set_from(st)
        self.last_op = OpDetail(
            op="probe", t0=t0, t1=self._clock.now, location=loc,
            src=msg.envelope.src, dst=self.world_rank, tag=msg.envelope.tag,
            size=st.count,
        )
        return st

    def pmpi_iprobe(
        self,
        source: int = ANY_SOURCE,
        tag: int = ANY_TAG,
        status: Optional[Status] = None,
    ) -> bool:
        proc = self.proc
        proc.check_killed()
        check_tag(tag, wildcard_ok=True)
        source = self._to_world(source, wildcard_ok=True)
        loc = self._call_site()
        t0 = self._clock.now
        self._clock.advance(self._cost.probe_overhead)
        msg = self.runtime.mailboxes[self.world_rank].probe(source, tag, self.comm_id)
        flag = msg is not None
        if not flag:
            self._poll_yield()
        if flag and status is not None:
            assert msg is not None
            status.set_from(
                Status(
                    source=self._to_group(msg.envelope.src),
                    tag=msg.envelope.tag,
                    count=payload_size(msg.payload),
                )
            )
        self.last_op = OpDetail(
            op="iprobe", t0=t0, t1=self._clock.now, location=loc,
            extra={"flag": flag},
        )
        return flag

    def pmpi_sendrecv(
        self,
        sendobj: Any,
        dest: int,
        sendtag: int = 0,
        source: int = ANY_SOURCE,
        recvtag: int = ANY_TAG,
        status: Optional[Status] = None,
    ) -> Any:
        loc = self._call_site()
        t0 = self._clock.now
        self.send(sendobj, dest, sendtag)
        out = self.recv(source, recvtag, status)
        self.last_op = OpDetail(
            op="sendrecv", t0=t0, t1=self._clock.now, location=loc,
            src=source, dst=dest, tag=sendtag,
        )
        return out

    # -- collectives ---------------------------------------------------------
    @_collective_impl
    def pmpi_barrier(self) -> None:
        loc = self._call_site()
        t0 = self._clock.now
        self._clock.advance(self._cost.collective_overhead)
        tag = int(CollectiveTag.BARRIER)
        if self.size > 1:
            if self.rank == 0:
                for r in range(1, self.size):
                    self.recv(r, tag)
                for r in range(1, self.size):
                    self.send(None, r, tag)
            else:
                self.send(None, 0, tag)
                self.recv(0, tag)
        self.last_op = OpDetail(
            op="barrier", t0=t0, t1=self._clock.now, location=loc, root=0
        )

    @_collective_impl
    def pmpi_bcast(self, obj: Any = None, root: int = 0) -> Any:
        check_rank(root, self.size)
        loc = self._call_site()
        t0 = self._clock.now
        self._clock.advance(self._cost.collective_overhead)
        tag = int(CollectiveTag.BCAST)
        if self.rank == root:
            for r in range(self.size):
                if r != root:
                    self.send(obj, r, tag)
            out = obj
        else:
            out = self.recv(root, tag)
        self.last_op = OpDetail(
            op="bcast", t0=t0, t1=self._clock.now, location=loc, root=root,
            size=payload_size(out),
        )
        return out

    @_collective_impl
    def pmpi_scatter(
        self, sendobjs: Optional[Sequence[Any]] = None, root: int = 0
    ) -> Any:
        check_rank(root, self.size)
        loc = self._call_site()
        t0 = self._clock.now
        self._clock.advance(self._cost.collective_overhead)
        tag = int(CollectiveTag.SCATTER)
        if self.rank == root:
            if sendobjs is None or len(sendobjs) != self.size:
                raise ValueError(
                    f"scatter at root needs exactly {self.size} objects, "
                    f"got {0 if sendobjs is None else len(sendobjs)}"
                )
            for r in range(self.size):
                if r != root:
                    self.send(sendobjs[r], r, tag)
            out = sendobjs[root]
        else:
            out = self.recv(root, tag)
        self.last_op = OpDetail(
            op="scatter", t0=t0, t1=self._clock.now, location=loc, root=root
        )
        return out

    @_collective_impl
    def pmpi_gather(self, obj: Any, root: int = 0) -> Optional[list[Any]]:
        check_rank(root, self.size)
        loc = self._call_site()
        t0 = self._clock.now
        self._clock.advance(self._cost.collective_overhead)
        tag = int(CollectiveTag.GATHER)
        out: Optional[list[Any]] = None
        if self.rank == root:
            out = [None] * self.size
            out[root] = obj
            for r in range(self.size):
                if r != root:
                    out[r] = self.recv(r, tag)
        else:
            self.send(obj, root, tag)
        self.last_op = OpDetail(
            op="gather", t0=t0, t1=self._clock.now, location=loc, root=root
        )
        return out

    @_collective_impl
    def pmpi_allgather(self, obj: Any) -> list[Any]:
        loc = self._call_site()
        t0 = self._clock.now
        gathered = self.gather(obj, root=0)
        out = self.bcast(gathered, root=0)
        self.last_op = OpDetail(
            op="allgather", t0=t0, t1=self._clock.now, location=loc
        )
        return out

    @_collective_impl
    def pmpi_reduce(
        self,
        obj: Any,
        op: Optional[Callable[[Any, Any], Any]] = None,
        root: int = 0,
    ) -> Any:
        check_rank(root, self.size)
        loc = self._call_site()
        t0 = self._clock.now
        fold = op or operator.add
        tag = int(CollectiveTag.REDUCE)
        out = None
        if self.rank == root:
            acc = obj
            # Fold in rank order with root's own value in place, so the
            # result is deterministic and op need not be commutative.
            parts: list[Any] = []
            for r in range(self.size):
                if r != root:
                    parts.append((r, self.recv(r, tag)))
            merged: list[Any] = []
            ri = 0
            for r in range(self.size):
                if r == root:
                    merged.append(obj)
                else:
                    merged.append(parts[ri][1])
                    ri += 1
            acc = merged[0]
            for val in merged[1:]:
                acc = fold(acc, val)
            out = acc
        else:
            self.send(obj, root, tag)
        self.last_op = OpDetail(
            op="reduce", t0=t0, t1=self._clock.now, location=loc, root=root
        )
        return out

    @_collective_impl
    def pmpi_allreduce(
        self, obj: Any, op: Optional[Callable[[Any, Any], Any]] = None
    ) -> Any:
        loc = self._call_site()
        t0 = self._clock.now
        reduced = self.reduce(obj, op, root=0)
        out = self.bcast(reduced, root=0)
        self.last_op = OpDetail(
            op="allreduce", t0=t0, t1=self._clock.now, location=loc
        )
        return out

    @_collective_impl
    def pmpi_alltoall(self, objs: Sequence[Any]) -> list[Any]:
        if len(objs) != self.size:
            raise ValueError(
                f"alltoall needs exactly {self.size} objects, got {len(objs)}"
            )
        loc = self._call_site()
        t0 = self._clock.now
        self._clock.advance(self._cost.collective_overhead)
        tag = int(CollectiveTag.ALLTOALL)
        for r in range(self.size):
            if r != self.rank:
                self.send(objs[r], r, tag)
        out: list[Any] = [None] * self.size
        out[self.rank] = objs[self.rank]
        for r in range(self.size):
            if r != self.rank:
                out[r] = self.recv(r, tag)
        self.last_op = OpDetail(
            op="alltoall", t0=t0, t1=self._clock.now, location=loc
        )
        return out

    @_collective_impl
    def pmpi_scan(
        self, obj: Any, op: Optional[Callable[[Any, Any], Any]] = None
    ) -> Any:
        loc = self._call_site()
        t0 = self._clock.now
        self._clock.advance(self._cost.collective_overhead)
        fold = op or operator.add
        tag = int(CollectiveTag.SCAN)
        if self.rank > 0:
            acc = self.recv(self.rank - 1, tag)
            mine = fold(acc, obj)
        else:
            mine = obj
        if self.rank < self.size - 1:
            self.send(mine, self.rank + 1, tag)
        self.last_op = OpDetail(
            op="scan", t0=t0, t1=self._clock.now, location=loc
        )
        return mine

    # -- communicator management ------------------------------------------
    @_collective_impl
    def pmpi_split(self, color: Optional[int], key: int = 0) -> "Optional[Comm]":
        loc = self._call_site()
        t0 = self._clock.now
        self._clock.advance(self._cost.collective_overhead)
        entries = self.gather((color, key, self.rank), root=0)
        assignment: Optional[tuple[int, tuple[int, ...]]]
        if self.rank == 0:
            assert entries is not None
            by_color: dict[int, list[tuple[int, int]]] = {}
            for c, k, r in entries:
                if c is not None:
                    by_color.setdefault(c, []).append((k, r))
            plans: dict[int, tuple[int, tuple[int, ...]]] = {}
            for c in sorted(by_color):
                members = [r for (_, r) in sorted(by_color[c])]
                new_id = self.runtime.alloc_comm_id()
                world_group = tuple(self.group[r] for r in members)
                for r in members:
                    plans[r] = (new_id, world_group)
            assignments = [plans.get(r) for r in range(self.size)]
            assignment = self.scatter(assignments, root=0)
        else:
            assignment = self.scatter(None, root=0)
        self.last_op = OpDetail(
            op="split", t0=t0, t1=self._clock.now, location=loc,
            extra={"color": color, "key": key},
        )
        if assignment is None:
            return None
        new_id, world_group = assignment
        return Comm(self.runtime, self.world_rank, group=world_group,
                    comm_id=new_id)

    # -- virtual computation ----------------------------------------------
    def pmpi_compute(self, duration: float, label: str = "compute") -> None:
        proc = self.proc
        proc.check_killed()
        if duration < 0:
            raise ValueError(f"compute duration must be >= 0, got {duration}")
        loc = self._call_site()
        t0 = self._clock.now
        self._clock.advance(duration)
        self.last_op = OpDetail(
            op="compute", t0=t0, t1=self._clock.now, location=loc,
            extra={"label": label},
        )
