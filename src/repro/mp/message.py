"""Message envelopes carried by the simulated runtime.

A message records everything the paper's trace layer needs: endpoints,
tag, a per-(src,dst,tag) sequence number (the key to unique send/receive
matching under MPI's non-overtaking rule, Section 3.2 of the paper), and
virtual-time stamps for the time-space diagram.
"""

from __future__ import annotations

import copy
import itertools
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .datatypes import ANY_SOURCE, ANY_TAG, SourceLocation

_global_msg_ids = itertools.count()


def payload_size(payload: Any) -> int:
    """Best-effort element count of a payload, for ``Status.count``.

    NumPy arrays report their ``size``; sized containers their ``len``;
    scalars and opaque objects count as 1.  The size also feeds the
    cost model (per-element transfer cost) and trace records.
    """
    if payload is None:
        return 0
    if isinstance(payload, np.ndarray):
        return int(payload.size)
    if isinstance(payload, (bytes, bytearray, memoryview, str)):
        return len(payload)
    try:
        return len(payload)  # type: ignore[arg-type]
    except TypeError:
        return 1


@dataclass
class Envelope:
    """The matching-relevant header of a message.

    ``src``/``dst`` are *world* ranks.  ``seq`` numbers messages per
    ordered (comm_id, src, dst, tag) quadruple, starting at 0; under the
    MPI non-overtaking guarantee this makes the pairing of send events
    with receive events unique, which the paper relies on to build the
    trace graph's message arcs.  ``comm_id`` isolates communicators
    created by ``Comm.split``: a receive on one communicator never
    matches another's traffic (MPI's communication-context guarantee).
    """

    src: int
    dst: int
    tag: int
    seq: int
    comm_id: int = 0

    def key(self) -> tuple[int, int, int, int]:
        """The FIFO-order key (comm_id, src, dst, tag)."""
        return (self.comm_id, self.src, self.dst, self.tag)

    def __str__(self) -> str:  # pragma: no cover - repr convenience
        return f"{self.src}->{self.dst} tag={self.tag} #{self.seq}"


@dataclass
class Message:
    """A payload plus envelope plus the trace-relevant metadata.

    Attributes
    ----------
    envelope:
        Matching header; see :class:`Envelope`.
    payload:
        The user object being communicated.  The runtime deep-copies
        array payloads at send time so later mutation by the sender does
        not alter the message (value semantics, as in real MPI).
    msg_id:
        Globally unique id, used by the replay log and tests.
    send_time:
        Virtual time at which the send *completed locally* (the message
        left the sender).
    arrival_order:
        Global monotonically increasing stamp assigned when the message
        is deposited in the destination mailbox.  Wildcard receives match
        the available message with the smallest arrival order, making
        matching deterministic for a deterministic schedule; the replay
        director overrides this choice (Section 4.2 nondeterminism
        control).
    send_location / send_marker:
        Source construct and execution-marker value at the send, copied
        into the receive-side trace record so message lines can be tied
        back to the sending statement.
    synchronous:
        True for rendezvous-mode sends; the sender stays blocked until
        this message is matched.
    """

    envelope: Envelope
    payload: Any
    msg_id: int = field(default_factory=lambda: next(_global_msg_ids))
    send_time: float = 0.0
    arrival_order: int = -1
    send_location: SourceLocation = field(default_factory=SourceLocation.unknown)
    send_marker: int = -1
    synchronous: bool = False

    @property
    def size(self) -> int:
        """Element count of the payload (cached lazily is not worth it)."""
        return payload_size(self.payload)

    def matches(self, source: int, tag: int) -> bool:
        """Does this message satisfy a receive posted with (source, tag)?

        ``source``/``tag`` may be the ``ANY_SOURCE``/``ANY_TAG`` wildcards.
        """
        if source != ANY_SOURCE and self.envelope.src != source:
            return False
        if tag != ANY_TAG and self.envelope.tag != tag:
            return False
        return True


def copy_payload(payload: Any) -> Any:
    """Copy a payload at send time to give value semantics.

    NumPy arrays are copied; immutable scalars/strings/bytes/tuples pass
    through; other containers are deep-copied.  This mirrors MPI's
    semantics where the send buffer may be reused after the send returns.
    """
    if payload is None or isinstance(
        payload, (int, float, complex, bool, str, bytes, frozenset)
    ):
        return payload
    if isinstance(payload, np.ndarray):
        return payload.copy()
    if isinstance(payload, tuple):
        return tuple(copy_payload(item) for item in payload)
    return copy.deepcopy(payload)
