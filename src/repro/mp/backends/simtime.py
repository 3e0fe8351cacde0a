"""Simulated-time backend: lazy carriers, O(1) raw-lock token handoffs.

Scales the cooperative engine to 1000+-rank traces.  The schedule it
produces is *identical* to the threaded backend's -- both run the shared
:class:`~repro.mp.backends.engine.CooperativeBackend` engine and the
same :class:`~repro.mp.scheduler.SchedulingPolicy` -- so traces,
CommLogs, and markers are bit-for-bit the same for a given (program,
policy, seed).  Only the cost of a context switch changes:

* **Raw-lock handoff.**  Each rank owns a private binary lock and the
  controller owns one more, all allocated already held
  (``_thread.allocate_lock``).  A grant is one ``release`` on the
  grantee's lock plus one ``acquire`` on the controller's -- O(1),
  touching exactly the two parties involved.  The threaded backend's
  shared condition variable wakes *every* parked rank per grant
  (``notify_all``), an O(nprocs) thundering herd that dominates
  wall-clock from a few hundred ranks up.  A raw lock is the C-level
  primitive; ``threading.Semaphore`` builds the same handoff out of a
  pure-Python ``Condition`` and costs several lock operations per
  ``release``/``acquire``.  Being binary, a raw lock also refuses a
  stray second grant (``RuntimeError: release unlocked lock``) instead
  of silently banking a permit.

* **Lazy carriers.**  A rank's carrier thread is created on its *first*
  grant, not at launch.  Launching 1024 ranks allocates 1024 locks and
  no threads; ranks that never run (e.g. a trace truncated by
  ``max_grants`` or an early stop) never pay thread creation, and
  teardown retires them without unwinding a stack that was never built.

Why carrier threads at all?  Plain-callable rank targets (required so
the same program runs unmodified on every backend, debugger included)
cannot be suspended mid-stack on a single CPython thread without a
stack-switching extension (greenlet), which this environment does not
ship.  Threads here are purely suspension vehicles: at most one is ever
runnable, none contend, and the scheduler -- not the OS -- decides every
interleaving.  "Simulated time" refers to what the backend preserves:
virtual clocks and the deterministic schedule, with no real-time
component influencing anything.
"""

from __future__ import annotations

import threading
from _thread import LockType, allocate_lock

from ..process import ProcState, Process
from .engine import CooperativeBackend


class SimtimeBackend(CooperativeBackend):
    """Lazy thread carriers with per-rank raw-lock handoffs."""

    name = "simtime"

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        #: controller's token-return lock (held while a rank runs)
        self._controller = _held_lock()
        #: rank -> that rank's token-arrival lock (held while it waits)
        self._locks: dict[int, LockType] = {}

    # ------------------------------------------------------------------
    # carrier lifecycle
    # ------------------------------------------------------------------
    def start_proc(self, proc: Process) -> None:
        if proc.rank in self._locks:
            raise RuntimeError(f"{proc!r} already started")
        proc.state = ProcState.READY
        self._ready_add(proc)
        self._locks[proc.rank] = _held_lock()
        # Carrier thread deferred to the first grant.

    def _ensure_carrier(self, proc: Process) -> None:
        if proc.rank in self._threads:
            return
        thread = threading.Thread(
            target=self._carrier_body, args=(proc,), name=proc.name, daemon=True
        )
        self._threads[proc.rank] = thread
        thread.start()

    def _carrier_body(self, proc: Process) -> None:
        self._enter_worker_context(proc)
        proc.run_target()

    def _kill_grant(self, proc: Process) -> None:
        if proc.terminated:
            return
        self._ready_discard(proc)
        if proc.rank not in self._threads:
            # The carrier never started, so no user code ever ran and
            # there is no stack to unwind; retire the rank directly.
            proc.state = ProcState.EXITED
            return
        self._grant(proc)

    # ------------------------------------------------------------------
    # handoff primitives
    # ------------------------------------------------------------------
    def _handoff(self, proc: Process) -> None:
        self._ensure_carrier(proc)
        self._locks[proc.rank].release()
        self._controller.acquire()

    def _await(self, proc: Process) -> None:
        self._locks[proc.rank].acquire()

    def _handback(self, proc: Process) -> None:
        self._controller.release()


def _held_lock() -> LockType:
    """A binary lock that starts held: ``release`` hands a token over,
    ``acquire`` waits for one."""
    lock = allocate_lock()
    lock.acquire()
    return lock
