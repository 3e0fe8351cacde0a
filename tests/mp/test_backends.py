"""Backend registry, factory resolution, capability gating, and the
simtime handoff through the lifecycle edges."""

from __future__ import annotations

import sys
import threading

import pytest

from repro.apps import ring_program
from repro.mp import (
    BACKEND_ENV_VAR,
    CooperativeBackend,
    MPError,
    MprocBackend,
    Runtime,
    Scheduler,
    SimtimeBackend,
    ThreadedBackend,
    available_backends,
    create_runtime,
    default_backend,
    make_backend,
    run_program,
)
from repro.mp.process import ProcState
from repro.mp.scheduler import RunOutcome


class TestRegistry:
    def test_builtins_registered(self):
        assert {"threaded", "simtime", "mproc"} <= set(available_backends())

    def test_unknown_name_lists_choices(self):
        with pytest.raises(MPError, match="unknown execution backend 'nope'"):
            make_backend("nope")
        with pytest.raises(MPError, match="threaded"):
            make_backend("nope")

    @pytest.mark.parametrize(
        "alias,cls",
        [
            ("thread", ThreadedBackend),
            ("threads", ThreadedBackend),
            ("sim", SimtimeBackend),
            ("simulated", SimtimeBackend),
            ("mp", MprocBackend),
            ("multiprocessing", MprocBackend),
        ],
    )
    def test_aliases(self, alias, cls):
        assert isinstance(make_backend(alias), cls)

    def test_instance_passthrough(self):
        be = SimtimeBackend()
        assert make_backend(be) is be

    def test_env_default(self, monkeypatch):
        monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
        assert default_backend() == "threaded"
        monkeypatch.setenv(BACKEND_ENV_VAR, "simtime")
        assert default_backend() == "simtime"
        rt = Runtime(2)
        assert isinstance(rt.backend, SimtimeBackend)

    def test_scheduler_alias_is_threaded_backend(self):
        # Historical name: the pre-backend Scheduler was the threaded engine.
        assert Scheduler is ThreadedBackend
        assert issubclass(Scheduler, CooperativeBackend)


class TestRuntimeIntegration:
    @pytest.mark.parametrize("backend", ["threaded", "simtime"])
    def test_run_program_backend_kwarg(self, backend):
        rt = run_program(ring_program(rounds=1), nprocs=3, backend=backend)
        assert rt.procs[0].result == 1.0 * sum(range(3))
        assert rt.backend.name == backend

    def test_create_runtime(self):
        rt = create_runtime("simtime", 2)
        try:
            assert isinstance(rt.backend, SimtimeBackend)
            assert rt.backend.runtime is rt
        finally:
            rt.shutdown()

    def test_unknown_backend_at_runtime_construction(self):
        with pytest.raises(MPError, match="unknown execution backend"):
            Runtime(2, backend="bogus")

    def test_backend_rebind_rejected(self):
        rt = create_runtime("simtime", 2)
        try:
            with pytest.raises(MPError, match="already bound"):
                Runtime(2, backend=rt.backend)
        finally:
            rt.shutdown()

    def test_scheduler_property_is_backend(self):
        rt = Runtime(2, backend="simtime")
        try:
            assert rt.scheduler is rt.backend
        finally:
            rt.shutdown()


class TestCapabilityGating:
    def test_mproc_rejects_debugger_surface(self):
        rt = Runtime(2, backend="mproc")
        try:
            with pytest.raises(MPError, match="does not support the debugger"):
                rt.set_thresholds({0: 1})
        finally:
            rt.shutdown()

    def test_mproc_rejects_target_wrappers(self):
        rt = Runtime(2, backend="mproc")
        try:
            with pytest.raises(MPError, match="target_wrappers"):
                rt.launch(ring_program(), target_wrappers=[lambda t, r: t])
        finally:
            rt.shutdown()

    def test_mproc_rejects_stop_on_entry(self):
        rt = Runtime(2, backend="mproc")
        try:
            with pytest.raises(MPError, match="debugger"):
                rt.launch(ring_program(), stop_on_entry=True)
        finally:
            rt.shutdown()

    def test_cooperative_backends_support_debugger(self):
        for name in ("threaded", "simtime"):
            be = make_backend(name)
            assert be.supports_debugger and be.supports_wrappers
            assert be.deterministic
        assert not MprocBackend().deterministic


def _finishes(scenario, timeout: float = 30.0) -> None:
    """Run ``scenario`` (which drives a runtime as its controller) on a
    helper thread: a lost token shows up as a hang, which fails here
    instead of wedging the suite.  Exceptions are re-raised."""
    errors: list[BaseException] = []

    def body() -> None:
        try:
            scenario()
        except BaseException as exc:  # noqa: BLE001 - re-raised below
            errors.append(exc)

    thread = threading.Thread(target=body, daemon=True)
    thread.start()
    thread.join(timeout)
    assert not thread.is_alive(), "token handoff hung"
    if errors:
        raise errors[0]


class TestSimtimeHandoffLifecycle:
    """The simtime raw-lock handoff through every lifecycle edge: each
    grant must be matched by exactly one release, so a lost or doubled
    token surfaces as a hang or a ``RuntimeError``."""

    @pytest.fixture(autouse=True)
    def _no_carrier_errors(self, monkeypatch):
        # A RuntimeError on a carrier thread (e.g. releasing an unheld
        # lock in the handback) escapes to threading.excepthook.
        seen: list[BaseException] = []
        monkeypatch.setattr(threading, "excepthook", lambda args: seen.append(args.exc_value))
        yield
        assert seen == []

    @staticmethod
    def _stepper(n: int):
        def prog(comm):
            for _ in range(n):
                comm.compute(1.0)
            return comm.rank

        return prog

    @staticmethod
    def _all_exited(rt: Runtime) -> None:
        assert all(p.state is ProcState.EXITED for p in rt.procs)
        assert not any(t.is_alive() for t in rt.backend._threads.values())

    def test_shutdown_of_never_started_carriers(self):
        def scenario():
            rt = Runtime(8, backend="simtime")
            rt.launch(self._stepper(3))
            rt.shutdown()
            assert rt.backend._threads == {}
            self._all_exited(rt)

        _finishes(scenario)

    def test_kill_while_parked_stopped_or_blocked(self):
        def prog(comm):
            if comm.rank == 0:
                return comm.recv(source=1)
            comm.send("late", dest=0)

        def scenario():
            rt = Runtime(2, backend="simtime")
            rt.launch(prog, stop_on_entry=True)
            assert rt.run_until_idle().outcome is RunOutcome.STOPPED
            # Rank 0 runs into its receive and blocks on rank 1, which
            # is still parked at entry.
            report = rt.resume([0])
            assert report.outcome is RunOutcome.STOPPED
            assert rt.procs[0].state is ProcState.BLOCKED
            assert rt.procs[1].state is ProcState.STOPPED
            rt.shutdown()
            self._all_exited(rt)
            assert rt.procs[0].result is None

        _finishes(scenario)

    def test_stop_on_entry_then_resume(self):
        def scenario():
            rt = Runtime(3, backend="simtime")
            rt.launch(self._stepper(2), stop_on_entry=True)
            report = rt.run_until_idle()
            assert report.outcome is RunOutcome.STOPPED
            assert all(p.state is ProcState.STOPPED for p in rt.procs)
            assert rt.resume().outcome is RunOutcome.FINISHED
            assert rt.results() == [0, 1, 2]
            rt.shutdown()

        _finishes(scenario)

    def test_max_grants_limit_then_resume(self):
        def scenario():
            rt = Runtime(4, backend="simtime", max_grants=2)
            rt.launch(ring_program(rounds=2))
            report = rt.run_until_idle()
            assert report.outcome is RunOutcome.LIMIT
            assert report.grants == 2
            # Only the granted ranks ever got a carrier.
            assert len(rt.backend._threads) <= 2
            rt.backend.max_grants = None
            assert rt.run_until_idle().outcome is RunOutcome.FINISHED
            assert rt.procs[0].result == 2.0 * sum(range(4))
            rt.shutdown()
            self._all_exited(rt)

        _finishes(scenario)

    def test_limit_then_shutdown_retires_unstarted_ranks(self):
        def scenario():
            rt = Runtime(4, backend="simtime", max_grants=1)
            rt.launch(ring_program(rounds=1))
            assert rt.run_until_idle().outcome is RunOutcome.LIMIT
            rt.shutdown()
            self._all_exited(rt)

        _finishes(scenario)

    def test_back_to_back_run_until_idle(self):
        def scenario():
            rt = Runtime(3, backend="simtime")
            rt.launch(self._stepper(2))
            assert rt.run_until_idle().outcome is RunOutcome.FINISHED
            for _ in range(3):
                report = rt.run_until_idle()
                assert report.outcome is RunOutcome.FINISHED
                assert report.grants == 0
            assert rt.results() == [0, 1, 2]
            rt.shutdown()

        _finishes(scenario)

    def test_handoff_under_short_switch_interval(self):
        # More carriers than cores and a thread switch every microsecond:
        # a lost or doubled token would hang or change the schedule.
        def run(backend: str):
            rt = run_program(
                ring_program(rounds=2), nprocs=32, backend=backend,
                policy="random", seed=3,
            )
            return [repr(r) for r in rt.results()], rt.comm_log.to_jsonable()

        expected = run("threaded")
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got: list = []
            _finishes(lambda: got.append(run("simtime")))
        finally:
            sys.setswitchinterval(interval)
        assert got == [expected]

    def test_stray_double_grant_raises(self):
        rt = Runtime(2, backend="simtime")
        rt.launch(self._stepper(1))
        lock = rt.backend._locks[0]
        lock.release()  # one grant: the rank's lock is now free
        with pytest.raises(RuntimeError):
            lock.release()  # a second grant has no permit to bank
        lock.acquire()  # take the stray token back before teardown
        rt.shutdown()
        self._all_exited(rt)
