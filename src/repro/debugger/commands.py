"""A text command front end over :class:`DebugSession`.

p2d2 is a GUI; its operations map one-to-one onto the commands below, so
scripted and interactive (REPL) debugging sessions read like the paper's
worked example.  ``examples/debug_deadlock.py`` drives this interpreter
through the Figure 5-7 scenario.

Commands::

    run                     start / resume the whole program
    continue [r ...]        resume stopped processes (all or listed)
    step <r>                advance process r one instrumentation point
    interrupt               stop everything
    where [r]               position of one/all processes
    backtrace <r>           user-level stack of a stopped/blocked process
    locals <r> [depth]      locals of one of its frames (0 = innermost)
    states                  process states and markers
    break <file:line|fn> [r ...]   set a location breakpoint
    breaks                  list breakpoints
    delete <id>             remove a breakpoint
    threshold <r> <m|off>   set a UserMonitor threshold directly
    stopline <event> [vertical|past|future]   compute a stopline
    replay                  replay to the current stopline
    undo [n]                parallel undo of the last n resumptions
    trace [n]               show the last n trace records (default 10)
    matching                unmatched/intertwined/missed-message report
    deadlock                wait-for cycle report
    profile                 per-process time breakdown + comm matrix
    critical                critical-path analysis of the trace
    races                   wildcard message races in the trace
    stats                   history-index build/extend counters,
                            join wavefront and per-kernel timings
    save-trace <file>       write the history to a trace file
    export-svg <file>       render the time-space diagram as SVG
    help                    this text
"""

from __future__ import annotations

import shlex
from typing import Callable

from .session import DebugSession
from .stopline import StoplinePlacement


class CommandError(Exception):
    """Bad command syntax or arguments."""


class CommandInterpreter:
    """Parses command lines and drives a session; returns display text."""

    def __init__(self, session: DebugSession) -> None:
        self.session = session
        self._handlers: dict[str, Callable[[list[str]], str]] = {
            "run": self._cmd_run,
            "continue": self._cmd_continue,
            "c": self._cmd_continue,
            "step": self._cmd_step,
            "s": self._cmd_step,
            "interrupt": self._cmd_interrupt,
            "where": self._cmd_where,
            "backtrace": self._cmd_backtrace,
            "bt": self._cmd_backtrace,
            "locals": self._cmd_locals,
            "states": self._cmd_states,
            "break": self._cmd_break,
            "breaks": self._cmd_breaks,
            "delete": self._cmd_delete,
            "threshold": self._cmd_threshold,
            "stopline": self._cmd_stopline,
            "replay": self._cmd_replay,
            "undo": self._cmd_undo,
            "trace": self._cmd_trace,
            "matching": self._cmd_matching,
            "deadlock": self._cmd_deadlock,
            "profile": self._cmd_profile,
            "critical": self._cmd_critical,
            "races": self._cmd_races,
            "stats": self._cmd_stats,
            "save-trace": self._cmd_save_trace,
            "export-svg": self._cmd_export_svg,
            "help": self._cmd_help,
        }

    # ------------------------------------------------------------------
    def execute(self, line: str) -> str:
        """Run one command line; returns the text to display."""
        parts = shlex.split(line)
        if not parts:
            return ""
        cmd, args = parts[0], parts[1:]
        handler = self._handlers.get(cmd)
        if handler is None:
            raise CommandError(f"unknown command {cmd!r}; try 'help'")
        return handler(args)

    # ------------------------------------------------------------------
    @staticmethod
    def _rank(token: str) -> int:
        try:
            return int(token)
        except ValueError:
            raise CommandError(f"expected a rank, got {token!r}") from None

    def _cmd_run(self, args: list[str]) -> str:
        return self.session.run().describe()

    def _cmd_continue(self, args: list[str]) -> str:
        ranks = [self._rank(a) for a in args] or None
        return self.session.cont(ranks).describe()

    def _cmd_step(self, args: list[str]) -> str:
        if len(args) != 1:
            raise CommandError("usage: step <rank>")
        return self.session.step(self._rank(args[0])).describe()

    def _cmd_interrupt(self, args: list[str]) -> str:
        return self.session.interrupt().describe()

    def _cmd_where(self, args: list[str]) -> str:
        if args:
            return self.session.where(self._rank(args[0]))
        return "\n".join(
            self.session.where(r) for r in range(self.session.nprocs)
        )

    def _cmd_backtrace(self, args: list[str]) -> str:
        if len(args) != 1:
            raise CommandError("usage: backtrace <rank>")
        try:
            frames = self.session.stack(self._rank(args[0]))
        except ValueError as exc:
            return str(exc)
        return "\n".join(f"#{i} {f}" for i, f in enumerate(frames)) or "(no user frames)"

    def _cmd_locals(self, args: list[str]) -> str:
        if not 1 <= len(args) <= 2:
            raise CommandError("usage: locals <rank> [depth]")
        depth = int(args[1]) if len(args) > 1 else 0
        try:
            values = self.session.frame_locals(self._rank(args[0]), depth)
        except ValueError as exc:
            return str(exc)
        return "\n".join(f"{k} = {v}" for k, v in sorted(values.items()))

    def _cmd_states(self, args: list[str]) -> str:
        states = self.session.states()
        markers = self.session.markers()
        return "\n".join(
            f"p{r}: {states[r].value} marker={markers.get(r, 0)}"
            for r in sorted(states)
        )

    def _cmd_break(self, args: list[str]) -> str:
        if not args:
            raise CommandError("usage: break <file:line | function> [rank ...]")
        spec = args[0]
        ranks = [self._rank(a) for a in args[1:]] or None
        if ":" in spec:
            filename, _, lineno = spec.rpartition(":")
            try:
                bp = self.session.breakpoints.break_at_line(
                    filename, int(lineno), ranks=ranks
                )
            except ValueError:
                raise CommandError(f"bad line number in {spec!r}") from None
        else:
            bp = self.session.breakpoints.break_at_function(spec, ranks=ranks)
        return f"breakpoint {bp.bp_id}: {bp.description}"

    def _cmd_breaks(self, args: list[str]) -> str:
        bps = self.session.breakpoints.list()
        if not bps:
            return "no breakpoints"
        return "\n".join(
            f"{bp.bp_id}: {bp.description} hits={bp.hits}"
            f"{' (disabled)' if not bp.enabled else ''}"
            for bp in bps
        )

    def _cmd_delete(self, args: list[str]) -> str:
        if len(args) != 1:
            raise CommandError("usage: delete <breakpoint-id>")
        ok = self.session.breakpoints.remove(int(args[0]))
        return "deleted" if ok else "no such breakpoint"

    def _cmd_threshold(self, args: list[str]) -> str:
        if len(args) != 2:
            raise CommandError("usage: threshold <rank> <marker|off>")
        rank = self._rank(args[0])
        if args[1] == "off":
            self.session.set_threshold(rank, None)
            return f"p{rank}: threshold cleared"
        self.session.set_threshold(rank, int(args[1]))
        return f"p{rank}: threshold {args[1]}"

    def _cmd_stopline(self, args: list[str]) -> str:
        if not args:
            raise CommandError("usage: stopline <event-index> [vertical|past|future]")
        event = int(args[0])
        placement = StoplinePlacement.VERTICAL
        if len(args) > 1:
            try:
                placement = {
                    "vertical": StoplinePlacement.VERTICAL,
                    "past": StoplinePlacement.PAST_FRONTIER,
                    "future": StoplinePlacement.FUTURE_FRONTIER,
                }[args[1]]
            except KeyError:
                raise CommandError(f"unknown placement {args[1]!r}") from None
        return self.session.set_stopline(event, placement).describe()

    def _cmd_replay(self, args: list[str]) -> str:
        return self.session.replay().describe()

    def _cmd_undo(self, args: list[str]) -> str:
        steps = int(args[0]) if args else 1
        return self.session.undo(steps).describe()

    def _cmd_trace(self, args: list[str]) -> str:
        n = int(args[0]) if args else 10
        records = list(self.session.trace())[-n:]
        return "\n".join(str(r) for r in records) or "(empty trace)"

    def _cmd_matching(self, args: list[str]) -> str:
        return self.session.matching_report().as_text()

    def _cmd_deadlock(self, args: list[str]) -> str:
        return self.session.deadlock_report().as_text()

    def _cmd_profile(self, args: list[str]) -> str:
        from repro.analysis import (
            communication_matrix,
            function_profile_text,
            time_breakdown_text,
        )

        idx = self.session.index()
        trace = idx.trace
        parts = [
            time_breakdown_text(trace, index=idx),
            "",
            communication_matrix(trace, index=idx).as_text(),
        ]
        fn = function_profile_text(trace, index=idx)
        if "no function records" not in fn:
            parts += ["", fn]
        return "\n".join(parts)

    def _cmd_critical(self, args: list[str]) -> str:
        from repro.analysis import critical_path

        limit = int(args[0]) if args else 12
        idx = self.session.index()
        return critical_path(idx.trace, index=idx).as_text(limit=limit)

    def _cmd_races(self, args: list[str]) -> str:
        from repro.analysis import detect_races

        idx = self.session.index()
        races = detect_races(idx.trace, index=idx)
        if not races:
            return "no message races detected"
        return "\n".join(r.describe() for r in races)

    def _cmd_stats(self, args: list[str]) -> str:
        text = self.session.index().stats().as_text()
        paged = getattr(self.session, "paged_index", None)
        if paged is not None:
            text += "\n" + paged.stats().as_text()
        return text

    def _cmd_save_trace(self, args: list[str]) -> str:
        if len(args) != 1:
            raise CommandError("usage: save-trace <file>")
        from repro.trace import save_trace

        trace = self.session.trace()
        save_trace(trace, args[0])
        return f"wrote {len(trace)} records to {args[0]}"

    def _cmd_export_svg(self, args: list[str]) -> str:
        if len(args) != 1:
            raise CommandError("usage: export-svg <file>")
        from repro.viz import build_diagram, save_svg

        diagram = build_diagram(self.session.trace())
        if self.session.current_stopline is not None:
            diagram.set_stopline(self.session.current_stopline.time)
        save_svg(diagram, args[0])
        return f"wrote {args[0]}"

    def _cmd_help(self, args: list[str]) -> str:
        return __doc__ or ""


def run_script(session: DebugSession, lines: list[str]) -> list[str]:
    """Execute a list of command lines; returns their outputs."""
    interp = CommandInterpreter(session)
    return [interp.execute(line) for line in lines]
