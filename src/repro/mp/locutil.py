"""Caller-location discovery.

Trace records must point at the *user* construct that issued an operation
(the "click on a message line to see the send in the source" feature of
Section 3.1), so runtime frames have to be skipped when walking the
stack.  A frame belongs to the runtime if its file lives in one of the
infrastructure packages below; everything else -- applications, examples,
tests -- counts as user code.

Every recorded event walks the stack, so the verdict for a file is
computed once and memoised by ``co_filename``: a walk then costs one dict
lookup per frame.  Keying on the file name (not the code object) keeps
the cache bounded by the number of distinct source files -- exec'd
programs all share ``"<string>"`` -- and pins no code objects.
"""

from __future__ import annotations

import os
import sys

from .datatypes import SourceLocation

#: Path fragments identifying infrastructure frames to skip.
_INFRA_FRAGMENTS = (
    os.sep + os.path.join("repro", "mp") + os.sep,
    os.sep + os.path.join("repro", "instrument") + os.sep,
    os.sep + os.path.join("repro", "debugger") + os.sep,
    os.sep + os.path.join("repro", "trace") + os.sep,
)

#: co_filename -> is_infrastructure_file verdict, filled on first sight.
_verdicts: dict[str, bool] = {}


def is_infrastructure_file(filename: str) -> bool:
    """True for files inside the runtime/instrumentation packages."""
    verdict = _verdicts.get(filename)
    if verdict is None:
        verdict = _verdicts[filename] = any(
            frag in filename for frag in _INFRA_FRAGMENTS
        )
    return verdict


def caller_location(skip: int = 1, max_depth: int = 30) -> SourceLocation:
    """The nearest non-infrastructure frame above the caller.

    ``skip`` frames are unconditionally discarded first (the helper's own
    caller chain).  Returns :meth:`SourceLocation.unknown` when the whole
    stack is infrastructure (e.g. runtime-internal self-tests).
    """
    try:
        frame = sys._getframe(skip + 1)
    except ValueError:  # pragma: no cover - stack shallower than skip
        return SourceLocation.unknown()
    verdicts = _verdicts
    depth = 0
    while frame is not None and depth < max_depth:
        code = frame.f_code
        infra = verdicts.get(code.co_filename)
        if infra is None:
            infra = is_infrastructure_file(code.co_filename)
        if not infra:
            return SourceLocation(
                filename=code.co_filename,
                lineno=frame.f_lineno,
                function=code.co_name,
            )
        frame = frame.f_back
        depth += 1
    return SourceLocation.unknown()
