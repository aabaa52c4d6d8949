"""Recursion headroom for the passes that recurse once per nesting level.

The frontend (parse, sema, lowering) recurses once per nesting level of
its source and P2's walk once per block of a path.  Each stops at a
fixed bound of its own — :data:`repro.lang.parser.MAX_STATEMENT_NESTING`
and :data:`~repro.lang.parser.MAX_EXPRESSION_NESTING` for the frontend,
:data:`repro.core.analyzer.MAX_PATH_DEPTH` for P2 — and runs under
:func:`headroom`, which raises the interpreter's recursion limit by
what its bound can use.  The caller's own depth is below the limit it
found, so a pass stops where its input says, whether it runs from the
CLI, a test, a daemon thread or a pool worker.
"""

from __future__ import annotations

import contextlib
import os
import sys
import threading
from typing import Iterator

_lock = threading.Lock()
_users = 0
_outer = 0


def _reset() -> None:
    """A forked pool worker starts with no pass of its own in flight,
    and with a lock no other thread of the parent can still hold."""
    global _lock, _users
    _lock = threading.Lock()
    _users = 0


os.register_at_fork(after_in_child=_reset)


@contextlib.contextmanager
def headroom(frames: int) -> Iterator[None]:
    """Run with the recursion limit at least ``frames`` above the one
    the first of the overlapping users found.  Overlapping uses share
    one raise (the largest asked for); the last to leave restores the
    limit the first one found."""
    global _users, _outer
    with _lock:
        if _users == 0:
            _outer = sys.getrecursionlimit()
        _users += 1
        if sys.getrecursionlimit() < _outer + frames:
            sys.setrecursionlimit(_outer + frames)
    try:
        yield
    finally:
        with _lock:
            _users -= 1
            if _users == 0:
                sys.setrecursionlimit(_outer)
