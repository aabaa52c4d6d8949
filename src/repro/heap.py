"""Heap and process lifetime policy for analysis runs.

An analysis builds a large heap that mostly stays alive until the run
ends: the AST and IR, unpickled cache payloads, alias partitions, P2
outcomes.  CPython's default collector walks all of it on every full
(generation-2) pass, and those passes free almost nothing.  Inside
:func:`analysis_heap`:

* young collections keep running, at a higher threshold, so short-lived
  cyclic garbage (alias-graph nodes, explorer frames) stays bounded;
* automatic full collections are suppressed;
* the previous thresholds come back on exit.

A long-lived process keeps a resident program (a daemon session's
compiled modules) and must still reclaim each request's cyclic garbage.
:func:`resident_heap` is that step: one collection per analyzing request
over what was allocated since the last ``gc.freeze()``, then a freeze,
so the pass never walks the resident modules.  Modules the session
drops become frozen garbage; they are counted (:func:`drop_resident`)
and a thaw makes the pass a full one once they outgrow a quarter of
the table.

A worker process does nothing but analysis and adopts the policy for
its lifetime (:func:`adopt`).  A one-shot process ends through
:func:`exit_process`, which skips tearing down a heap the OS reclaims
anyway.  ``docs/engine-internals.md`` ("Heap and process lifetime")
carries the measurements behind each choice.
"""

from __future__ import annotations

import contextlib
import gc
import os
import sys
import threading
from typing import Dict, Iterator, NoReturn, Tuple

#: (young, middle, full) collector thresholds inside an analysis: a
#: young collection per 10k net allocations instead of 700, a middle one
#: per 10 young ones, and a full threshold (the largest C int) that the
#: generation-2 counter never reaches.  Chosen by measurement.
ANALYSIS_THRESHOLDS: Tuple[int, int, int] = (10_000, 10, 2**31 - 1)

#: a full pass is due once the resident modules dropped since the last
#: one exceed ``1 / THAW_SHARE`` of the table: CPython's own rule, which
#: runs a full collection once the objects awaiting one exceed a
#: quarter of the long-lived ones
THAW_SHARE = 4

_lock = threading.Lock()
_depth = 0
_outer: Tuple[int, ...] = ()
# The frozen generation is process-wide, so its bookkeeping is too.
_dropped = 0
_thaws = 0


@contextlib.contextmanager
def analysis_heap() -> Iterator[None]:
    """Run the body under :data:`ANALYSIS_THRESHOLDS`.

    Nested or overlapping uses (a daemon request that timed out still
    running beside the next one) share one policy: the last to leave
    restores the thresholds the first one found.  The collector's
    enabled state is never touched.
    """
    global _depth, _outer
    with _lock:
        if _depth == 0:
            _outer = gc.get_threshold()
            gc.set_threshold(*ANALYSIS_THRESHOLDS)
        _depth += 1
    try:
        yield
    finally:
        with _lock:
            _depth -= 1
            if _depth == 0:
                gc.set_threshold(*_outer)


@contextlib.contextmanager
def resident_heap(resident: int) -> Iterator[None]:
    """The resident-heap step, wrapped around compiling one request's
    changed files into a table of ``resident`` modules.

    The caller first unlinks earlier programs from its resident modules,
    so nothing frozen keeps the previous request's garbage reachable.
    On entry: thaw (``gc.unfreeze()``) only when a full pass is due,
    then make exactly one collection, which walks only what was
    allocated since the last freeze (the previous request's
    temporaries), or everything after a thaw.  The body compiles; on a
    normal exit everything alive is frozen, the new modules with it, so
    the next request's pass skips them.  Collecting before compiling
    keeps a cold first request from walking the modules it just built.
    """
    global _dropped, _thaws
    with _lock:
        thaw = _dropped * THAW_SHARE > resident
        if thaw:
            _dropped = 0
            _thaws += 1
    if thaw:
        gc.unfreeze()
    gc.collect()
    yield
    gc.freeze()


def drop_resident(count: int) -> None:
    """Count ``count`` resident modules as dropped (replaced, cleared or
    discarded with their table): frozen cyclic garbage that only a thaw
    can reclaim."""
    global _dropped
    with _lock:
        _dropped += count


def resident_stats() -> Dict[str, int]:
    """Objects in the frozen generation, and thaws so far in this
    process (the daemon's ``status``)."""
    return {"frozen_objects": gc.get_freeze_count(), "thaws": _thaws}


def adopt() -> None:
    """Switch this process to :data:`ANALYSIS_THRESHOLDS` for good."""
    gc.set_threshold(*ANALYSIS_THRESHOLDS)


def exit_process(code: int) -> NoReturn:
    """Flush stdout and stderr, then end the process with ``code``
    without interpreter teardown.  A reader that closed the pipe early
    (``check ... | head -1``) gets the quiet exit 0 that ``cli.main``
    gives any broken pipe."""
    try:
        sys.stdout.flush()
    except BrokenPipeError:
        code = 0
    except ValueError:
        pass  # main() already closed stdout after a broken pipe
    try:
        sys.stderr.flush()
    except (OSError, ValueError):
        pass
    os._exit(code)
