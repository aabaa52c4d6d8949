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
from typing import Iterator, NoReturn, Tuple

#: (young, middle, full) collector thresholds inside an analysis: a
#: young collection per 10k net allocations instead of 700, a middle one
#: per 10 young ones, and a full threshold (the largest C int) that the
#: generation-2 counter never reaches.  Chosen by measurement.
ANALYSIS_THRESHOLDS: Tuple[int, int, int] = (10_000, 10, 2**31 - 1)

_lock = threading.Lock()
_depth = 0
_outer: Tuple[int, ...] = ()


@contextlib.contextmanager
def analysis_heap(collect_first: bool = False) -> Iterator[None]:
    """Run the body under :data:`ANALYSIS_THRESHOLDS`.

    Nested or overlapping uses (a daemon request that timed out still
    running beside the next one) share one policy: the last to leave
    restores the thresholds the first one found.  The collector's
    enabled state is never touched.  ``collect_first`` makes exactly one
    full collection on entry, reclaiming the cyclic garbage an earlier
    analysis in this process left behind.
    """
    global _depth, _outer
    with _lock:
        if _depth == 0:
            _outer = gc.get_threshold()
            gc.set_threshold(*ANALYSIS_THRESHOLDS)
        _depth += 1
    try:
        if collect_first:
            gc.collect()
        yield
    finally:
        with _lock:
            _depth -= 1
            if _depth == 0:
                gc.set_threshold(*_outer)


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
