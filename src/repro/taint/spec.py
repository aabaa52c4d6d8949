"""Source/sink specification for the taint checker.

A :class:`TaintSpec` names the user-input intrinsics (the
``copy_from_user`` family) by callee-name substrings, in two flavors:

* *return sources* — the call's return value is attacker-controlled
  (``n = get_user()``);
* *buffer sources* — the call fills the region behind one pointer
  argument with attacker-controlled bytes (``copy_from_user(&req, ...)``).

Sinks are structural (array indexing, divisors, allocation sizes, copy
lengths) and carry the threshold above which a tainted size is considered
out of range.  There is deliberately *no* sanitizer list: sanitization is
path-sensitive and discharged by the SMT layer — a report survives only
if the "tainted value out of range at the sink" atom is satisfiable under
the path constraints (see :mod:`repro.taint.checker`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Tuple

from ..presolve.events import TAINT_SOURCE_HINTS


@dataclass(frozen=True)
class TaintSpec:
    """Which calls introduce taint, and the sink range thresholds."""

    #: callee-name substrings whose *return value* is tainted
    return_sources: Tuple[str, ...] = ("get_user", "read_user", "recv_from", "user_input")
    #: callee-name substrings that taint the region behind every pointer
    #: argument (the analysis is arity-agnostic: any pointer argument of a
    #: matching call may be an out-buffer)
    buffer_sources: Tuple[str, ...] = ("copy_from_user", "from_user")
    #: largest allocation size / copy length considered in range; a
    #: tainted size is reported when ``size > threshold`` is satisfiable
    max_alloc: int = 4096
    max_copy: int = 4096
    _source_hints: Tuple[str, ...] = field(default=TAINT_SOURCE_HINTS, repr=False)

    def is_return_source(self, callee: str) -> bool:
        return any(hint in callee for hint in self.return_sources)

    def is_buffer_source(self, callee: str) -> bool:
        return any(hint in callee for hint in self.buffer_sources)

    def covered_by_hints(self) -> bool:
        """Whether every source this spec matches is also matched by the
        P1.5 scan's :data:`~repro.presolve.events.TAINT_SOURCE_HINTS`.

        Pruning soundness: the scan marks a call when some global hint is
        a substring of the callee; the checker arms when some spec hint
        is.  If every spec hint *contains* a global hint, substring
        transitivity guarantees scan ⊇ checker, so the checker may use
        the precise ``TAINT_SOURCE`` trigger mask.  Otherwise it must
        fall back to the conservative external-call mask.
        """
        return all(
            any(global_hint in spec_hint for global_hint in self._source_hints)
            for spec_hint in self.return_sources + self.buffer_sources
        )


DEFAULT_TAINT_SPEC = TaintSpec()
