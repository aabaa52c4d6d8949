"""Alias-aware lockset race checker — the per-path recording half.

Classic lockset (Eraser) discipline, upgraded with the alias graph:

* the path's **lockset** is a set of canonical lock identities
  (``(root, field)`` keys per :mod:`repro.races.shared`), updated at
  every :class:`~repro.typestate.events.LockEvent`.  Locks reached
  through different aliases (``&s->lock`` here, ``&req->hdr.lock``
  there) canonicalize to the same identity, so holding "the same lock
  under another name" is recognized — the failure mode that makes
  purely syntactic lockset tools either noisy or blind;
* every read/write whose target canonicalizes to *shared* state — a
  global, or a heap object whose allocation site escapes per the VFG
  (:meth:`repro.core.collector.InformationCollector.shared_heap_sites`)
  — is recorded through the engine's ``record_access`` hook together
  with the entry, the lockset and the full path snapshot.

No bug is reported here: single paths cannot race.  The cross-entry
matcher (:mod:`repro.races.match`, phase P2.5) pairs the recorded
accesses, and stage 2 discharges pairs whose two path conditions are
jointly unsatisfiable (:func:`repro.smt.translate.translate_trace_pair`).

Accesses rooted in entry parameters stay unrecorded: a different entry
has no name for them, so no cross-entry pair could ever form — and the
object may genuinely be thread-local.
"""

from __future__ import annotations

from typing import FrozenSet, Optional

from ..ir import Move
from ..presolve.events import EventKind
from ..typestate.events import (
    AllocEvent,
    AssignConstEvent,
    AssignNullEvent,
    BugKind,
    CallReturnEvent,
    Event,
    LoadEvent,
    LockEvent,
    MemInitEvent,
    StoreEvent,
    UseVarEvent,
)
from ..typestate.manager import Checker, TrackerContext
from .fsm import RACE_FSM
from .shared import (
    DIRECT,
    LOCKSET_KEY,
    LOCKSET_NAMESPACE,
    OBJ_NAMESPACE,
    AccessKey,
    SharedKeyResolver,
)


class RaceChecker(SharedKeyResolver, Checker):
    """Lockset recorder; see the module docstring."""

    name = "race"
    kind = BugKind.RACE
    fsm = RACE_FSM
    relevant_events = (
        EventKind.LOCK | EventKind.SHARED_ACCESS | EventKind.ALLOC_HEAP
        | EventKind.USE | EventKind.STORE | EventKind.DEREF
        | EventKind.MEM_INIT | EventKind.ASSIGN_CONST | EventKind.ASSIGN_NULL
        | EventKind.CALL_RETURN
    )
    # Both ends of the property are accesses: a path segment that can
    # touch no shared state can neither arm nor fire the checker, so
    # entry/suffix pruning on SHARED_ACCESS alone stays sound — the
    # P1.5 scan over-approximates it (every Load/Store/MemSet, plus all
    # syntactically global operands), and a pruned suffix therefore
    # contains nothing this checker would have recorded.
    trigger_events = EventKind.SHARED_ACCESS
    sink_events = EventKind.SHARED_ACCESS
    handled_events = (
        LockEvent, AllocEvent, LoadEvent, StoreEvent, MemInitEvent,
        UseVarEvent, AssignConstEvent, AssignNullEvent, CallReturnEvent,
    )

    @property
    def state_namespaces(self):
        return (self.name, OBJ_NAMESPACE, LOCKSET_NAMESPACE)

    def __init__(self, shared_sites: frozenset = frozenset()):
        #: uids of malloc instructions whose objects escape — the heap
        #: half of the shared universe (globals are the other half).
        self.shared_sites = shared_sites

    # -- event dispatch ----------------------------------------------------------

    def handle(self, event: Event, ctx: TrackerContext) -> None:
        if isinstance(event, LockEvent):
            self._handle_lock(event, ctx)
        elif isinstance(event, AllocEvent):
            self._register_heap(event, ctx)
        elif isinstance(event, LoadEvent):
            self._record(ctx, self._location(ctx, event.addr), False, event.inst)
        elif isinstance(event, StoreEvent):
            self._record(ctx, self._location(ctx, event.addr), True, event.inst)
        elif isinstance(event, MemInitEvent):
            self._record(ctx, self._location(ctx, event.ptr), True, event.inst)
        elif isinstance(event, UseVarEvent):
            if self._is_global_scalar(event.var):
                self._record(ctx, (event.var.name, DIRECT), False, event.inst)
            # A Move whose source is a Var raises only UseVarEvent; when
            # its destination is a global scalar, that is also a write.
            inst = event.inst
            if isinstance(inst, Move) and self._is_global_scalar(inst.dst):
                self._record(ctx, (inst.dst.name, DIRECT), True, inst)
        elif isinstance(event, AssignConstEvent):
            if self._is_global_scalar(event.var):
                self._record(ctx, (event.var.name, DIRECT), True, event.inst)
        elif isinstance(event, AssignNullEvent):
            if self._is_global_scalar(event.ptr):
                self._record(ctx, (event.ptr.name, DIRECT), True, event.inst)
        elif isinstance(event, CallReturnEvent):
            if self._is_global_scalar(event.dst):
                self._record(ctx, (event.dst.name, DIRECT), True, event.inst)

    # -- lockset -----------------------------------------------------------------

    def _lockset(self, ctx: TrackerContext) -> FrozenSet[AccessKey]:
        return ctx.get_key(LOCKSET_NAMESPACE, LOCKSET_KEY, frozenset())

    def _handle_lock(self, event: LockEvent, ctx: TrackerContext) -> None:
        lock_id = self._location(ctx, event.lock)
        if lock_id is None:
            # Unresolvable lock (parameter-rooted): keep it under its own
            # syntactic name.  Cross-entry identities then never match,
            # i.e. an unknown lock protects nothing — the conservative
            # direction for a *detector* (over-report, never mask).
            lock_id = ("?", event.lock.name)
        held = self._lockset(ctx)
        updated = held | {lock_id} if event.acquire else held - {lock_id}
        if updated != held:
            # Trailed store: backtracking restores the branch-point lockset.
            ctx.set_key(LOCKSET_NAMESPACE, LOCKSET_KEY, updated)

    # -- recording ---------------------------------------------------------------

    def _record(self, ctx: TrackerContext, key: Optional[AccessKey],
                is_write: bool, inst) -> None:
        if key is None:
            return
        ctx.record_access(key, is_write, inst, self._lockset(ctx))
