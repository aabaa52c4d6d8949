"""Alias-aware typestate tracking (§3.2).

The :class:`TypestateManager` owns one state store shared by all
registered checkers.  States are keyed per *alias set* — the alias-graph
node uid — so all aliased variables share one typestate (Definition 3).
In the PATA-NA ablation (Table 6), states are keyed per *variable name*
and synchronized only across direct assignments, reproducing traditional
typestate tracking (Fig. 8a).

The store is trailed: path backtracking rewinds checker state together
with the alias graph.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Hashable, List, Optional, Tuple

from ..alias import AliasGraph, Trail
from ..ir import Instruction, Var
from ..presolve.events import EventKind
from .events import BugKind, Event
from .fsm import FSM


@dataclass
class PossibleBug:
    """A stage-1 finding (path feasibility not yet validated)."""

    kind: BugKind
    checker: str
    subject: str          # display name of the offending variable
    source: Instruction   # where the bad state was established
    sink: Instruction     # where it was consumed (the buggy operation)
    message: str
    trace: Tuple = ()     # engine-recorded path snapshot for stage 2
    alias_set: Tuple[str, ...] = ()
    entry_function: str = ""
    #: optional extra atom ("op", var_name, const) the validator must prove
    #: satisfiable together with the path constraints (underflow/div-zero).
    extra_requirement: Optional[Tuple[str, str, int]] = None
    #: second path snapshot for *pair* findings (the race detector's
    #: P2.5 matches): when non-empty, stage 2 validates the conjunction
    #: of both paths' constraints (:func:`repro.smt.translate.translate_trace_pair`)
    #: instead of a single path's.
    second_trace: Tuple = ()
    #: stage 2's ``(feasible, aware constraints, unaware constraints)``
    #: for a single-trace bug, set when P3 validates it.  It rides the
    #: bug's cached entry outcome: translation and solving depend only on
    #: the trace, ``extra_requirement``, ``alias_aware`` and the solver
    #: budget, all fixed by the outcome key.
    verdict: Optional[Tuple[bool, int, int]] = None

    @property
    def dedup_key(self) -> Tuple[str, int, int]:
        """Bugs with the same problematic instruction pair are repeats
        (§4, P3).

        Instruction uids are assigned at construction and survive the
        fork and the result pickles, so a bug found in a worker process
        carries the *same* dedup key as the parent would compute — the
        entry-order merge of worker outcomes collapses cross-worker
        duplicates exactly like the in-process ``seen_bug_keys`` set
        does.
        """
        return (self.checker, self.source.uid, self.sink.uid)

    def __str__(self) -> str:
        return (
            f"[{self.kind.short}] {self.message} "
            f"(source {self.source.loc}, sink {self.sink.loc})"
        )


class StateStore:
    """Trailed map from (checker, key) to an immutable state value."""

    def __init__(self, trail: Trail):
        self.trail = trail
        self._states: Dict[Tuple[str, Hashable], Any] = {}
        self.aware_updates = 0
        self.unaware_updates = 0
        #: keys set since the beginning, in order; kept in sync with the
        #: trail (entries pop on undo).  Used for callee exit digests.
        self.journal: List[Tuple[str, Hashable]] = []

    def get(self, checker: str, key: Hashable, default: Any = None) -> Any:
        value = self._states.get((checker, key), default)
        return default if value is None else value

    def set(self, checker: str, key: Hashable, value: Any, fanout: int = 1) -> None:
        """Record a state; ``fanout`` is the alias-set size, used to count
        what a per-variable (alias-unaware) tracker would have stored."""
        full_key = (checker, key)
        missing = object()
        old = self._states.get(full_key, missing)
        self._states[full_key] = value
        self.aware_updates += 1
        self.unaware_updates += max(1, fanout)

        def undo() -> None:
            if old is missing:
                self._states.pop(full_key, None)
            else:
                self._states[full_key] = old

        self.trail.push(undo)
        self.journal.append(full_key)
        self.trail.push(self.journal.pop)

    def items_for(self, checker: str):
        """Snapshot of (key, value) pairs for one checker — used by the ML
        checker to sweep unfreed allocations at returns."""
        return [(key[1], value) for key, value in self._states.items() if key[0] == checker]

    def copy_all(self, checker_names: List[str], src_key: Hashable, dst_key: Hashable) -> None:
        """NA-mode state sync on direct assignment (Fig. 8a's ``sync``)."""
        for name in checker_names:
            value = self._states.get((name, src_key))
            if value is not None:
                self.set(name, dst_key, value)


class TrackerContext:
    """What a checker may see and do.  Constructed by the engine per run."""

    def __init__(
        self,
        graph: Optional[AliasGraph],
        store: StateStore,
        alias_aware: bool,
        report_fn: Callable[[PossibleBug], None],
        base_of_fn: Callable[[str], Optional[Tuple[Var, str]]],
    ):
        self.graph = graph
        self.store = store
        self.alias_aware = alias_aware
        self._report = report_fn
        self._base_of = base_of_fn
        self.frame_id = 0
        self.entry_function = ""
        #: engine hook for shared-access recording (the race checker's
        #: output channel); None when no recording engine is attached.
        self.record_access_fn: Optional[Callable] = None
        #: engine hook for cross-module taint-flow recording (the xtaint
        #: checker's output channel, P2.6 input); same contract.
        self.record_flow_fn: Optional[Callable] = None

    # -- keys -------------------------------------------------------------------

    def key(self, var: Var) -> Hashable:
        """The typestate key for ``var``: its alias-set identity when alias
        aware, its own name otherwise.

        P1.7 proven singletons have no per-path node; their alias-set
        identity is the versioned ``("s", name, generation)`` tuple —
        a strong update bumps the generation, making states keyed under
        older generations unreachable exactly like a detached node's uid.
        (Tuples cannot collide with node uids, which are ints, nor with
        NA-mode keys, which are plain strings.)
        """
        if self.alias_aware and self.graph is not None:
            name = var.name
            if name in self.graph.skip_names:
                return ("s", name, self.graph.skip_generation(name))
            return self.graph.node_of(var).uid
        return var.name

    def fanout(self, var: Var) -> int:
        """Size of var's alias set (1 in NA mode) — for Table 5 counters."""
        if self.alias_aware and self.graph is not None:
            if var.name in self.graph.skip_names:
                return 1  # a proven singleton's alias set is always {var}
            return max(1, len(self.graph.node_of(var).vars))
        return 1

    def alias_names(self, var: Var) -> Tuple[str, ...]:
        if self.alias_aware and self.graph is not None:
            return tuple(sorted(self.graph.alias_names(var)))
        return (var.name,)

    # -- state ------------------------------------------------------------------

    def get(self, checker: str, var: Var, default: Any = None) -> Any:
        return self.store.get(checker, self.key(var), default)

    def set(self, checker: str, var: Var, value: Any) -> None:
        self.store.set(checker, self.key(var), value, self.fanout(var))

    def get_key(self, checker: str, key: Hashable, default: Any = None) -> Any:
        return self.store.get(checker, key, default)

    def set_key(self, checker: str, key: Hashable, value: Any, fanout: int = 1) -> None:
        self.store.set(checker, key, value, fanout)

    # -- environment -----------------------------------------------------------------

    def base_of(self, addr_var: Var) -> Optional[Tuple[Var, str]]:
        """For an address computed by ``a = &b->f`` on this path, return
        (b, 'f'); None when ``addr_var`` is not a known field address."""
        return self._base_of(addr_var.name)

    def report(self, bug: PossibleBug) -> None:
        bug.entry_function = self.entry_function
        self._report(bug)

    def record_access(self, key, is_write: bool, inst: Instruction, lockset) -> None:
        """Record a shared-state access on the current path (race
        detection, P2.5 input).  A no-op unless the engine attached its
        recorder — checkers may call this unconditionally."""
        if self.record_access_fn is not None:
            self.record_access_fn(key, is_write, inst, lockset)

    def record_flow(self, flow) -> None:
        """Record a cross-module taint half-flow on the current path
        (P2.6 input).  Same no-op contract as :meth:`record_access`."""
        if self.record_flow_fn is not None:
            self.record_flow_fn(flow)


class Checker:
    """Base class of typestate checkers.

    A checker declares its :class:`~repro.typestate.fsm.FSM` and reacts to
    engine events by stepping per-alias-set states; entering the FSM's
    error state reports a possible bug.  Each concrete checker is ~100-200
    lines, matching the paper's claim (§5.1).
    """

    name: str = "checker"
    kind: BugKind = BugKind.NPD
    fsm: FSM = None
    #: P1.5 relevance metadata (:mod:`repro.presolve`): every event kind
    #: the checker reacts to at all ...
    relevant_events: EventKind = EventKind.NONE
    #: ... the kinds that can establish reportable (non-initial) state ...
    trigger_events: EventKind = EventKind.NONE
    #: ... and the kinds at which the checker can invoke ``report``.
    #: Leaving trigger or sink at ``NONE`` (e.g. in a custom checker)
    #: conservatively disables relevance pruning for the whole run.
    sink_events: EventKind = EventKind.NONE
    #: runtime event classes this checker's ``handle`` reacts to — every
    #: built-in handle is a pure isinstance chain over these, so dispatch
    #: may skip the call for any other class without changing behavior.
    #: An empty tuple (e.g. a custom checker) means "unknown: always
    #: call" — the per-class filter never drops such a checker.
    handled_events: Tuple[type, ...] = ()

    #: state namespaces this checker stores under; NA-mode assignment sync
    #: copies each of them (a checker may keep several state families,
    #: e.g. UVA's scalar states vs. pointee-region states).
    @property
    def state_namespaces(self):
        return (self.name,)

    def handle(self, event: Event, ctx: TrackerContext) -> None:  # pragma: no cover
        raise NotImplementedError

    def on_path_start(self, ctx: TrackerContext) -> None:
        """Hook invoked when exploration of a new entry function begins."""


class TypestateManager:
    """Dispatches events to all registered checkers (TypestateTrack of
    Fig. 6, line 31)."""

    def __init__(self, checkers: List[Checker]):
        self.checkers = list(checkers)
        #: the subset dispatch actually visits (see :meth:`set_active`);
        #: every checker by default
        self.active = self.checkers
        self.checker_names = [ns for c in self.checkers for ns in c.state_namespaces]
        #: namespaces of the *active* checkers — what the Table 5
        #: unaware-updates accounting walks.  With per-entry arming this
        #: legitimately shrinks: a skipped checker's states can never be
        #: read, so counting their would-be syncs measures work the
        #: restricted run genuinely does not do.
        self.active_namespaces = self.checker_names
        #: event-class -> active checkers whose ``handled_events`` cover
        #: it, built lazily per :meth:`set_active` restriction.  None in
        #: the unrestricted state: the default path stays the plain loop
        #: over every checker, exactly today's dispatch.
        self._by_class: Optional[Dict[type, List[Checker]]] = None

    def set_active(self, names=None) -> None:
        """Restrict dispatch to the named checkers, or restore every
        checker with ``None``.  Used by the explorer's per-entry arming
        (the P1.5 masks): a checker whose trigger or sink
        kinds don't occur in the entry's transitive region cannot report
        there, so skipping its ``handle`` calls preserves the report set
        exactly — it only skips typestate updates no report could read."""
        if names is None:
            self.active = self.checkers
            self.active_namespaces = self.checker_names
            self._by_class = None
        else:
            self.active = [c for c in self.checkers if c.name in names]
            self.active_namespaces = [
                ns for c in self.active for ns in c.state_namespaces
            ]
            self._by_class = {}

    def dispatch(self, event: Event, ctx: TrackerContext) -> None:
        by_class = self._by_class
        if by_class is None:
            for checker in self.active:
                checker.handle(event, ctx)
            return
        cls = event.__class__
        handlers = by_class.get(cls)
        if handlers is None:
            # A checker with no declared classes is never filtered; the
            # declared ones are skipped for classes their isinstance
            # chains cannot match (a behavior-preserving no-op).
            handlers = by_class[cls] = [
                c
                for c in self.active
                if not c.handled_events or issubclass(cls, c.handled_events)
            ]
        for checker in handlers:
            checker.handle(event, ctx)

    def wants(self, cls: type) -> bool:
        """Whether any active checker would handle an event of ``cls`` —
        lets the explorer skip *constructing* events nobody can observe
        (dispatching one is already a no-op, but the allocation is not
        free).  Always True in the unrestricted state, so the default
        path builds exactly the events it always did."""
        by_class = self._by_class
        if by_class is None:
            return True
        handlers = by_class.get(cls)
        if handlers is None:
            handlers = by_class[cls] = [
                c
                for c in self.active
                if not c.handled_events or issubclass(cls, c.handled_events)
            ]
        return bool(handlers)

    def sync_on_move(self, ctx: TrackerContext, dst: Var, src: Var) -> None:
        """In NA mode states live per variable; a direct assignment copies
        the source's states to the destination (traditional tracking)."""
        if not ctx.alias_aware:
            ctx.store.copy_all(self.checker_names, src.name, dst.name)
