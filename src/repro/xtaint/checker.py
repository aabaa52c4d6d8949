"""Cross-module taint recorder — the per-path half of phase P2.6.

A single entry's exploration can only see taint that stays inside its
own closure; the highest-value OS bugs instead enter through one
module's interface and reach a sink in another (shared config blobs,
ioctl dispatch tables, cross-driver globals).  This checker extends
:class:`~repro.taint.checker.TaintChecker` with the race detector's
shared-state canonicalization so each entry records *half-flows*:

* **exports** — a tainted value stored into canonically shared state
  (``g_cfg.len = read_user_len()``);
* **imports** — a value loaded from shared state reaching a sink
  (``kmalloc(g_cfg.len)`` in another driver), carried as an
  imported-shadow state ``("XT", load, key)`` because the recording
  entry cannot know whether any other module tainted that key;
* **relays** — shared state copied to other shared state
  (``g_out = g_in``), the edges the P2.6 fixpoint propagates over.

No cross-module bug is reported here: the matcher
(:mod:`repro.xtaint.match`) joins exports to imports over the shared
key universe and stage 2 re-discharges each pair with both path
conditions conjoined (:func:`repro.smt.translate.translate_trace_pair`),
so sanitization and guard contradictions survive the module boundary.

**Border-source inference** (``--taint-borders``): an interface
function no caller in the image set ever invokes receives its
parameters pre-tainted ``("SB", anchor)`` at path start — the
border-binary heuristic of the firmware work.  Purely *local* flows of
genuinely source-tainted values (``("ST", src)``) stay silent here:
they are the plain taint checker's territory, and staying out of them
keeps ``--checkers taint,xtaint`` free of double reports.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ..ir import Function, Move, PointerType, Var
from ..presolve.events import EventKind
from ..races.shared import DIRECT, AccessKey, SharedKeyResolver
from ..taint.checker import TaintChecker
from ..taint.spec import DEFAULT_TAINT_SPEC, TaintSpec
from ..typestate.events import (
    AllocEvent,
    CallReturnEvent,
    Event,
    LoadEvent,
    StoreEvent,
    UseVarEvent,
)
from ..typestate.manager import PossibleBug, TrackerContext
from .records import EXPORT, IMPORT, RELAY, TaintFlow

#: state namespace for heap-object registrations (node uid -> "heap#N"),
#: kept separate from the race checker's so "race,xtaint" runs never
#: cross-talk through the shared store.
XOBJ_NAMESPACE = "xtaint.obj"

#: state tags that mean "carries taint" for this checker
_TAINT_TAGS = ("ST", "SB", "XT")


class CrossModuleTaintChecker(SharedKeyResolver, TaintChecker):
    """Cross-module taint recorder; see the module docstring."""

    name = "xtaint"
    obj_namespace = XOBJ_NAMESPACE
    relevant_events = (
        TaintChecker.relevant_events
        | EventKind.STORE | EventKind.SHARED_ACCESS | EventKind.CALL_RETURN
    )
    sink_events = TaintChecker.sink_events | EventKind.SHARED_ACCESS
    handled_events = TaintChecker.handled_events + (StoreEvent, UseVarEvent)

    def __init__(
        self,
        spec: TaintSpec = DEFAULT_TAINT_SPEC,
        shared_sites: frozenset = frozenset(),
        border_entries: Optional[Dict[str, Tuple[Tuple[Var, ...], object]]] = None,
    ):
        super().__init__(spec)
        # Every flow needs both a trigger and a shared crossing, so the
        # region must show either a source or a shared access before the
        # checker can contribute anything; SHARED_ACCESS rides on both
        # masks to keep export-only and import-only entries armed.
        self.trigger_events = self.trigger_events | EventKind.SHARED_ACCESS
        #: uids of malloc instructions whose objects escape (the heap
        #: half of the shared universe; globals are the other half).
        self.shared_sites = shared_sites
        #: border set: entry name -> (params, anchor instruction) for
        #: interface functions without any extern caller.  Inert until
        #: ``taint_borders`` is switched on by the run configuration.
        self.border_entries = border_entries or {}
        self.taint_borders = False

    @property
    def state_namespaces(self):
        return (self.name, XOBJ_NAMESPACE)

    # -- border-source inference -------------------------------------------------

    def on_path_start(self, ctx: TrackerContext) -> None:
        """Pre-taint the entry's parameters when it sits on the border:
        registered as an interface but never called by anything in the
        image set, so its arguments come from outside the analyzed
        world (the firmware border-binary heuristic)."""
        if not self.taint_borders:
            return
        info = self.border_entries.get(ctx.entry_function)
        if info is None:
            return
        params, anchor = info
        for param in params:
            if isinstance(param.type, PointerType):
                if ctx.alias_aware and ctx.graph is not None:
                    node = ctx.graph.deref_node(param)
                    if node is None:
                        node = ctx.graph.handle_store_fresh(param)
                    ctx.set_key(self.name, node.uid, ("SB", anchor),
                                fanout=max(1, len(node.vars)))
                else:
                    ctx.set_key(self.name, "*" + param.name, ("SB", anchor))
            else:
                ctx.set(self.name, param, ("SB", anchor))

    # -- event dispatch ----------------------------------------------------------

    def handle(self, event: Event, ctx: TrackerContext) -> None:
        if isinstance(event, StoreEvent):
            self._handle_store(event, ctx)
        elif isinstance(event, UseVarEvent):
            self._handle_use(event, ctx)
        else:
            if isinstance(event, AllocEvent):
                self._register_heap(event, ctx)
            super().handle(event, ctx)

    # -- taint states ------------------------------------------------------------

    def _state(self, ctx: TrackerContext, var: Var):
        state = ctx.get(self.name, var)
        if state is not None and state[0] in _TAINT_TAGS:
            return state
        return None

    def _handle_load(self, event: LoadEvent, ctx: TrackerContext) -> None:
        if ctx.alias_aware:
            # The engine joined dst into the pointee class already, so
            # real taint (ST/SB) travels by alias identity.  A state-free
            # load from canonically shared state becomes an
            # imported-shadow: *some other module* may have tainted it.
            if self._state(ctx, event.dst) is None:
                key = self._location(ctx, event.addr)
                if key is not None:
                    ctx.set(self.name, event.dst, ("XT", event.inst, key))
            return
        state = ctx.get_key(self.name, "*" + event.addr.name)
        if state is not None and state[0] in _TAINT_TAGS:
            ctx.set(self.name, event.dst, state)
            return
        key = self._location(ctx, event.addr)
        if key is not None:
            ctx.set(self.name, event.dst, ("XT", event.inst, key))
        elif self._state(ctx, event.dst) is not None:
            ctx.set(self.name, event.dst, ("S0", None))

    def _handle_use(self, event: UseVarEvent, ctx: TrackerContext) -> None:
        inst = event.inst
        var = event.var
        # A direct read of a global scalar imports its value.
        if self._is_global_scalar(var) and self._state(ctx, var) is None:
            ctx.set(self.name, var, ("XT", inst, (var.name, DIRECT)))
            if (not ctx.alias_aware and isinstance(inst, Move)
                    and inst.src is var
                    and self._state(ctx, inst.dst) is None):
                # NA mode keys states by name; hand-copy to the move's
                # destination (aware mode gets this from the node join).
                ctx.set(self.name, inst.dst,
                        ("XT", inst, (var.name, DIRECT)))
        # A Move whose destination is a global scalar is a direct shared
        # write: a tainted source value exports through it.
        if isinstance(inst, Move) and self._is_global_scalar(inst.dst):
            if isinstance(inst.src, Var):
                state = self._state(ctx, inst.src)
                if state is not None:
                    self._outflow(ctx, (inst.dst.name, DIRECT), state,
                                  inst, inst.src)

    def _handle_call_return(self, event: CallReturnEvent, ctx: TrackerContext) -> None:
        super()._handle_call_return(event, ctx)
        dst = event.dst
        if self._is_global_scalar(dst):
            state = self._state(ctx, dst)
            if state is not None:
                self._outflow(ctx, (dst.name, DIRECT), state, event.inst, dst)

    def _handle_store(self, event: StoreEvent, ctx: TrackerContext) -> None:
        value = event.value
        if not isinstance(value, Var):
            return
        state = self._state(ctx, value)
        if state is None:
            return
        key = self._location(ctx, event.addr)
        if key is None:
            return
        self._outflow(ctx, key, state, event.inst, value)

    # -- flow recording ----------------------------------------------------------

    def _outflow(self, ctx: TrackerContext, key: AccessKey, state,
                 inst, var: Var) -> None:
        tag = state[0]
        if tag == "XT":
            from_key = state[2]
            if from_key == key:
                return  # stored back where it came from: not an edge
            ctx.record_flow(TaintFlow(
                key=from_key, direction=RELAY, dst_key=key, inst=inst,
                entry="", source=state[1], subject=var.display_name(),
            ))
        else:
            ctx.record_flow(TaintFlow(
                key=key, direction=EXPORT, inst=inst, entry="",
                source=state[1], subject=var.display_name(),
                border=(tag == "SB"),
            ))

    def _sink(self, ctx: TrackerContext, event: Event, var: Var, atom,
              message: str) -> None:
        state = self._state(ctx, var)
        if state is None:
            return
        subject = var.display_name()
        op, const = atom
        tag = state[0]
        if tag == "XT":
            # Shared state reached a sink: record the import half-flow.
            # Whether any module actually taints the key is the
            # matcher's question, not this path's.
            ctx.record_flow(TaintFlow(
                key=state[2], direction=IMPORT, inst=event.inst, entry="",
                source=state[1], subject=subject,
                message=message.format(subject),
                extra_requirement=(op, var.name, const),
            ))
            return
        if tag == "SB":
            bug = PossibleBug(
                kind=self.kind,
                checker=self.name,
                subject=subject,
                source=state[1] if state[1] is not None else event.inst,
                sink=event.inst,
                message="border-inferred " + message.format(subject),
                alias_set=ctx.alias_names(var),
            )
            bug.extra_requirement = (op, var.name, const)
            ctx.report(bug)
            return
        # tag == "ST": a purely local flow — the plain taint checker's
        # report; staying silent keeps "taint,xtaint" duplicate-free.


def border_entries_of(program, callgraph) -> Dict[str, Tuple[Tuple[Var, ...], object]]:
    """The border set: defined interface functions no extern caller ever
    invokes, mapped to their parameter tuple and a stable anchor
    instruction (the function's first instruction) for report provenance."""
    borders: Dict[str, Tuple[Tuple[Var, ...], object]] = {}
    for func in program.functions():
        if not isinstance(func, Function) or not func.is_interface:
            continue
        if func.is_declaration:
            continue
        if callgraph.callers_of(func.name):
            continue
        anchor = None
        for inst in func.instructions():
            anchor = inst
            break
        if anchor is None or not func.params:
            continue
        borders[func.name] = (tuple(func.params), anchor)
    return borders
