"""Content-addressed fingerprints over the IR — the incremental cache's
key derivation (layer-independent half of the subsystem).

Three levels of key:

* **function fingerprint** — sha256 of the function's canonical printing
  (:func:`repro.ir.printer.canonical_function_print`) salted with its
  module's environment (struct layouts, globals, registrations): the
  function's *own* content.
* **transitive key** — the function's fingerprint folded with the
  fingerprints of its whole callgraph closure, computed over the SCC
  condensation of the direct call graph (components fold their sorted
  member fingerprints, then their sorted child-component keys).  Any
  reachable function's edit changes the key; nothing else does.
* **indirect-dispatch salt** — when function-pointer resolution is on,
  a function whose closure contains an indirect call site may dispatch
  into the registration pool (the same conservative link P1.5's
  :class:`~repro.presolve.summary.EventSummaryIndex` makes), so its
  transitive key additionally folds the *pool stamp*: every
  registration tuple plus every registered target's own closure key.
  Adding a function to the pool — or editing anything a pool member can
  reach — invalidates exactly the entries that may dispatch into it.

Everything here is a pure function of the program; no I/O.  Keys are hex
strings, stable across processes and hash seeds (uids never participate).
"""

from __future__ import annotations

import hashlib
from typing import Dict, Iterable, List, Optional, Set, Tuple

from ..ir import CallIndirect, Function, Program
from ..ir.printer import canonical_function_print, canonical_module_environment


def _sha(*parts: str) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode("utf-8", "surrogatepass"))
        h.update(b"\x00")
    return h.hexdigest()


def module_fingerprints(module) -> Dict[str, str]:
    """name -> content fingerprint for the module's defined functions.

    The module environment is folded per-module, not program-wide: a new
    struct or global in one file re-keys that file's functions only —
    other modules' closures stay warm.
    """
    env = canonical_module_environment(module)
    fps: Dict[str, str] = {}
    for func in module.functions.values():
        if not func.is_declaration:
            fps[func.name] = _sha("fn", env, canonical_function_print(func))
    return fps


def function_fingerprints(program: Program) -> Dict[str, str]:
    """name -> content fingerprint for every defined function."""
    fps: Dict[str, str] = {}
    for module in program.modules:
        fps.update(module_fingerprints(module))
    return fps


def _direct_call_edges(program: Program) -> Tuple[Dict[str, List[str]], Set[str]]:
    """(name -> sorted defined direct callees, names with an indirect
    call site).  Calls to undefined functions need no edge: the callee
    name is already part of the caller's printing, and an *undefined →
    defined* flip adds an edge (and so changes the closure key)."""
    defined = {func.name for func in program.functions()}
    edges: Dict[str, List[str]] = {}
    indirect: Set[str] = set()
    for func in program.functions():
        callees: Set[str] = set()
        for inst in func.instructions():
            callee = getattr(inst, "callee", None)
            if callee is not None and callee in defined and callee != func.name:
                callees.add(callee)
            if isinstance(inst, CallIndirect):
                indirect.add(func.name)
        edges[func.name] = sorted(callees)
    return edges, indirect


def _condensed_components(edges: Dict[str, List[str]]) -> List[List[str]]:
    """Tarjan SCCs of the direct call graph, emitted children-first
    (reverse topological order), iteratively — corpus call chains can
    exceed the interpreter recursion limit."""
    index: Dict[str, int] = {}
    lowlink: Dict[str, int] = {}
    on_stack: Set[str] = set()
    stack: List[str] = []
    counter = [0]
    components: List[List[str]] = []

    for root in sorted(edges):
        if root in index:
            continue
        work: List[Tuple[str, Iterable[str]]] = [(root, iter(edges[root]))]
        index[root] = lowlink[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, it = work[-1]
            advanced = False
            for succ in it:
                if succ not in index:
                    index[succ] = lowlink[succ] = counter[0]
                    counter[0] += 1
                    stack.append(succ)
                    on_stack.add(succ)
                    work.append((succ, iter(edges[succ])))
                    advanced = True
                    break
                if succ in on_stack:
                    lowlink[node] = min(lowlink[node], index[succ])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
            if lowlink[node] == index[node]:
                component: List[str] = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                components.append(component)
    return components


class TransitiveKeys:
    """Closure keys for every defined function of one program.

    ``key(name)`` is the function's transitive cache key; it changes iff
    the canonical content of some function its exploration can possibly
    inline changed (direct callees transitively; plus the whole
    registration pool when an indirect call site is reachable and
    resolution is enabled).
    """

    def __init__(self, program: Program, resolve_function_pointers: bool = False,
                 fingerprints: Optional[Dict[str, str]] = None):
        self.program = program
        # `fingerprints` lets a caller reuse prints computed at module-
        # cache time (they exclude uids, so they survive renumbering);
        # anything that doesn't cover exactly the defined functions is
        # recomputed — stale prints would poison every derived key.
        if fingerprints is not None and set(fingerprints) == {
            func.name for func in program.functions()
        }:
            self.fingerprints = fingerprints
        else:
            self.fingerprints = function_fingerprints(program)
        edges, self._indirect_sites = _direct_call_edges(program)
        self._closure_keys: Dict[str, str] = {}
        self._closure_indirect: Dict[str, bool] = {}
        self._fold(edges)
        self.pool_stamp = ""
        if resolve_function_pointers:
            self.pool_stamp = self._pool_stamp()

    def _fold(self, edges: Dict[str, List[str]]) -> None:
        comp_of: Dict[str, int] = {}
        components = _condensed_components(edges)
        for i, members in enumerate(components):
            for name in members:
                comp_of[name] = i
        comp_key: Dict[int, str] = {}
        comp_indirect: Dict[int, bool] = {}
        # children-first order: every successor component is already keyed
        for i, members in enumerate(components):
            child_keys: Set[str] = set()
            indirect = any(name in self._indirect_sites for name in members)
            for name in members:
                for callee in edges[name]:
                    j = comp_of[callee]
                    if j != i:
                        child_keys.add(comp_key[j])
                        indirect = indirect or comp_indirect[j]
            member_fps = sorted(
                f"{name}={self.fingerprints[name]}" for name in members
            )
            comp_key[i] = _sha("scc", *member_fps, *sorted(child_keys))
            comp_indirect[i] = indirect
        for name in edges:
            i = comp_of[name]
            self._closure_keys[name] = comp_key[i]
            self._closure_indirect[name] = comp_indirect[i]

    def _pool_stamp(self) -> str:
        """One stamp over the whole indirect-dispatch pool: every
        registration tuple plus each registered target's closure key.
        The engine resolves per (struct, field) slot, so this is
        conservative — any pool change invalidates every
        indirect-dispatching closure — but never misses a devirtualized
        edge."""
        parts: List[str] = []
        for reg in self.program.registrations():
            struct = reg.struct_type.name if reg.struct_type is not None else "?"
            target_key = self._closure_keys.get(reg.function, "undefined")
            parts.append(f"{struct}.{reg.field}={reg.function}:{target_key}")
        return _sha("pool", *sorted(parts))

    def closure_has_indirect_call(self, name: str) -> bool:
        return self._closure_indirect.get(name, False)

    def key(self, name: str) -> str:
        """The transitive cache key of ``name`` (raises KeyError for
        undefined functions — those have no content to address)."""
        base = self._closure_keys[name]
        if self.pool_stamp and self._closure_indirect[name]:
            return _sha("tk", base, self.pool_stamp)
        return base


def spec_fingerprint(checker_spec: str) -> str:
    """Canonical form of a checker spec: the resolved checker-name list,
    so ``"default"`` and ``"npd,uva,ml"`` share cache entries."""
    from ..typestate.checkers import _expand_spec

    return ",".join(_expand_spec(checker_spec))


def engine_config_fingerprint(config) -> str:
    """The knobs an entry outcome depends on, folded into outcome keys.
    Budgets and exploration parameters change which paths (and so which
    possible bugs) exist; worker and cache knobs do not.  The knobs P1.5
    reads (``prune`` itself, ``resolve_function_pointers``,
    ``optimize_ir``, ``alias_tier``, ``taint_borders``) are among them,
    so an outcome can carry its entry's skip verdict, and so are the P3
    knobs (``validate_paths``, ``solver_max_search_nodes``), so it can
    carry its bugs' verdicts."""
    return _sha(
        "cfg",
        repr(
            (
                config.alias_aware,
                config.max_paths_per_entry,
                config.max_steps_per_entry,
                config.max_call_depth,
                config.max_block_visits,
                config.merge_callee_exits,
                config.max_callee_exits_per_call,
                config.max_recursion_occurrences,
                config.optimize_ir,
                config.resolve_function_pointers,
                config.max_indirect_targets,
                config.prune,
                config.alias_tier,
                config.taint_borders,
                config.validate_paths,
                config.solver_max_search_nodes,
            )
        ),
    )
