"""Content-addressed fingerprints over the IR — the incremental cache's
key derivation (layer-independent half of the subsystem).

Three levels of key:

* **function fingerprint** — sha256 of the function's canonical printing
  (:func:`repro.ir.printer.canonical_function_print`) salted with its
  module's environment (struct layouts, globals, registrations): the
  function's *own* content.
* **transitive key** — the function's fingerprint folded with the
  fingerprints of its whole callgraph closure, computed over the run's
  :class:`~repro.cfg.CallGraph` condensation (components fold their
  sorted member fingerprints, then their sorted child-component keys).
  Any reachable function's edit changes the key; nothing else does.
* **indirect-dispatch salt** — when function-pointer resolution is on,
  a function that reaches an indirect call site may dispatch into the
  registration pool (the graph's :meth:`~repro.cfg.CallGraph.closure`
  takes the pool there, and so do P1.5 and P1.8), so its transitive
  key additionally folds the *pool stamp*: every registration tuple
  plus every registered target's own closure key.
  Adding a function to the pool — or editing anything a pool member can
  reach — invalidates exactly the entries that may dispatch into it.

Everything here is a pure function of the program; no I/O.  Keys are hex
strings, stable across processes and hash seeds (uids never participate).
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Optional

from ..cfg import CallGraph
from ..ir import Program
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


class TransitiveKeys:
    """Closure keys for every defined function of one program.

    ``key(name)`` is the function's transitive cache key; it changes iff
    the canonical content of some function in its
    :meth:`~repro.cfg.CallGraph.closure` changed, that is, some function
    its exploration can possibly inline.  ``callgraph`` is the run's
    graph (the program's own, resolution off, when omitted).
    """

    def __init__(self, program: Program, fingerprints: Optional[Dict[str, str]] = None,
                 callgraph: Optional[CallGraph] = None):
        self.program = program
        self.callgraph = callgraph if callgraph is not None else CallGraph(program)
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
        self._component_keys = self._fold()
        self.pool_stamp = ""
        if self.callgraph.resolve_function_pointers:
            self.pool_stamp = self._pool_stamp()

    def _fold(self) -> List[str]:
        """One key per component, children first: every child component
        is already keyed when its parent folds it.  Calls to undefined
        functions need no edge: the callee name is already part of the
        caller's printing, and an *undefined → defined* flip adds an
        edge (and so changes the key)."""
        keys: List[str] = []
        for i, members in enumerate(self.callgraph.components):
            member_fps = sorted(f"{name}={self.fingerprints[name]}" for name in members)
            child_keys = sorted({keys[j] for j in self.callgraph.children[i]})
            keys.append(_sha("scc", *member_fps, *child_keys))
        return keys

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
            i = self.callgraph.component_of.get(reg.function)
            target_key = "undefined" if i is None else self._component_keys[i]
            parts.append(f"{struct}.{reg.field}={reg.function}:{target_key}")
        return _sha("pool", *sorted(parts))

    def key(self, name: str) -> str:
        """The transitive cache key of ``name`` (raises KeyError for
        undefined functions — those have no content to address)."""
        i = self.callgraph.component_of[name]
        if self.pool_stamp and self.callgraph.reaches_indirect[i]:
            return _sha("tk", self._component_keys[i], self.pool_stamp)
        return self._component_keys[i]


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
    ``optimize_ir``, ``taint_borders``) are among them, so an outcome can
    carry its entry's skip verdict, and so are the P3 knobs
    (``validate_paths``, ``solver_max_search_nodes``), so it can carry
    its bugs' verdicts.  ``alias_tier`` is not: no rung changes P1.5,
    a path, a counter or a verdict, so one cache directory serves every
    rung."""
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
                config.taint_borders,
                config.validate_paths,
                config.solver_max_search_nodes,
            )
        ),
    )
