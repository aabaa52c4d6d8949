"""The *shared-state* universe of the race detector and its canonical
access keys.

A race pairs two accesses from different analysis entries, so the two
sides never share an alias graph — each entry's exploration builds its
own.  What they do share is the program's *named* state: global
variables, and heap objects that escape their allocating function (the
VFG ``_escapes`` notion reused via
:func:`repro.vfg.escaping_malloc_sites`).  This module canonicalizes a
per-path alias-graph node into a name of that shared state — the
**shared key** — so accesses recorded under different entries (through
arbitrarily many local aliases) can be matched syntactically in P2.5.

A key is ``(root, field)`` where ``root`` names the object and ``field``
the accessed slot:

* ``("@g", "=")`` — the global scalar ``g`` itself;
* ``("*@st", "count")`` — field ``count`` of the aggregate behind the
  global address ``@st`` (global structs/arrays *are* addresses);
* ``("*@head", "*")`` — the object a global pointer points at;
* ``("heap#42", "len")`` — field of the escaping heap object allocated
  at instruction uid 42 (the allocation-site abstraction);
* ``("*@head.next", "*")`` — one field hop further (bounded recursion).

Canonicalization is deliberately *syntactic about the shared root* and
*semantic about local aliasing*: however many locals sit between the
access and the root, the alias graph collapses them; only the root name
must agree across entries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, FrozenSet, Optional, Tuple

from ..alias.graph import DEREF, AliasNode
from ..ir import Instruction, Var

#: state namespace for heap-object registrations (node uid -> "heap#N")
OBJ_NAMESPACE = "race.obj"
#: state namespace + key for the path's current lockset.  The "@"
#: prefix is load-bearing: the engine's callee exit-digest treats
#: ``@``-named store keys as caller-visible (like globals), so two
#: callee exits that differ only in the lockset they return with are
#: never merged — merging them would record the continuation's
#: accesses under only one of the two locksets.
LOCKSET_NAMESPACE = "race.lock"
LOCKSET_KEY = "@held"

#: ``field`` marker for "the global scalar itself" (not behind a pointer)
DIRECT = "="

#: a canonical lock identity / shared-state key: (root, field)
AccessKey = Tuple[str, str]


@dataclass
class SharedAccess:
    """One read or write of shared state on one explored path.

    Recorded by :class:`~repro.races.checker.RaceChecker` through the
    engine's ``record`` hook; shipped from workers to the parent
    inside :class:`~repro.core.parallel.EntryOutcome`, so everything
    here must pickle (instructions and traces already do — possible
    bugs carry the same).
    """

    key: AccessKey
    is_write: bool
    inst: Instruction
    entry: str
    lockset: FrozenSet[AccessKey]
    #: engine path snapshot at the access — replayable by stage 2
    trace: Tuple = ()

    @property
    def dedup_key(self) -> Tuple:
        """Accesses are repeats when the same instruction touches the
        same key with the same lockset from the same entry (loop bodies,
        path re-merges); the trace snapshot of the first one stands in
        for all of them, mirroring the engine's bug dedup."""
        return (self.entry, self.key, self.inst.uid, self.is_write,
                tuple(sorted(self.lockset)))


def object_root(
    node: Optional[AliasNode],
    heap_obj: Callable[[int], Optional[str]],
    depth: int = 4,
) -> Optional[str]:
    """Canonical name of the object ``node``'s pointers refer to, or
    None when the object is not provably shared (e.g. rooted in a
    parameter of the entry — a different entry has no way to name it).

    ``heap_obj`` maps an alias-node uid to its ``heap#N`` registration
    (the checker records one at every escaping malloc on the path).

    Resolution order matters and is deterministic:

    1. a global name *in* the node — the pointer is (or aliases) a
       global: the object is whatever that global refers to, ``*@g``.
       For global aggregates (``@st`` is the struct's address) this
       also names the struct itself.
    2. a global name behind the node's ``*`` edge — the pointer holds
       ``&g`` of a scalar global: the object *is* ``@g``.  Checked
       after (1) because a store ``*g_ptr = q`` retargets the ``*``
       edge to the stored value's node, which rule 1 keys stably while
       rule 2 would not.
    3. a heap registration — an escaping allocation this path executed.
    4. a bounded walk over *field*-labeled incoming edges: an edge
       ``base --f--> node`` means this pointer came from ``&(*base).f``,
       so the object is field ``f`` of base's object.  Lexicographic
       min over candidates keeps the choice path-independent.
    """
    if node is None or depth <= 0:
        return None
    node_globals = [name for name in node.vars if name.startswith("@")]
    if node_globals:
        return "*" + min(node_globals)
    target = node.out.get(DEREF)
    if target is not None:
        target_globals = [name for name in target.vars if name.startswith("@")]
        if target_globals:
            return min(target_globals)
    registered = heap_obj(node.uid)
    if registered is not None:
        return registered
    candidates = []
    for (_, label), base in node.inc.items():
        if label == DEREF or base.out.get(label) is not node:
            continue  # deref edges and stale reverse entries
        base_root = object_root(base, heap_obj, depth - 1)
        if base_root is not None:
            candidates.append(f"{base_root}.{label}")
    if candidates:
        return min(candidates)
    return None


class SharedKeyResolver:
    """Shared-key resolution for a checker that names shared state: the
    race checker and the cross-module taint checker.  Each registers the
    escaping heap objects its paths allocate under its own state
    namespace (``obj_namespace``), so ``race,xtaint`` runs never
    cross-talk through the shared store; ``shared_sites`` holds the uids
    of the malloc instructions whose objects escape (the heap half of
    the shared universe; globals are the other half)."""

    obj_namespace = OBJ_NAMESPACE
    shared_sites: FrozenSet[int]

    def _register_heap(self, event, ctx) -> None:
        if not event.heap or event.inst.uid not in self.shared_sites:
            return
        if ctx.alias_aware and ctx.graph is not None:
            node = ctx.graph.node_of(event.ptr)
            ctx.set_key(self.obj_namespace, node.uid, f"heap#{event.inst.uid}")

    @staticmethod
    def _is_global_scalar(var: Var) -> bool:
        # Aggregate globals are *addresses*; reading one is not an
        # access to the struct's storage (field accesses go through
        # Load/Store and key on the aggregate's object root).
        return var.is_global and not var.is_aggregate

    def _location(self, ctx, addr: Var) -> Optional[AccessKey]:
        """Canonical (root, field) for an access through ``addr``."""
        base = ctx.base_of(addr)
        if base is not None:
            base_var, fieldname = base
            root = self._root_of(ctx, base_var)
            if root is None:
                return None
            return (root, fieldname)
        root = self._root_of(ctx, addr)
        if root is None:
            return None
        if root.startswith("@"):
            # ``*(&g)`` *is* the scalar global — match direct accesses.
            return (root, DIRECT)
        return (root, DEREF)

    def _root_of(self, ctx, ptr: Var) -> Optional[str]:
        if ctx.alias_aware and ctx.graph is not None:
            namespace = self.obj_namespace
            return object_root(
                ctx.graph.node_of(ptr),
                lambda uid: ctx.get_key(namespace, uid),
            )
        # NA ablation: no pointee identity — only syntactically global
        # pointers/aggregates resolve (Table 6's regression, on purpose).
        if ptr.name.startswith("@"):
            return "*" + ptr.name
        return None


def render_key(key: AccessKey) -> str:
    """Human-readable form of a shared key for report messages."""
    root, fieldname = key
    if fieldname == DIRECT:
        return root
    if fieldname == DEREF:
        return f"*({root})"
    return f"{root}.{fieldname}"


def render_lockset(lockset: FrozenSet[AccessKey]) -> str:
    if not lockset:
        return "no locks"
    return "{" + ", ".join(render_key(lock) for lock in sorted(lockset)) + "}"
