"""The alias graph of PATA (§3.1, Definition 1) with the update rules of
Fig. 5.

A node is an *alias class*: the set of variables that, on the current
control-flow path, must refer to the same abstract object.  Edges are
labeled with a struct field name or the dereference label ``"*"`` and
describe how an abstract object is reached from another; for a given node
and label there is at most one outgoing edge.

Updates are *strong*: an assigned variable always leaves its old node.
(The paper's MOVE/LOAD rules express this with ``Vars(n1) -= {v1}``.)
All mutations are recorded on a :class:`~repro.alias.trail.Trail` so the
path-sensitive engine can rewind at branch backtracking instead of copying
the graph (see trail.py for why this is equivalent to Fig. 7's COPY).
"""

from __future__ import annotations

import functools
import itertools
from typing import Dict, FrozenSet, Iterator, List, Optional, Set, Tuple

from ..ir import Value, Var, is_null_const
from .trail import Trail

DEREF = "*"

_node_ids = itertools.count(1)


class AliasNode:
    """One alias class.  ``vars`` holds variable names (unique program-wide
    by construction: ``func.v``, ``%func.tN``, ``@g``)."""

    __slots__ = ("uid", "vars", "out", "inc")

    def __init__(self) -> None:
        self.uid = next(_node_ids)
        self.vars: Set[str] = set()
        self.out: Dict[str, "AliasNode"] = {}
        # Incoming edges as {(source uid, label): source node} — needed by
        # the UVA checker to find the base object of a field address.
        self.inc: Dict[Tuple[int, str], "AliasNode"] = {}

    def __repr__(self) -> str:
        return f"<n{self.uid} {{{', '.join(sorted(self.vars))}}}>"


class AliasGraph:
    """Mutable alias graph with trail-based undo.

    ``skip_names`` is the P1.7 singleton fast path: variable names the
    whole-program Steensgaard partition proved can never share a node
    with another variable, carry an edge, or be pointed to
    (:mod:`repro.pointsto.steensgaard`).  Strong updates of such a
    variable skip node creation entirely and only bump a trailed
    per-name *generation* — downstream clients key typestates on
    ``(name, generation)`` instead of a node uid, which reproduces the
    fresh-node-per-detach state visibility exactly.
    """

    def __init__(self, trail: Optional[Trail] = None,
                 skip_names: Optional[FrozenSet[str]] = None):
        self.trail = trail if trail is not None else Trail()
        self._node_of: Dict[str, AliasNode] = {}
        #: uid -> node for every node whose creation the trail has not
        #: undone; used to canonicalize typestate keys for exit-merge
        #: digests.  The trail removes the entry, so what it holds never
        #: depends on when the garbage collector runs.
        self.by_uid: Dict[int, AliasNode] = {}
        #: names whose binding changed, in order — lets the engine digest
        #: "what did this callee touch" for exit-path merging (§4, P2).
        #: Kept in sync with the trail (entries pop on undo).
        self.journal: List[str] = []
        #: P1.7 proven-singleton names whose per-path maintenance is skipped
        self.skip_names: FrozenSet[str] = skip_names or frozenset()
        #: current strong-update generation per skipped name (trailed)
        self.skip_generations: Dict[str, int] = {}

    def skip_generation(self, name: str) -> int:
        return self.skip_generations.get(name, 0)

    def bump_skip(self, name: str) -> None:
        """The fast-path strong update: no node, just a new generation —
        states keyed under older generations become unreachable exactly
        like states keyed on a detached node's uid."""
        old = self.skip_generations.get(name)
        self.skip_generations[name] = (old or 0) + 1

        def undo() -> None:
            if old is None:
                self.skip_generations.pop(name, None)
            else:
                self.skip_generations[name] = old

        self.trail.push(undo)

    def _journal_bind(self, name: str) -> None:
        self.journal.append(name)
        self.trail.push(self.journal.pop)

    def _new_node(self) -> AliasNode:
        node = AliasNode()
        self.by_uid[node.uid] = node
        self.trail.push(functools.partial(self.by_uid.pop, node.uid))
        return node

    # -- node lookup ---------------------------------------------------------

    def node_of(self, var: Var) -> AliasNode:
        """The node representing ``var``, creating an isolated node lazily.

        Lazy creation is equivalent to the paper's "insert a node for every
        variable up front" (Fig. 6 lines 4-6) but scales to OS-sized
        programs.
        """
        node = self._node_of.get(var.name)
        if node is None:
            node = self._new_node()
            node.vars.add(var.name)
            self._node_of[var.name] = node
            name = var.name
            self.trail.push(lambda: self._node_of.pop(name, None))
            self._journal_bind(name)
        return node

    def node_of_name(self, name: str) -> Optional[AliasNode]:
        return self._node_of.get(name)

    # -- primitive mutations (all trailed) ------------------------------------

    def _move_var(self, name: str, src: AliasNode, dst: AliasNode) -> None:
        src.vars.discard(name)
        dst.vars.add(name)
        self._node_of[name] = dst

        def undo() -> None:
            dst.vars.discard(name)
            src.vars.add(name)
            self._node_of[name] = src

        self.trail.push(undo)
        self._journal_bind(name)

    def _set_edge(self, src: AliasNode, label: str, dst: AliasNode) -> None:
        old = src.out.get(label)
        if old is dst:
            return  # identical edge: nothing changes (and nothing to undo)
        src.out[label] = dst
        dst.inc[(src.uid, label)] = src
        if old is not None:
            old.inc.pop((src.uid, label), None)

        def undo() -> None:
            dst.inc.pop((src.uid, label), None)
            if old is not None:
                src.out[label] = old
                old.inc[(src.uid, label)] = src
            else:
                src.out.pop(label, None)

        self.trail.push(undo)

    def detach(self, var: Var) -> Optional[AliasNode]:
        """Strong update: give ``var`` a fresh singleton node and return it.

        The node is always brand new — node identity is what downstream
        clients key typestates and SMT symbols on, so a reassigned
        variable must never keep its old node (that would resurrect stale
        states/constraints, e.g. after ``x = 0; ...; x = 1``).

        Proven singletons (P1.7 fast path) return None: no node exists,
        the generation bump carries the strong-update semantics.
        """
        if var.name in self.skip_names:
            self.bump_skip(var.name)
            return None
        current = self._node_of.get(var.name)
        fresh = self._new_node()
        if current is None:
            fresh.vars.add(var.name)
            self._node_of[var.name] = fresh
            name = var.name
            self.trail.push(lambda: self._node_of.pop(name, None))
            self._journal_bind(name)
        else:
            self._move_var(var.name, current, fresh)
        return fresh

    # -- the Fig. 5 rules -------------------------------------------------------

    def handle_move(self, dst: Var, src: Var) -> AliasNode:
        """HandleMOVE(v1 = v2): v1 joins v2's node."""
        n_src = self.node_of(src)
        n_dst = self._node_of.get(dst.name)
        if n_dst is n_src:
            return n_src
        if n_dst is None:
            self._node_of[dst.name] = n_src
            n_src.vars.add(dst.name)
            name = dst.name

            def undo() -> None:
                n_src.vars.discard(name)
                self._node_of.pop(name, None)

            self.trail.push(undo)
            self._journal_bind(name)
        else:
            self._move_var(dst.name, n_dst, n_src)
        return n_src

    def handle_store(self, ptr: Var, src: Var) -> AliasNode:
        """HandleSTORE(*v2 = v1): retarget v2's ``*`` edge to v1's node."""
        n_ptr = self.node_of(ptr)
        n_src = self.node_of(src)
        self._set_edge(n_ptr, DEREF, n_src)
        return n_src

    def handle_store_fresh(self, ptr: Var) -> AliasNode:
        """STORE of a non-variable (constant) value: ``*v2`` now refers to an
        object no variable names — a fresh node."""
        n_ptr = self.node_of(ptr)
        fresh = self._new_node()
        self._set_edge(n_ptr, DEREF, fresh)
        return fresh

    def handle_load(self, dst: Var, ptr: Var) -> AliasNode:
        """HandleLOAD(v1 = *v2)."""
        return self._follow_edge(dst, ptr, DEREF)

    def handle_gep(self, dst: Var, base: Var, field: str) -> AliasNode:
        """HandleGEP(v1 = &v2->f)."""
        return self._follow_edge(dst, base, field)

    def _follow_edge(self, dst: Var, src: Var, label: str) -> AliasNode:
        n_src = self.node_of(src)
        target = n_src.out.get(label)
        if target is not None:
            n_dst = self._node_of.get(dst.name)
            if n_dst is target:
                return target
            if n_dst is None:
                target.vars.add(dst.name)
                self._node_of[dst.name] = target
                name = dst.name

                def undo() -> None:
                    target.vars.discard(name)
                    self._node_of.pop(name, None)

                self.trail.push(undo)
                self._journal_bind(name)
            else:
                self._move_var(dst.name, n_dst, target)
            return target
        n_dst = self.detach(dst)
        self._set_edge(n_src, label, n_dst)
        return n_dst

    def handle_addr_of(self, dst: Var, var: Var) -> AliasNode:
        """``v1 = &v2``: after a strong update of v1, ``*v1`` must reach
        v2's node — i.e. STORE semantics with v1 reassigned first."""
        n_var = self.node_of(var)
        n_dst = self.detach(dst)
        self._set_edge(n_dst, DEREF, n_var)
        return n_dst

    def handle_fresh_object(self, dst: Var) -> AliasNode:
        """Allocation (``dst = malloc(...)`` / alloca): dst points to a brand
        new object nothing else aliases — a fresh singleton node."""
        return self.detach(dst)

    # -- queries -----------------------------------------------------------------

    def alias_names(self, var: Var) -> FrozenSet[str]:
        """Variable names in ``var``'s alias class (including itself)."""
        node = self._node_of.get(var.name)
        if node is None:
            return frozenset((var.name,))
        return frozenset(node.vars)

    def are_aliases(self, a: Var, b: Var) -> bool:
        if a.name == b.name:
            return True
        na = self._node_of.get(a.name)
        return na is not None and na is self._node_of.get(b.name)

    def deref_node(self, var: Var) -> Optional[AliasNode]:
        """Node reached by ``*var`` when it exists."""
        node = self._node_of.get(var.name)
        return node.out.get(DEREF) if node is not None else None

    def access_paths(self, node: AliasNode, max_depth: int = 3, max_paths: int = 16) -> List[str]:
        """Human-readable access paths reaching ``node`` (Example 1 of the
        paper): variables in the node itself (length 0) plus
        ``&v->f`` / ``*v`` style paths through incoming edges."""
        paths: List[str] = sorted(node.vars)
        frontier: List[Tuple[AliasNode, str]] = [(node, "")]
        for _ in range(max_depth):
            next_frontier: List[Tuple[AliasNode, str]] = []
            for current, suffix in frontier:
                for (_, label), src in list(current.inc.items()):
                    if src.out.get(label) is not current:
                        continue  # stale reverse entry
                    for var_name in sorted(src.vars):
                        if label == DEREF:
                            rendered = f"*({var_name}){suffix}" if suffix else f"*{var_name}"
                        else:
                            rendered = f"&{var_name}->{label}{suffix}"
                        paths.append(rendered)
                        if len(paths) >= max_paths:
                            return paths
                    next_frontier.append((src, f"->{label}" if label != DEREF else "*"))
            frontier = next_frontier
            if not frontier:
                break
        return paths

    def nodes(self) -> Iterator[AliasNode]:
        seen: Set[int] = set()
        for node in self._node_of.values():
            if node.uid not in seen:
                seen.add(node.uid)
                yield node

    def stats(self) -> Tuple[int, int]:
        """(number of alias classes, number of tracked variables)."""
        classes = set(id(n) for n in self._node_of.values())
        return len(classes), len(self._node_of)
