"""Flow-sensitive points-to refinement (the SVF regime of §6).

A classical sparse flow-sensitive analysis is approximated here by a
per-block forward dataflow over each function: the points-to base
provides the global may-point-to universe; the dataflow strengthens
top-level variables with *kill* information (a strong update at ``p = q``
replaces p's set in that block's out-state), while memory stays weak —
loads read the flow-insensitive universe.  Joins union — that is the
"intersection/union at joint points" imprecision the paper contrasts
path-based aliasing against (§2.2, C1).  The ``svf_null`` baseline is
its one client.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Set, Tuple

from ..cfg import predecessors, reverse_postorder
from ..ir import AddrOf, Alloc, Function, Gep, Load, Malloc, Move, Var
from .andersen import AndersenPointsTo, Obj

_EMPTY: FrozenSet[Obj] = frozenset()


class FlowSensitivePointsTo:
    """Per-(function, block) points-to maps refining a may-alias base.

    ``base`` needs ``points_to(name) -> FrozenSet[Obj]`` and ``solved`` /
    ``solve()`` — :class:`AndersenPointsTo` or any conservative stand-in.
    """

    def __init__(self, base: AndersenPointsTo):
        if not base.solved:
            base.solve()
        self.base = base
        #: (function name, block uid, var name) -> frozenset of objects
        self._block_out: Dict[Tuple[str, int, str], FrozenSet[Obj]] = {}
        self._analyzed: Set[str] = set()

    # -- driver -----------------------------------------------------------------

    def analyze_function(self, func: Function) -> None:
        if func.name in self._analyzed or func.is_declaration:
            return
        self._analyzed.add(func.name)
        order = reverse_postorder(func)
        preds = predecessors(func)
        states: Dict[int, Dict[str, FrozenSet[Obj]]] = {}
        for _ in range(8):  # small fixpoint bound; CFGs are reducible
            changed = False
            for block in order:
                in_state: Dict[str, FrozenSet[Obj]] = {}
                for pred in preds[block]:
                    for name, objs in states.get(pred.uid, {}).items():
                        in_state[name] = in_state.get(name, _EMPTY) | objs
                out_state = dict(in_state)
                for inst in block.instructions:
                    self._transfer(inst, out_state)
                if states.get(block.uid) != out_state:
                    states[block.uid] = out_state
                    changed = True
            if not changed:
                break
        for block_uid, state in states.items():
            for name, objs in state.items():
                self._block_out[(func.name, block_uid, name)] = objs

    # -- transfer ---------------------------------------------------------------

    def _transfer(self, inst, state: Dict[str, FrozenSet[Obj]]) -> None:
        if isinstance(inst, (Malloc, Alloc)):
            state[inst.dst.name] = frozenset({("o", inst.uid)})
        elif isinstance(inst, AddrOf):
            state[inst.dst.name] = frozenset({("g", inst.var.name)})
        elif isinstance(inst, Move):
            if isinstance(inst.src, Var):
                state[inst.dst.name] = state.get(inst.src.name, self.base.points_to(inst.src.name))
        elif isinstance(inst, Gep):
            base = state.get(inst.base.name, self.base.points_to(inst.base.name))
            state[inst.dst.name] = frozenset(("f", o, inst.field) for o in base)
        elif isinstance(inst, Load):
            # Memory reads fall back to the flow-insensitive universe.
            state[inst.dst.name] = self.base.points_to(inst.dst.name)
        # Stores update memory weakly: the base universe already covers them.

    # -- queries ----------------------------------------------------------------

    def points_to_at(self, func: Function, block_uid: int, var_name: str) -> FrozenSet[Obj]:
        self.analyze_function(func)
        precise = self._block_out.get((func.name, block_uid, var_name))
        return precise if precise is not None else self.base.points_to(var_name)

    def may_alias_at(self, func: Function, block_uid: int, a: str, b: str) -> bool:
        if a == b:
            return True
        return bool(self.points_to_at(func, block_uid, a) & self.points_to_at(func, block_uid, b))

    def must_not_alias_at(self, func: Function, block_uid: int, a: str, b: str) -> bool:
        """Sound must-not-alias at a program point: the (over-approximate)
        points-to sets are disjoint, so no execution can make ``a`` and
        ``b`` name the same cell there."""
        return not self.may_alias_at(func, block_uid, a, b)
