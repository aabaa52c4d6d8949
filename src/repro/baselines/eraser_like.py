"""Lockset-only race baseline (the Eraser regime).

The classic dynamic-race recipe transplanted to static per-function
scanning: walk every function straight-line, maintain a *syntactic*
lockset (textual lock expressions), record each access to a global-
rooted location with the lockset held, and report any cross-function
pair on the same location where at least one side writes and the
locksets share no lock.  No path sensitivity and no feasibility
reasoning — accesses serialized by a mode flag (the
``race_bait_flag_guarded`` corpus pattern) are reported anyway, which is
exactly what PATA's stage-2 pair validation discharges.  The measuring
stick the racelab tests in ``tests/test_races.py`` hold the race
checker against; deliberately **not** part of
:func:`~repro.baselines.all_baselines` (Table 8's column order is
fixed).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..ir import AddrOf, Gep, Instruction, Load, LockOp, MemSet, Move, Program, Store, Var
from ..typestate import BugKind
from .base import BaselineTool, ToolFinding

#: (key, is_write, inst, function, lockset)
_Access = Tuple[str, bool, Instruction, str, frozenset]


class EraserLike(BaselineTool):
    """The lockset-only regime; see the module docstring."""

    name = "eraser-like"
    supported_kinds = (BugKind.RACE,)

    def _run(self, program: Program) -> List[ToolFinding]:
        accesses: List[_Access] = []
        for func in program.functions():
            if func.is_declaration:
                continue
            accesses.extend(self._scan_function(func))
        return self._match(accesses)

    # -- per-function scan ---------------------------------------------

    def _scan_function(self, func) -> List[_Access]:
        # env maps a pointer variable to the textual path of its pointee
        # ("*@g_box", "*@g_rc.count"); None = points at nothing shared.
        env: Dict[str, Optional[str]] = {}
        lockset: set = set()
        out: List[_Access] = []

        def record(key: Optional[str], is_write: bool, inst: Instruction) -> None:
            if key and "@" in key:
                out.append((key, is_write, inst, func.name, frozenset(lockset)))

        def pointee(var: Var) -> Optional[str]:
            known = env.get(var.name)
            if known:
                return known
            if var.is_global and var.is_aggregate:
                return f"*{var.name}"  # the global IS the object's address
            return None

        for block in func.blocks:
            for inst in block.instructions:
                if isinstance(inst, LockOp):
                    key = env.get(inst.lock.name) or inst.lock.name
                    if inst.acquire:
                        lockset.add(key)
                    else:
                        lockset.discard(key)
                elif isinstance(inst, AddrOf):
                    env[inst.dst.name] = inst.var.name if inst.var.is_global else None
                elif isinstance(inst, Gep):
                    base = pointee(inst.base)
                    env[inst.dst.name] = f"{base}.{inst.field}" if base else None
                elif isinstance(inst, Load):
                    addr = pointee(inst.ptr)
                    record(addr, False, inst)
                    env[inst.dst.name] = f"*{addr}" if addr else None
                elif isinstance(inst, Store):
                    record(pointee(inst.ptr), True, inst)
                elif isinstance(inst, MemSet):
                    record(pointee(inst.ptr), True, inst)
                elif isinstance(inst, Move):
                    src = inst.src
                    if isinstance(src, Var):
                        if src.is_global and not src.is_aggregate:
                            record(src.name, False, inst)
                            env[inst.dst.name] = f"*{src.name}"
                        else:
                            env[inst.dst.name] = env.get(src.name) or pointee(src)
                    if inst.dst.is_global and not inst.dst.is_aggregate:
                        record(inst.dst.name, True, inst)
                else:
                    # Scalar globals read as plain operands (guards,
                    # arithmetic, call arguments).
                    for op in inst.operands():
                        if isinstance(op, Var) and op.is_global and not op.is_aggregate:
                            record(op.name, False, inst)
            term = block.terminator
            if term is not None:
                # Ret values and branch conditions read globals too.
                for op in (getattr(term, "value", None), getattr(term, "cond", None)):
                    if isinstance(op, Var) and op.is_global and not op.is_aggregate:
                        record(op.name, False, term)
        return out

    # -- cross-function lockset matching -------------------------------

    def _match(self, accesses: List[_Access]) -> List[ToolFinding]:
        by_key: Dict[str, List[_Access]] = {}
        for acc in accesses:
            by_key.setdefault(acc[0], []).append(acc)
        findings: List[ToolFinding] = []
        seen: set = set()
        for key in sorted(by_key):
            group = sorted(by_key[key], key=lambda a: a[2].uid)
            for i, a in enumerate(group):
                for b in group[i + 1:]:
                    if a[3] == b[3]:
                        continue  # same function: one thread
                    if not (a[1] or b[1]):
                        continue  # read/read
                    if not a[4].isdisjoint(b[4]):
                        continue  # a common lock protects the pair
                    site = b[2]  # the later access, like PATA's sink
                    loc_key = (site.loc.filename, site.loc.line)
                    if loc_key in seen:
                        continue
                    seen.add(loc_key)
                    findings.append(
                        ToolFinding(
                            kind=BugKind.RACE,
                            file=site.loc.filename,
                            line=site.loc.line,
                            message=(
                                f"possible data race on '{key}' "
                                f"({a[3]} vs {b[3]}, no common lock)"
                            ),
                            function=b[3],
                        )
                    )
        return findings
