"""Grep-regime taint baseline: per-function source/sink co-occurrence,
plus a module-granular cross-module tier.

The naive recipe auditors actually run first: flag any function that both
calls a user-input intrinsic (``copy_from_user`` family, by name) *and*
contains a sensitive sink (variable array index, variable divisor,
variable allocation size or copy length).  Flow-insensitive, path-
insensitive, alias-unaware, no sanitization reasoning — so every
range-checked sibling is a false positive and any flow crossing a
function boundary is missed.

The **cross-module tier** is the same recipe grepped across translation
units: any global *written anywhere* in a source-calling function is
"tainted", and any *other-module* function reading it that contains a
sink is flagged.  No value tracking — a function that calls an intrinsic
but stores only a constant into the global still taints it, which is
exactly the near-miss false positive the P2.6 summaries avoid (the
``cross-module:`` message prefix lets the harness count these FPs
separately).  The measuring stick the alias-aware SMT-discharged
checkers (:mod:`repro.taint`, :mod:`repro.xtaint`) are compared against
in ``tests/test_taint.py`` and ``tests/test_xtaint.py``; deliberately
**not** part of :func:`~repro.baselines.all_baselines` (Table 8's
column order is fixed).
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from ..ir import BinOp, Call, Function, Gep, Malloc, MemSet, Move, Program, Store, Var
from ..presolve.events import TAINT_SOURCE_HINTS
from ..typestate import BugKind
from .base import BaselineTool, ToolFinding

#: message prefix marking cross-module-tier findings, so harnesses can
#: count their false positives separately from the per-function tier's
CROSS_MODULE_PREFIX = "cross-module: "


def _scan(func: Function) -> Tuple[bool, List, Set[str], Set[str]]:
    """(has_source, sinks, globals written, globals read) of one
    function — one linear walk shared by both tiers."""
    has_source = False
    sinks: List[Tuple[object, str]] = []
    writes: Set[str] = set()
    reads: Set[str] = set()
    for block in func.blocks:
        for inst in block.instructions:
            if isinstance(inst, Call) and any(
                hint in inst.callee for hint in TAINT_SOURCE_HINTS
            ):
                has_source = True
            elif isinstance(inst, Gep) and isinstance(inst.index, Var):
                sinks.append((inst, inst.index.display_name()))
            elif (
                isinstance(inst, BinOp)
                and inst.op in ("div", "mod")
                and isinstance(inst.rhs, Var)
            ):
                sinks.append((inst, inst.rhs.display_name()))
            elif isinstance(inst, Malloc) and isinstance(inst.size, Var):
                sinks.append((inst, inst.size.display_name()))
            elif isinstance(inst, MemSet) and isinstance(inst.size, Var):
                sinks.append((inst, inst.size.display_name()))
            if isinstance(inst, Move):
                if inst.dst.is_global:
                    writes.add(inst.dst.name)
                if isinstance(inst.src, Var) and inst.src.is_global:
                    reads.add(inst.src.name)
            elif isinstance(inst, Store) and isinstance(inst.ptr, Var) and inst.ptr.is_global:
                writes.add(inst.ptr.name)
    return has_source, sinks, writes, reads


class TaintNaive(BaselineTool):
    """The grep regime; see the module docstring."""

    name = "taint-naive"
    supported_kinds = (BugKind.TAINT,)

    def _run(self, program: Program) -> List[ToolFinding]:
        findings: List[ToolFinding] = []
        scanned = []  # (module name, func, scan tuple)
        #: global name -> modules where a source-calling function writes it
        tainted_globals: Dict[str, Set[str]] = {}
        for module in program.modules:
            for func in module.defined_functions():
                scan = _scan(func)
                scanned.append((module.name, func, scan))
                has_source, _, writes, _ = scan
                if has_source:
                    for name in writes:
                        tainted_globals.setdefault(name, set()).add(module.name)

        seen: Set[Tuple[str, int]] = set()

        def emit(inst, func: Function, message: str) -> None:
            key = (inst.loc.filename, inst.loc.line)
            if key in seen:
                return
            seen.add(key)
            findings.append(
                ToolFinding(
                    kind=BugKind.TAINT,
                    file=inst.loc.filename,
                    line=inst.loc.line,
                    message=message,
                    function=func.name,
                )
            )

        # Tier 1: per-function co-occurrence (the historical recipe).
        for _, func, (has_source, sinks, _, _) in scanned:
            if not has_source:
                continue
            for inst, subject in sinks:
                emit(inst, func, f"user input may reach sink '{subject}'")
        # Tier 2: cross-module — a sink-containing function reading a
        # global some *other* module's source-calling function writes.
        for module_name, func, (_, sinks, _, reads) in scanned:
            if not sinks:
                continue
            hot = [
                name for name in sorted(reads)
                if any(w != module_name for w in tainted_globals.get(name, ()))
            ]
            if not hot:
                continue
            via = ", ".join(hot)
            for inst, subject in sinks:
                emit(inst, func,
                     f"{CROSS_MODULE_PREFIX}user input may reach sink "
                     f"'{subject}' via global(s) {via}")
        return findings
