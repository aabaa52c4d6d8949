"""Stable instruction coordinates, and the one codec that carries an
entry's outcome across a process or run boundary.

Instruction and block ``uid``\\ s are *process-local* counters: a cached
P2 outcome read by a later run would carry uids that mean nothing to —
or worse, collide with — the current program.  This module gives every
instruction and terminator a **coordinate** that *is* stable across
runs for an unchanged function::

    (function name, block index, instruction index)   # -1 = terminator

The codec (:func:`encode` / :func:`decode`) is one pickler/unpickler
pair: it writes each object a *naming* function names as that name,
and reads each name back through a *resolver*.  An outcome crosses two
boundaries — from a worker process to the parent
(:mod:`repro.core.parallel`) and from one run to a later one through
the cache — with one naming, :class:`CoordNaming`: an instruction or
terminator is written as its coordinate, and a string holding
``heap#<uid>`` as the same string with each uid replaced by that
instruction's coordinate (:meth:`CoordNaming.name`).  The engine writes
``heap#N`` only from an allocation's uid, so the rule rewrites exactly
what a cold run would print, in whatever field it sits.

No pickled outcome carries a copy of the IR, and a decoded one holds
the current program's own objects.  A forked worker's program is the
parent's, so every name it writes resolves in the parent.  A cache
hit's entry has an unchanged callgraph closure (that is what the
transitive key certifies), so every coordinate its records name still
resolves, and the outcome is indistinguishable from one the current
run explored — uid-based dedup keys, race-matcher sort orders and
``heap#<uid>`` shared-state roots all agree with freshly analyzed
entries.

The naming keeps no table per instruction.  The IR links each
instruction to its block and each block to its function, so a
coordinate is read off the instruction, and resolved by indexing the
function :meth:`Program.lookup` returns.  Only a ``heap#`` string asks
for an instruction by uid; the first one sorts the defined functions
by their first uid, and a naming whose outcomes hold none sorts
nothing.

The module also owns :func:`renumber_program` — after assembling a
program from cached (unpickled) modules, every uid is reassigned
sequentially in program order, so they cannot collide with IR compiled
fresh in the same process, and a position within a block or function
is a uid difference.
"""

from __future__ import annotations

import bisect
import io
import itertools
import pickle
import re
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..ir import Function, Instruction, Program, Terminator

#: coordinate of one instruction: (function, block index, instruction
#: index); the terminator of a block sits at instruction index -1
Coord = Tuple[str, int, int]

_HEAP_ROOT = re.compile(r"heap#(\d+)")
#: a ``heap#`` root as the cache names it: ``heap#<function>@<block>.<index>``
_NAMED_ROOT = re.compile(r"heap#([^@]*)@(\d+)\.(-?\d+)")


class StaleEntry(Exception):
    """A cached object references a coordinate the current program does
    not have (or vice versa) — the entry predates the current cache-key
    scheme or the key derivation missed a dependency.  Callers treat it
    as a miss; soundness never rests on this path being unreachable."""


class _Pickler(pickle.Pickler):
    def __init__(self, file, ref: Callable[[Any], Any]):
        super().__init__(file, pickle.HIGHEST_PROTOCOL)
        self._ref = ref
        #: the first of each equal name: pickle's memo, which goes by
        #: identity, then writes a repeat as a reference
        self._names: Dict[Any, Any] = {}

    def persistent_id(self, obj):
        name = self._ref(obj)
        return name if name is None else self._names.setdefault(name, name)


def encode(value: Any, ref: Callable[[Any], Any]) -> bytes:
    """``value`` pickled with each object for which ``ref`` returns a
    name (anything but ``None``) written as that name."""
    buffer = io.BytesIO()
    _Pickler(buffer, ref).dump(value)
    return buffer.getvalue()


def decode(data: bytes, resolve: Callable[[Any], Any]) -> Any:
    """Read :func:`encode`'s bytes back, each name through ``resolve``."""
    unpickler = pickle.Unpickler(io.BytesIO(data))
    unpickler.persistent_load = resolve
    return unpickler.load()


def _index(items, item) -> int:
    """``item``'s index in ``items``: its uid's distance from the first
    item's, confirmed by identity, else found by a search."""
    i = item.uid - items[0].uid if items else -1
    if 0 <= i < len(items) and items[i] is item:
        return i
    for position, candidate in enumerate(items):
        if candidate is item:
            return position
    raise StaleEntry(f"{item!r} is not where its parent link points")


def _first_uid(block) -> Optional[int]:
    """The uid of ``block``'s first instruction, or of its terminator."""
    if block.instructions:
        return block.instructions[0].uid
    return block.terminator.uid if block.terminator is not None else None


def _numbered_in(func: Function, uid: int):
    """``func``'s instruction or terminator numbered ``uid``, if any:
    in each block, by uid difference from its first instruction."""
    for block in func.blocks:
        insts = block.instructions
        i = uid - insts[0].uid if insts else -1
        if 0 <= i < len(insts) and insts[i].uid == uid:
            return insts[i]
        if block.terminator is not None and block.terminator.uid == uid:
            return block.terminator
    return None


class CoordNaming:
    """The codec's naming and resolver over one program.  Nothing is
    built per instruction: a coordinate is read off the instruction
    through its ``parent`` links, and resolved by indexing the function
    :meth:`Program.lookup` returns.

    :func:`renumber_program` numbers each block's instructions, and each
    function's blocks, consecutively, so a position is a uid difference;
    one identity check confirms it, and a search stands in when it
    fails, so correctness never rests on the numbering."""

    def __init__(self, program: Program):
        self.program = program
        #: each defined function's first uid, ascending, and the
        #: functions in that order: the one uid lookup ``heap#`` strings
        #: need, built on the first one (:meth:`_numbered`)
        self._starts: Optional[List[int]] = None
        self._funcs: List[Function] = []

    def coord(self, inst) -> Coord:
        """``inst``'s coordinate; raises :class:`StaleEntry` unless it is
        an instruction or terminator of a function ``program.lookup``
        returns, where its parent links say."""
        block = inst.parent
        func = block.parent if block is not None else None
        if func is None or self.program.lookup(func.name) is not func:
            raise StaleEntry(f"{inst!r} is not in a function of this program")
        b = _index(func.blocks, block)
        if block.terminator is inst:
            return (func.name, b, -1)
        return (func.name, b, _index(block.instructions, inst))

    def _numbered(self, uid: int):
        """The instruction or terminator numbered ``uid``: in the
        function whose first uid is the greatest not above it, else (the
        numbering is not :func:`renumber_program`'s) in any function."""
        if self._starts is None:
            firsts = [(_first_uid(func.blocks[0]), func) for func in self.program.functions()]
            firsts = sorted((pair for pair in firsts if pair[0] is not None),
                            key=lambda pair: pair[0])
            self._starts = [first for first, _ in firsts]
            self._funcs = [func for _, func in firsts]
        k = bisect.bisect_right(self._starts, uid) - 1
        candidates = self._funcs[k:k + 1] if k >= 0 else []
        for func in itertools.chain(candidates, self.program.functions()):
            inst = _numbered_in(func, uid)
            if inst is not None:
                return inst
        raise StaleEntry(f"uid {uid} has no coordinate in this program")

    def _name_root(self, match) -> str:
        func, block, inst = self.coord(self._numbered(int(match.group(1))))
        return f"heap#{func}@{block}.{inst}"

    def _resolve_root(self, match) -> str:
        coord = (match.group(1), int(match.group(2)), int(match.group(3)))
        return f"heap#{self.resolve(coord).uid}"

    def name(self, obj):
        """The codec's naming: an instruction or terminator by its
        coordinate, a string holding ``heap#<uid>`` by the same string
        with each uid replaced by that instruction's coordinate."""
        if isinstance(obj, (Instruction, Terminator)):
            return self.coord(obj)
        if type(obj) is str and "heap#" in obj:
            return _HEAP_ROOT.sub(self._name_root, obj)
        return None

    def resolve(self, name):
        """The current program's object for a :meth:`name`; raises
        :class:`StaleEntry` for a coordinate the program lacks."""
        if type(name) is str:
            return _NAMED_ROOT.sub(self._resolve_root, name)
        func_name, b, i = name
        func = self.program.lookup(func_name)
        if func is not None and 0 <= b < len(func.blocks):
            block = func.blocks[b]
            if i == -1 and block.terminator is not None:
                return block.terminator
            if 0 <= i < len(block.instructions):
                return block.instructions[i]
        raise StaleEntry(f"coordinate {name!r} not present in this program")


def renumber_program(program: Program) -> None:
    """Reassign every block/instruction/terminator uid sequentially from
    1, in deterministic program order.  Mandatory after assembling a
    program from unpickled cached modules: their pickled uids come from
    another process's counters and could collide with IR compiled fresh
    into the same program (colliding dedup keys silently drop reports).

    The numbering is deliberately *process-independent*: uids leak into
    rendered report text through ``heap#<uid>`` shared-state roots, so a
    resident session (which compiles programs at arbitrary points in a
    long-lived process) would otherwise drift from a one-shot CLI run on
    the same sources.  Per-program numbering cannot collide across
    programs — every uid consumer (dedup keys, race-matcher sort orders,
    the codec's naming, heap roots) is scoped to a single analysis, and
    every uid inside one program is reassigned here in one pass."""
    next_block = 0
    next_inst = 0
    for module in program.modules:
        for func in module.functions.values():
            for block in func.blocks:
                next_block += 1
                block.uid = next_block
                for inst in block.instructions:
                    next_inst += 1
                    inst.uid = next_inst
                if block.terminator is not None:
                    next_inst += 1
                    block.terminator.uid = next_inst
