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
boundaries, each with its own naming:

* the worker pool names an instruction or terminator by its uid, which
  forked workers share with the parent (:mod:`repro.core.parallel`);
* the cache names it by its coordinate, and a string holding
  ``heap#<uid>`` by the same string with each uid replaced by that
  instruction's coordinate (:meth:`CoordIndex.name`).  The engine writes
  ``heap#N`` only from an allocation's uid, so the rule rewrites exactly
  what a cold run would print, in whatever field it sits.

Either way no pickled outcome carries a copy of the IR, and a decoded
one holds the current program's own objects: a cache hit's entry has an
unchanged callgraph closure (that is what the transitive key
certifies), so every coordinate its records name still resolves, and
the outcome is indistinguishable from one the current run explored —
uid-based dedup keys, race-matcher sort orders and ``heap#<uid>``
shared-state roots all agree with freshly analyzed entries.

The module also owns :func:`renumber_program` — after assembling a
program from cached (unpickled) modules, every uid is reassigned from
the live process counters so they cannot collide with IR compiled fresh
in the same process.
"""

from __future__ import annotations

import io
import pickle
import re
from typing import Any, Callable, Dict, Iterator, Tuple

from ..ir import Instruction, Program, Terminator

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

    def persistent_id(self, obj):
        return self._ref(obj)


class _Unpickler(pickle.Unpickler):
    def __init__(self, file, resolve: Callable[[Any], Any]):
        super().__init__(file)
        self._resolve = resolve

    def persistent_load(self, name):
        return self._resolve(name)


def encode(value: Any, ref: Callable[[Any], Any]) -> bytes:
    """``value`` pickled with each object for which ``ref`` returns a
    name (anything but ``None``) written as that name."""
    buffer = io.BytesIO()
    _Pickler(buffer, ref).dump(value)
    return buffer.getvalue()


def decode(data: bytes, resolve: Callable[[Any], Any]) -> Any:
    """Read :func:`encode`'s bytes back, each name through ``resolve``."""
    return _Unpickler(io.BytesIO(data), resolve).load()


def _walk(program: Program) -> Iterator[Tuple[Coord, object]]:
    for func in program.functions():
        for block_index, block in enumerate(func.blocks):
            for inst_index, inst in enumerate(block.instructions):
                yield (func.name, block_index, inst_index), inst
            if block.terminator is not None:
                yield (func.name, block_index, -1), block.terminator


class CoordIndex:
    """Bidirectional uid ⇄ coordinate maps over one program, built once
    per analysis (one linear walk): the cache's naming and resolver."""

    def __init__(self, program: Program):
        self.by_uid: Dict[int, Coord] = {}
        self.by_coord: Dict[Coord, object] = {}
        for coord, inst in _walk(program):
            self.by_uid[inst.uid] = coord
            self.by_coord[coord] = inst

    def coord_of(self, uid: int) -> Coord:
        try:
            return self.by_uid[uid]
        except KeyError:
            raise StaleEntry(f"uid {uid} has no coordinate in this program")

    def _name_root(self, match) -> str:
        func, block, inst = self.coord_of(int(match.group(1)))
        return f"heap#{func}@{block}.{inst}"

    def _resolve_root(self, match) -> str:
        coord = (match.group(1), int(match.group(2)), int(match.group(3)))
        return f"heap#{self.resolve(coord).uid}"

    def name(self, obj):
        """The cache's naming: an instruction or terminator by its
        coordinate, a string holding ``heap#<uid>`` by the same string
        with each uid replaced by that instruction's coordinate."""
        if isinstance(obj, (Instruction, Terminator)):
            return self.coord_of(obj.uid)
        if type(obj) is str and "heap#" in obj:
            return _HEAP_ROOT.sub(self._name_root, obj)
        return None

    def resolve(self, name):
        """The current program's object for a :meth:`name`; raises
        :class:`StaleEntry` for a coordinate the program lacks."""
        if type(name) is str:
            return _NAMED_ROOT.sub(self._resolve_root, name)
        inst = self.by_coord.get(name)
        if inst is None:
            raise StaleEntry(f"coordinate {name!r} not present in this program")
        return inst


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
    coordinate indexes, heap roots) is scoped to a single analysis, and
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
