"""Stable instruction coordinates and cross-run rehydration.

Instruction and block ``uid``\\ s are *process-local* counters: a cached
P2 outcome unpickled in a later run carries uids that mean nothing to —
or worse, collide with — the current program.  This module gives every
instruction, terminator, and block a **coordinate** that *is* stable
across runs for an unchanged function::

    (function name, block index, instruction index)   # -1 = terminator

A cache hit's entry has an unchanged callgraph closure (that is what the
transitive key certifies), so every instruction its traces mention still
sits at the same coordinate in the current program; rehydration swaps
each unpickled copy for the current program's own object.  After that a
cached outcome is indistinguishable from one the current run explored:
uid-based dedup keys, race-matcher sort orders, and ``heap#<uid>``
shared-state roots all agree with freshly analyzed entries.

The module also owns :func:`renumber_program` — after assembling a
program from cached (unpickled) modules, every uid is reassigned from
the live process counters so they cannot collide with IR compiled fresh
in the same process.
"""

from __future__ import annotations

import re
from typing import Dict, Iterator, Tuple

from ..ir import Instruction, Program, Terminator

#: coordinate of one instruction: (function, block index, instruction
#: index); the terminator of a block sits at instruction index -1
Coord = Tuple[str, int, int]

_HEAP_ROOT = re.compile(r"heap#(\d+)")


class StaleEntry(Exception):
    """A cached object references a coordinate the current program does
    not have (or vice versa) — the entry predates the current cache-key
    scheme or the key derivation missed a dependency.  Callers treat it
    as a miss; soundness never rests on this path being unreachable."""


def _walk(program: Program) -> Iterator[Tuple[Coord, object]]:
    for func in program.functions():
        for block_index, block in enumerate(func.blocks):
            for inst_index, inst in enumerate(block.instructions):
                yield (func.name, block_index, inst_index), inst
            if block.terminator is not None:
                yield (func.name, block_index, -1), block.terminator


class CoordIndex:
    """Bidirectional uid ⇄ coordinate maps over one program, built once
    per analysis (one linear walk) and shared by every snapshot/
    rehydrate call."""

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

    def resolve(self, coord) -> object:
        inst = self.by_coord.get(tuple(coord))
        if inst is None:
            raise StaleEntry(f"coordinate {coord!r} not present in this program")
        return inst


# -- record snapshot / rehydrate --------------------------------------------


def _is_inst(obj) -> bool:
    return isinstance(obj, (Instruction, Terminator))


def _trace_uids(trace) -> Iterator[int]:
    for step in trace:
        for item in step:
            if _is_inst(item):
                yield item.uid


def _key_uids(key) -> Iterator[int]:
    for match in _HEAP_ROOT.finditer(key[0]):
        yield int(match.group(1))


def record_coords(bugs, accesses, index: CoordIndex) -> Dict[int, Coord]:
    """uid → coordinate for every instruction a cached record set
    mentions: bug sources/sinks, trace steps, access instructions, and
    the malloc uids embedded in ``heap#N`` shared-state roots (keys and
    locksets).  Stored alongside the pickled payload; the loading run
    inverts it."""
    coords: Dict[int, Coord] = {}

    def note(uid: int) -> None:
        if uid not in coords:
            coords[uid] = index.coord_of(uid)

    for bug in bugs:
        note(bug.source.uid)
        note(bug.sink.uid)
        for uid in _trace_uids(bug.trace):
            note(uid)
        for uid in _trace_uids(bug.second_trace):
            note(uid)
    for access in accesses:
        note(access.inst.uid)
        for uid in _trace_uids(access.trace):
            note(uid)
        for uid in _key_uids(access.key):
            note(uid)
        for lock in access.lockset:
            for uid in _key_uids(lock):
                note(uid)
        # TaintFlow records (P2.6) ride the same channel and add two
        # fields SharedAccess lacks; duck-typed so both families walk.
        source = getattr(access, "source", None)
        if source is not None:
            note(source.uid)
        dst_key = getattr(access, "dst_key", None)
        if dst_key is not None:
            for uid in _key_uids(dst_key):
                note(uid)
    return coords


def rehydrate_records(bugs, accesses, coords: Dict[int, Coord], index: CoordIndex) -> None:
    """Swap every unpickled instruction (and ``heap#N`` root) in the
    bug and access records for the current program's object at the
    recorded coordinate, **in place**.  Raises :class:`StaleEntry` when any
    coordinate no longer resolves — the caller downgrades to a miss."""

    resolved: Dict[int, object] = {
        uid: index.resolve(coord) for uid, coord in coords.items()
    }

    def map_inst(inst):
        try:
            return resolved[inst.uid]
        except KeyError:
            raise StaleEntry(f"uid {inst.uid} missing from coordinate table")

    def map_trace(trace) -> Tuple:
        return tuple(
            tuple(map_inst(item) if _is_inst(item) else item for item in step)
            for step in trace
        )

    def map_root(root: str) -> str:
        def sub(match) -> str:
            old = int(match.group(1))
            try:
                return f"heap#{resolved[old].uid}"
            except KeyError:
                raise StaleEntry(f"heap uid {old} missing from coordinate table")
        return _HEAP_ROOT.sub(sub, root)

    def map_key(key):
        return (map_root(key[0]), key[1])

    for bug in bugs:
        bug.source = map_inst(bug.source)
        bug.sink = map_inst(bug.sink)
        bug.trace = map_trace(bug.trace)
        if bug.second_trace:
            bug.second_trace = map_trace(bug.second_trace)
    for access in accesses:
        access.inst = map_inst(access.inst)
        access.trace = map_trace(access.trace)
        access.key = map_key(access.key)
        access.lockset = frozenset(map_key(lock) for lock in access.lockset)
        if getattr(access, "source", None) is not None:
            access.source = map_inst(access.source)
        if getattr(access, "dst_key", None) is not None:
            access.dst_key = map_key(access.dst_key)


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
