"""Per-module interface summaries — the unit of phase P2.6.

A :class:`ModuleSummary` condenses everything one module (one source
file, one firmware image) contributes to cross-module taint: the shared
keys its entries *export* taint into, the keys whose values reach its
*sinks* (imports), and the keys it *relays* into other keys.  The
summary is plain data built from the merged per-entry flow records
every run; the records themselves cache per entry inside each
``EntryOutcome``, so a warm run condenses the same flows a cold one
does.

When the Steensgaard partition is available (``--alias-tier`` above
``off``) each summary also counts how many of its exported roots the
partition confirms as shared-reaching (GLOBAL/SHARED_ROOT cells).  The
count is strictly informational — it never gates matching, which keeps
reports byte-identical across the tier ladder.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional

from .records import EXPORT, IMPORT, RELAY, TaintFlow


@dataclass
class ModuleSummary:
    """What one module tells the rest of the image set about taint."""

    module: str
    exports: List[TaintFlow] = field(default_factory=list)
    imports: List[TaintFlow] = field(default_factory=list)
    relays: List[TaintFlow] = field(default_factory=list)
    #: exported roots the may-alias partition confirms as shared
    #: (informational; see module docstring)
    confirmed_shared: int = 0


def _root_confirmed(root: str, partition) -> bool:
    """Whether a canonical shared root sits in the partition's
    shared-reaching set.  Heap sites are shared by construction (only
    escaping allocation sites are ever registered)."""
    if root.startswith("heap#"):
        return True
    name = root.lstrip("*").split(".", 1)[0]
    return name in partition.shared_reaching


def build_summaries(
    flows: Iterable[TaintFlow],
    partition=None,
) -> Dict[str, ModuleSummary]:
    """Group merged flow records into per-module summaries.

    Deterministic: modules in sorted order, flows inside each module in
    merged (entry-order) sequence — same program, same summaries, byte
    for byte.
    """
    by_module: Dict[str, List[TaintFlow]] = {}
    for flow in flows:
        by_module.setdefault(flow.module, []).append(flow)
    summaries: Dict[str, ModuleSummary] = {}
    for module in sorted(by_module):
        summary = ModuleSummary(module=module)
        for flow in by_module[module]:
            if flow.direction == EXPORT:
                summary.exports.append(flow)
            elif flow.direction == IMPORT:
                summary.imports.append(flow)
            elif flow.direction == RELAY:
                summary.relays.append(flow)
        if partition is not None:
            roots = sorted({f.key[0] for f in summary.exports}
                           | {f.dst_key[0] for f in summary.relays
                              if f.dst_key is not None})
            summary.confirmed_shared = sum(
                1 for root in roots if _root_confirmed(root, partition))
        summaries[module] = summary
    return summaries
