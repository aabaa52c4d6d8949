"""Per-module interface summaries — the unit of phase P2.6.

A :class:`ModuleSummary` condenses everything one module (one source
file, one firmware image) contributes to cross-module taint: the shared
keys its entries *export* taint into, the keys whose values reach its
*sinks* (imports), and the keys it *relays* into other keys.  The
summary is plain data built from the merged per-entry flow records
every run; the records themselves cache per entry inside each
``EntryOutcome``, so a warm run condenses the same flows a cold one
does.  Summaries read no alias-tier product, so matching is the same on
every ``--alias-tier`` rung.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List

from .records import EXPORT, IMPORT, RELAY, TaintFlow


@dataclass
class ModuleSummary:
    """What one module tells the rest of the image set about taint."""

    module: str
    exports: List[TaintFlow] = field(default_factory=list)
    imports: List[TaintFlow] = field(default_factory=list)
    relays: List[TaintFlow] = field(default_factory=list)


def build_summaries(flows: Iterable[TaintFlow]) -> Dict[str, ModuleSummary]:
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
        summaries[module] = summary
    return summaries
