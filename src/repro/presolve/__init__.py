"""Checker-relevance pre-analysis — phase **P1.5** of the pipeline.

Sits between the information collector (P1) and path exploration (P2):
a cheap, sound pre-analysis that summarizes, per function, the kinds of
typestate events the function can trigger directly or transitively, and
uses the summaries to skip entry functions and CFG regions that cannot
produce a report for any enabled checker.  Pruning is report-preserving
by construction; ``AnalysisConfig.prune`` / ``--no-prune`` switch it off
for differential runs.

Modules
-------
- :mod:`repro.presolve.events` — the abstract event-kind lattice
- :mod:`repro.presolve.scan` — per-instruction/per-block direct scan
- :mod:`repro.presolve.summary` — summaries folded over the call graph
- :mod:`repro.presolve.prune` — entry pruning + backward CFG liveness
"""

from .events import ALL_EVENTS, NEGATIVE_RETURN_HINTS, EventKind, event_names, iter_kinds
from .scan import ScanContext, ScanResult, block_events
from .summary import EventSummaryIndex
from .prune import RelevancePreAnalysis

__all__ = [
    "ALL_EVENTS",
    "NEGATIVE_RETURN_HINTS",
    "EventKind",
    "event_names",
    "iter_kinds",
    "ScanContext",
    "ScanResult",
    "block_events",
    "EventSummaryIndex",
    "RelevancePreAnalysis",
]
