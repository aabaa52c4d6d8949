"""Cross-module (inter-image) taint propagation — phase P2.6.

Per-path recording lives in :class:`CrossModuleTaintChecker` (an
alias-aware extension of the taint checker that records export/import/
relay half-flows over the race detector's canonical shared keys);
per-module :class:`ModuleSummary` objects condense the merged flows;
:func:`match_cross_module` joins them deterministically and hands each
pair to stage 2 for joined-path re-discharge.  See
``docs/engine-internals.md`` ("Cross-module taint (P2.6)") for the
determinism argument.
"""

from .checker import CrossModuleTaintChecker, border_entries_of
from .match import match_cross_module
from .records import EXPORT, IMPORT, RELAY, TaintFlow
from .summary import ModuleSummary, build_summaries

__all__ = [
    "CrossModuleTaintChecker",
    "EXPORT",
    "IMPORT",
    "ModuleSummary",
    "RELAY",
    "TaintFlow",
    "border_entries_of",
    "build_summaries",
    "match_cross_module",
]
