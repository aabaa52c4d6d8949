"""Analysis configuration and budgets.

PATA explores control-flow paths exhaustively in principle; in practice
(P2 of §4) it bounds loops/recursion (unrolled once) and merges callee
exit paths with identical externally visible effects.  The knobs below
control those budgets; the defaults are tuned so the bundled corpora
analyze in seconds while exercising every mechanism.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Optional

#: the precision-tier ladder, in rung order
_ALIAS_TIERS = {"off": 0, "steens": 1, "flow": 2}
_CACHE_MODES = ("off", "ro", "rw")
#: the least value each count or budget can run with: below it a run
#: explores nothing, or explores without the bound it names
_LEAST = {
    "max_paths_per_entry": 1,
    "max_steps_per_entry": 1,
    "max_call_depth": 1,
    "max_block_visits": 1,
    "max_callee_exits_per_call": 1,
    # 0 inlines no recursive call at all; below it, no call at all
    "max_recursion_occurrences": 0,
    "max_indirect_targets": 1,
    "solver_max_search_nodes": 1,
    "workers": 0,
}


@dataclass
class AnalysisConfig:
    #: track alias relationships (False reproduces PATA-NA, Table 6)
    alias_aware: bool = True
    #: run stage-2 path validation (False leaves all possible bugs)
    validate_paths: bool = True
    #: complete paths explored per entry function
    max_paths_per_entry: int = 2000
    #: instruction executions per entry function (hard stop)
    max_steps_per_entry: int = 400_000
    #: maximum inlined call depth
    max_call_depth: int = 16
    #: per-path revisits of one basic block (2 = paper's unroll-once)
    max_block_visits: int = 2
    #: merge callee exit paths with identical externally visible effects
    #: (§4 P2 "combines the information of its code paths")
    merge_callee_exits: bool = True
    #: distinct callee exit states continued per call site (return merging)
    max_callee_exits_per_call: int = 48
    #: functions may appear at most this many times on the call stack
    #: (2 = one recursive re-entry, the paper's unroll-once for recursion)
    max_recursion_occurrences: int = 1
    #: run the semantics-preserving IR cleanup passes (constant folding,
    #: jump threading, unreachable-block removal) before analysis
    optimize_ir: bool = False
    #: resolve function-pointer calls through interface registrations —
    #: the paper's §7 future work ("introduce existing function-pointer
    #: analysis"), off by default to match PATA as published
    resolve_function_pointers: bool = False
    #: candidate targets explored per indirect call site when resolving
    max_indirect_targets: int = 4
    #: alias precision-tier ladder: ``"off"`` (per-path graphs only),
    #: ``"steens"`` (the P1.7 Steensgaard pre-pass and its one consumer,
    #: the per-path singleton fast path), or ``"flow"`` (additionally
    #: the P1.8 occurrence walk: per-entry-closure skip sets for P2's
    #: per-path graphs, each a superset of the P1.7 singletons).  P1.5
    #: and P3 read no rung's product.  Reports, work counters and cached
    #: outcomes are the same at every tier (the tier is not in the cache
    #: key); only speed and the P1.7 stats change.
    alias_tier: str = "flow"
    #: run the checker-relevance pre-analysis (P1.5) and its two sound
    #: pruning layers: skip entry functions whose transitive region holds
    #: no event for any enabled checker, and stop paths entering CFG
    #: regions from which no armed checker's sink is reachable.  Pruning
    #: is report-preserving — with the same config the report set is
    #: byte-identical either way (``--no-prune`` is the CLI escape hatch)
    prune: bool = True
    #: solver budgets (stage 2)
    solver_max_search_nodes: int = 20000
    #: worker processes for entry-function analysis (the paper's P2 runs
    #: one thread per entry, §4): 1 = in-process sequential, 0 = one per
    #: CPU (os.cpu_count()), N > 1 = exactly N processes
    workers: int = 1
    #: border-source inference (P2.6): treat the parameters of interface
    #: functions no extern caller ever invokes as tainted — the firmware
    #: border-binary heuristic.  Off by default; only the ``xtaint``
    #: checker consults it, and with an empty border set (every interface
    #: function has a caller) enabling it preserves reports exactly.
    taint_borders: bool = False
    #: incremental-cache directory (None = caching off).  See
    #: :mod:`repro.incremental`; results are byte-identical with the
    #: cache on, off, or partially populated.
    cache_dir: Optional[str] = None
    #: "off" (ignore cache_dir), "ro" (read, never write), or "rw"
    #: (read, and commit new modules and outcomes at the end of the run;
    #: the parent process is the single writer)
    cache_mode: str = "off"

    def __post_init__(self) -> None:
        if self.alias_tier not in _ALIAS_TIERS:
            raise ValueError(
                f"alias_tier must be one of {sorted(_ALIAS_TIERS)}, "
                f"got {self.alias_tier!r}"
            )
        if self.cache_mode not in _CACHE_MODES:
            raise ValueError(
                f"cache_mode must be one of {list(_CACHE_MODES)}, "
                f"got {self.cache_mode!r}"
            )
        for name, least in _LEAST.items():
            value = getattr(self, name)
            if value < least:
                raise ValueError(f"{name} must be at least {least}, got {value!r}")

    def alias_tier_level(self) -> int:
        """The tier as a comparable rung: 0 = off, 1 = steens, 2 = flow."""
        return _ALIAS_TIERS[self.alias_tier]

    def cache_active(self) -> bool:
        """Whether this run consults the incremental cache at all."""
        return self.cache_dir is not None and self.cache_mode in ("ro", "rw")

    def resolved_workers(self) -> int:
        """The effective worker count (``0`` expands to the CPU count)."""
        if self.workers == 0:
            return os.cpu_count() or 1
        return max(1, self.workers)

    def for_pata_na(self) -> "AnalysisConfig":
        """The ablation of Table 6: no alias relationships in typestate
        tracking or path validation."""
        clone = AnalysisConfig(**vars(self))
        clone.alias_aware = False
        return clone
