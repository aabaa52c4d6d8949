"""``PATA.analyze`` refactored into a reusable, cache-resident session.

A :class:`Session` owns one :class:`~.store.ModuleTable` and one
:class:`~.store.ResidentStore` and runs any number of analyses against
them.  The table keeps layer 0 live: one compiled module per filename,
reused in place while its source is unchanged, so a one-file diff
compiles one file and unpickles no module.  The store holds the
per-entry P2 outcomes as pickled blobs, with P1.5 skip verdicts and the
P3 verdicts of their bugs.  Nothing whole-program is resident — every
request rebuilds the P1.7 partition, the P1.8 must-alias facts and the
P2.6 module summaries — so a one-file diff adds a few KB, not a copy
of the program.  The first request over a file set is a cold run that
populates both; every later request over unchanged content resolves
every layer from RAM, re-explores only dirtied fingerprint closures
and re-validates only their bugs.  The resident modules sit in the
collector's frozen generation (:func:`repro.heap.resident_heap`), so a
request's collection walks what the previous request left, not the
program.  Reports are byte-identical to a one-shot ``PATA().analyze``
over the same sources and config — residency is an optimization,
never a precision or soundness trade.

Residency has two tiers.  The *cache* tier above re-assembles the
program and replays per-entry outcomes out of the resident store.  On
top of it sits the *replay memo*: a bounded, content-addressed map from
the exact request fingerprint (ordered (filename, source-bytes) list —
config and checkers are fixed per session) to the finished
:class:`~repro.core.AnalysisResult`.  An identical repeated request —
the common daemon steady state: the same watch job, the same IDE query
— skips even assembly and report re-validation and returns the prior
result, whose bytes were already proven equal to a one-shot run.  Any
changed byte misses the memo and takes the cache tier.

Two session-level stat adjustments make per-request numbers honest:
the store's hit/miss counters are cumulative across the session's
lifetime, so each request's stats are rewritten to the *delta* this
request caused (outcomes; the table counts no hits), and the serve
counters (``requests_served``, ``resident_cache_entries``,
``request_replayed``) are stamped on every result.
"""

from __future__ import annotations

import collections
import hashlib
import pathlib
import time
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..core import AnalysisConfig, AnalysisResult, PATA
from ..heap import analysis_heap
from .store import ModuleTable, ResidentStore

Source = Tuple[str, str]

#: how many distinct recent requests the replay memo keeps (FIFO).  A
#: daemon typically cycles over a handful of request shapes (the root
#: set, a few subsets, the watch job); eight bounds memory while keeping
#: all of them resident.
MEMO_LIMIT = 8


class Session:
    """A resident analysis session: one config, one checker spec, one
    in-memory cache shared by every :meth:`analyze` call.

    ``checker_spec`` must be a spec string (not live checker objects) —
    residency rides the incremental engine, which needs
    spec-addressable checkers to fingerprint cache keys.
    """

    def __init__(
        self,
        config: Optional[AnalysisConfig] = None,
        checker_spec: str = "default",
        store: Optional[ResidentStore] = None,
    ):
        self.config = config or AnalysisConfig()
        self.checker_spec = checker_spec
        # Validate the spec eagerly (PATA does the same) so a bad spec
        # fails at session construction, not on the first request.
        PATA(config=self.config, checker_spec=checker_spec)
        self.store = store if store is not None else ResidentStore()
        self.modules = ModuleTable()
        self.requests_served = 0
        self.replays_served = 0
        self.created = time.monotonic()
        # request fingerprint -> AnalysisResult, FIFO-bounded
        self._memo: "collections.OrderedDict[str, AnalysisResult]" = (
            collections.OrderedDict()
        )

    # -- the one entry point --------------------------------------------------

    def analyze(self, sources: Iterable[Source]) -> AnalysisResult:
        """Analyze ``(filename, text)`` pairs against the resident cache.

        Byte-identical to ``PATA(config, checker_spec).analyze_sources``
        on the same inputs; repeated calls on unchanged sources are
        warm-cache runs that re-explore nothing.

        Runs under the analysis heap policy.  A request that analyzes
        runs the resident-heap step around compiling its changed files
        (:meth:`~.store.ModuleTable.take`): one collection over what the
        previous request left, never over the frozen resident modules
        unless enough of them were dropped to make a full pass pay.  A
        replay allocates next to nothing and collects nothing.
        """
        sources = list(sources)
        key = self._request_key(sources)
        memo = self._memo.get(key)
        with analysis_heap():
            if memo is not None:
                return self._replay(key, memo)
            return self._analyze(key, sources)

    def _analyze(self, key: str, sources: List[Source]) -> AnalysisResult:
        """A memo miss: the cache tier, then memoize the result."""
        from ..incremental.engine import assemble_program

        hits0, misses0, corrupt0 = (
            self.store.hits, self.store.misses, self.store.corrupt,
        )
        compiled = self.modules.take(sources)
        pata = PATA(
            config=self.config, checker_spec=self.checker_spec, store=self.store
        )
        try:
            result = pata.analyze(assemble_program(compiled))
        except BaseException:
            # The analysis may have left any linked module half-mutated.
            self.modules.clear()
            raise
        if self.config.optimize_ir:
            # optimize_program rewrote the linked modules in place.
            self.modules.clear()
        self.requests_served += 1
        stats = result.stats
        # Per-request deltas: PATA stamped the store's cumulative
        # counters; a resident session's totals grow forever, so the
        # honest per-request number is the difference.
        stats.cache_hits = self.store.hits - hits0
        stats.cache_misses = self.store.misses - misses0
        stats.cache_corrupt = self.store.corrupt - corrupt0
        stats.requests_served = self.requests_served
        stats.resident_cache_entries = len(self.store)
        self._memo[key] = result
        while len(self._memo) > MEMO_LIMIT:
            self._memo.popitem(last=False)
        return result

    # -- the replay memo ------------------------------------------------------

    @staticmethod
    def _request_key(sources: Sequence[Source]) -> str:
        """Content fingerprint of one request: the exact (name, bytes)
        list, in order.  Config and checker spec are fixed per session,
        so they need no hashing."""
        h = hashlib.sha256()
        for name, text in sources:
            h.update(name.encode("utf-8", "surrogatepass"))
            h.update(b"\x00")
            h.update(text.encode("utf-8", "surrogatepass"))
            h.update(b"\x00")
        return h.hexdigest()

    def _replay(self, key: str, memo: AnalysisResult) -> AnalysisResult:
        """Answer an exactly-repeated request from the memo: same names,
        same bytes, same config and checkers — the reports are the prior
        run's, byte for byte, without touching the store at all.  The
        returned result carries its own stats copy (the memoized run's
        numbers must not be restamped retroactively), rewritten
        honestly: a replay reads zero cache entries and re-analyzes
        nothing."""
        import copy

        self._memo.move_to_end(key)
        self.requests_served += 1
        self.replays_served += 1
        stats = copy.copy(memo.stats)
        stats.cache_hits = 0
        stats.cache_misses = 0
        stats.cache_corrupt = 0
        stats.entries_cached += stats.entries_reanalyzed
        stats.entries_reanalyzed = 0
        stats.request_replayed = True
        stats.requests_served = self.requests_served
        stats.resident_cache_entries = len(self.store)
        return AnalysisResult(reports=memo.reports, stats=stats)

    def analyze_paths(
        self,
        paths: Sequence[str],
        overlay: Optional[Dict[str, str]] = None,
    ) -> AnalysisResult:
        """Analyze on-disk files, optionally replacing (or adding)
        in-memory sources from ``overlay`` — the ``check_diff`` request
        shape: the result equals writing the overlay to disk and
        analyzing the same path list."""
        overlay = dict(overlay or {})
        sources: List[Source] = []
        seen = set()
        for name in paths:
            seen.add(name)
            if name in overlay:
                sources.append((name, overlay.pop(name)))
            else:
                sources.append((name, pathlib.Path(name).read_text()))
        # Overlay entries naming files outside the path list append, in
        # sorted order for determinism.
        for name in sorted(overlay):
            if name not in seen:
                sources.append((name, overlay[name]))
        return self.analyze(sources)

    # -- lifecycle ------------------------------------------------------------

    def reset(self) -> None:
        """Swap in a fresh, empty module table and resident store — the
        graceful degradation path after a request timed out or crashed
        midway (half-mutated residency must never serve the next
        request).  Results stay correct either way; only warmth is
        lost.  The discarded table counts every module as dropped, so
        the next analyzing request thaws the heap and frees them."""
        self.modules = ModuleTable()
        self.store = ResidentStore()
        self._memo.clear()

    def uptime_seconds(self) -> float:
        return time.monotonic() - self.created
