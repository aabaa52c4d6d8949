"""Tier-ladder differential: no rung of ``--alias-tier`` changes a byte
or a work counter.

The P1.7 partition licenses one skip path in P2, the per-path singleton
fast path; the P1.8 flow tier generalizes it to per-entry closure skip
sets.  P1.5 and P3 read neither: checker arming and pruning read the
P1.5 scan alone, and P3 replays every trace on an unskipped alias
graph.  Both claim soundness *by construction* — so the whole suite is
one assertion repeated across every axis that could break it:

* the full tier ladder ``off`` × ``steens`` × ``flow``: the same
  reports, and every counter and per-entry row equal apart from the
  rung's own P1.7 products and the clocks;
* every checker-spec string (each checker consumes different events);
* workers 1 and 4 (forked workers inherit partition and flow facts);
* cold and warm incremental cache: the tier is not in the outcome key,
  so one directory serves every rung;
* the linux corpus profile, the shape the benchmark workloads run.
"""

import pytest

from repro import PATA, AnalysisConfig
from repro.corpus import PROFILES_BY_NAME, RACELAB, TAINTLAB, generate
from repro.incremental import compile_with_cache, open_store
from repro.lang import compile_program
from repro.typestate import CHECKER_NAMES

TIERS = ("off", "steens", "flow")

SPECS = list(CHECKER_NAMES) + [
    "default", "all", "default,race", "all,taint", "all,taint,race",
]


def _mixed_sources():
    """Taint- and race-heavy corpora plus a slice of the mixed-kind
    tencentos corpus — same recipe as the taint differential, so every
    checker in every spec has events to react to."""
    sources = []
    sources.extend(generate(TAINTLAB).compiled_sources())
    sources.extend(generate(RACELAB).compiled_sources())
    tencentos = PROFILES_BY_NAME["tencentos"].scaled(0.35)
    sources.extend(generate(tencentos).compiled_sources())
    return sources


@pytest.fixture(scope="module")
def mixed_program():
    return compile_program(_mixed_sources())


def _render(result):
    return [r.render() for r in result.reports]


def _run(program, spec="all", tier="flow", workers=1):
    config = AnalysisConfig(alias_tier=tier, workers=workers)
    return PATA(checker_spec=spec, config=config).analyze(program)


def _assert_engagement(result, tier):
    """The differential is only meaningful if each rung actually
    engaged: P1.7 figures above ``off``, the P1.8 walk's clock only at
    ``flow``."""
    if tier == "off":
        assert result.stats.singletons_proven == 0
        assert result.stats.alias_cells == 0
    else:
        assert result.stats.singletons_proven > 0
        assert result.stats.alias_cells > 0
    if tier == "flow":
        assert result.stats.time_flow_seconds > 0
    else:
        assert result.stats.time_flow_seconds == 0


#: stats a rung may move: its own P1.7 products (and the clocks)
_RUNG_PRODUCTS = {"singletons_proven", "alias_cells"}


def _work(result, keep=frozenset()):
    """Every counter but the clocks and the rung's own products (unless
    named in ``keep``), and the per-entry rows without their wall
    times."""
    stats = result.stats.to_dict()
    rows = [{k: v for k, v in row.items() if k != "wall_seconds"}
            for row in stats.pop("per_entry")]
    counters = {k: v for k, v in stats.items()
                if (k in keep or k not in _RUNG_PRODUCTS)
                and not k.startswith("time_")}
    return counters, rows


def _assert_ladder_identical(program, spec):
    """Every rung prints the same reports and does the same work."""
    results = {tier: _run(program, spec=spec, tier=tier) for tier in TIERS}
    baseline = _render(results["off"])
    work = _work(results["off"])
    for tier in TIERS:
        assert _render(results[tier]) == baseline
        assert _work(results[tier]) == work, tier
        _assert_engagement(results[tier], tier)
    return results


@pytest.mark.parametrize("spec", SPECS)
def test_tier_ladder_byte_identical_per_spec(mixed_program, spec):
    _assert_ladder_identical(mixed_program, spec)


def test_tier_ladder_byte_identical_on_linux():
    linux = generate(PROFILES_BY_NAME["linux"].scaled(0.2))
    program = compile_program(linux.compiled_sources())
    results = _assert_ladder_identical(program, "all")
    assert _render(results["off"])  # vacuous otherwise
    counters, _ = _work(results["off"])
    assert counters["typestates_aware"] and counters["validated_paths"]


@pytest.mark.parametrize("workers", [1, 4])
@pytest.mark.parametrize("tier", TIERS)
def test_tier_ladder_byte_identical_across_workers(mixed_program, tier, workers):
    run = _run(mixed_program, tier=tier, workers=workers)
    off = _run(mixed_program, tier="off", workers=workers)
    if workers > 1:
        assert run.stats.workers_used > 1
        assert off.stats.workers_used > 1
    assert _render(run) == _render(off)
    _assert_engagement(run, tier)


@pytest.mark.parametrize("tier", ["steens", "flow"])
def test_tier_reports_identical_parallel_vs_sequential(mixed_program, tier):
    """Forked workers inherit the partition and flow facts; the
    parallel run must match the sequential one."""
    sequential = _run(mixed_program, tier=tier, workers=1)
    parallel = _run(mixed_program, tier=tier, workers=4)
    assert parallel.stats.workers_used > 1
    assert _render(sequential) == _render(parallel)
    assert sequential.stats.singletons_proven == parallel.stats.singletons_proven
    assert sequential.stats.alias_cells == parallel.stats.alias_cells
    _assert_engagement(parallel, tier)


def test_tier_back_compat_spellings():
    """Only the ladder's three names are tiers: the pre-ladder boolean
    and ``"on"`` spellings are rejected like any unknown value."""
    for tier in ("bogus", "on", True, False):
        with pytest.raises(ValueError):
            AnalysisConfig(alias_tier=tier)


def _cached_run(sources, cache_dir, tier, spec="all"):
    config = AnalysisConfig(
        alias_tier=tier, cache_dir=cache_dir, cache_mode="rw"
    )
    store = open_store(cache_dir, "rw")
    program = compile_with_cache(sources, store)
    if store is not None:
        store.commit()
    return PATA(config=config, checker_spec=spec).analyze(program)


def test_tier_ladder_byte_identical_cold_and_warm(tmp_path):
    """Six runs — three tiers × {cold, warm} — one report text, each
    rung over its own cache directory; one directory shared by the
    rungs is exercised below."""
    sources = _mixed_sources()
    cold = {}
    warm = {}
    for tier in TIERS:
        cache_dir = str(tmp_path / tier)
        cold[tier] = _cached_run(sources, cache_dir, tier)
        warm[tier] = _cached_run(sources, cache_dir, tier)

    baseline = _render(cold["off"])
    assert baseline  # vacuous otherwise
    for tier in TIERS:
        assert _render(cold[tier]) == baseline
        assert _render(warm[tier]) == baseline
        # Warm runs replayed from the cache rather than re-exploring.
        assert any(row.cached for row in warm[tier].stats.per_entry)
    # The warm flow run rebuilds its facts (no cache layer holds them),
    # so P1.8 engages on it as on the cold run.
    assert warm["flow"].stats.time_flow_seconds > 0


def test_tier_flip_on_shared_cache_is_safe(tmp_path):
    """Walking the ladder over one cache directory replays the first
    rung's outcomes at every rung: no rung changes P1.5, a path or a
    verdict, so ``alias_tier`` is not in the outcome key.  The ``steens``
    and ``off`` runs over the ``flow``-populated directory miss nothing,
    and each equals a warm run over a directory its own rung populated.
    The spec includes the race checker, which arms on pointer
    accesses."""
    sources = _mixed_sources()
    spec = "all,taint,race"
    cache_dir = str(tmp_path / "shared")

    first = _cached_run(sources, cache_dir, "flow", spec)
    down = _cached_run(sources, cache_dir, "steens", spec)
    bottom = _cached_run(sources, cache_dir, "off", spec)
    back = _cached_run(sources, cache_dir, "flow", spec)

    baseline = _render(first)
    assert baseline
    for run in (down, bottom, back):
        assert _render(run) == baseline
        assert run.stats.cache_misses == 0
        assert run.stats.cache_hits > 0
    for tier, run in (("steens", down), ("off", bottom)):
        own_dir = str(tmp_path / tier)
        _cached_run(sources, own_dir, tier, spec)
        own_warm = _cached_run(sources, own_dir, tier, spec)
        assert _work(run, _RUNG_PRODUCTS) == _work(own_warm, _RUNG_PRODUCTS), tier
