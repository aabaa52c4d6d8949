"""Warm-start differential suite (the incremental cache's soundness bar).

For every checker spec, a corpus analyzed **cold** (empty cache),
**warm** (fully populated cache), and **mixed** (every other record
dropped from each pack, so cached and freshly explored entries
interleave) must produce byte-identical reports — and the deterministic
stats totals must agree — at workers 1 and workers 4.  The mixed leg is the sharp edge: it
exercises outcome decoding, per-entry dedup reconciliation, and
cross-entry race matching over a blend of cached and fresh SharedAccess
tuples.  A cache populated with pruning on must not serve its P1.5 skip
verdicts to a pruning-off run.

Cached outcomes carry their bugs' P3 verdicts: a warm run translates
and solves only the bugs of entries it explored (and the pair findings
matched after the merge), and verdicts never cross P3 settings.

On taintlab and firmlab, an edit ahead of cached race accesses and
taint flows must leave race and cross-module matching as a cache-off
run has it, and every stored outcome must be the codec's: no copy of a
function or block inside.
"""

import dataclasses
import gc
import pickle

import pytest

from repro import PATA, AnalysisConfig
from repro.corpus import CORPUS_PROFILES_BY_NAME, PROFILES_BY_NAME, generate
from repro.incremental import compile_with_cache, open_store
from repro.incremental.coords import decode
from repro.incremental.store import DIGEST_BYTES, pack_paths, pack_records, write_pack
from repro.ir import BasicBlock, Function
from repro.lang import compile_program

SPECS = ["default", "all", "npd,uva", "race", "taint,npd"]

_DETERMINISTIC_TOTALS = (
    "explored_paths", "executed_steps", "typestates_aware",
    "typestates_unaware", "dropped_repeated_bugs", "dropped_false_bugs",
    "validated_paths", "budget_exhausted_entries", "entries_skipped",
    "blocks_pruned", "paths_pruned", "shared_accesses", "race_pairs_matched",
    "smt_constraints_aware", "smt_constraints_unaware",
)


@pytest.fixture(scope="module")
def corpus_sources():
    profile = PROFILES_BY_NAME["zephyr"].scaled(0.25)
    return generate(profile).compiled_sources()


def _run(sources, spec, workers, cache_dir=None, prune=True, **knobs):
    config = AnalysisConfig(workers=workers, cache_dir=cache_dir,
                            cache_mode="rw" if cache_dir else "off", prune=prune,
                            **knobs)
    pata = PATA(config=config, checker_spec=spec)
    if config.cache_active():
        store = open_store(cache_dir, "rw")
        program = compile_with_cache(sources, store)
        if store is not None:
            store.commit()
        return pata.analyze(program)
    return pata.analyze(compile_program(sources))


def _text(result):
    return "\n\n".join(r.render() for r in result.reports)


def _delete_half(cache_dir):
    """Drop every other record from every pack."""
    packs = pack_paths(cache_dir)
    assert packs, "differential mixed leg needs a populated cache"
    for path in packs:
        records = pack_records(path)
        with open(path, "wb") as out:
            write_pack(out, records[1::2], len(records) // 2)


@pytest.mark.parametrize("workers", [1, 4])
@pytest.mark.parametrize("spec", SPECS)
def test_cold_warm_mixed_reports_identical(corpus_sources, tmp_path, spec, workers):
    cache = str(tmp_path / f"cache-{spec.replace(',', '_')}-{workers}")
    baseline = _run(corpus_sources, spec, workers)
    cold = _run(corpus_sources, spec, workers, cache)
    warm = _run(corpus_sources, spec, workers, cache)
    _delete_half(cache)
    mixed = _run(corpus_sources, spec, workers, cache)

    expected = _text(baseline)
    assert _text(cold) == expected
    assert _text(warm) == expected
    assert _text(mixed) == expected

    assert warm.stats.entries_reanalyzed == 0
    assert warm.stats.entries_cached > 0
    # The mixed run blends cached and freshly explored entries.
    assert mixed.stats.entries_cached + mixed.stats.entries_reanalyzed > 0

    for run in (cold, warm, mixed):
        for name in _DETERMINISTIC_TOTALS:
            assert getattr(run.stats, name) == getattr(baseline.stats, name), (
                f"{name} diverged under spec={spec} workers={workers}"
            )


def test_warm_cache_crosses_worker_counts(corpus_sources, tmp_path):
    """A cache written by a sequential run must warm a parallel run and
    vice versa — summaries are keyed on content, never on sharding."""
    cache = str(tmp_path / "cache")
    baseline = _run(corpus_sources, "all", 1)
    cold_seq = _run(corpus_sources, "all", 1, cache)
    warm_par = _run(corpus_sources, "all", 4, cache)
    assert _text(warm_par) == _text(cold_seq) == _text(baseline)
    assert warm_par.stats.entries_reanalyzed == 0

    other = str(tmp_path / "cache-par")
    cold_par = _run(corpus_sources, "all", 4, other)
    warm_seq = _run(corpus_sources, "all", 1, other)
    assert _text(warm_seq) == _text(cold_par) == _text(baseline)
    assert warm_seq.stats.entries_reanalyzed == 0


def test_edited_function_differential(corpus_sources, tmp_path):
    """After editing one source file, the warm run must equal a from-
    scratch run of the edited program, re-analyzing only a subset."""
    cache = str(tmp_path / "cache")
    cold = _run(corpus_sources, "all", 1, cache)
    total = cold.stats.entries_reanalyzed
    name, text = corpus_sources[1]
    edited = list(corpus_sources)
    edited[1] = (name, text.replace("return 0;", "return 0 + 0;", 1))
    baseline = _run(edited, "all", 1)
    warm = _run(edited, "all", 1, cache)
    assert _text(warm) == _text(baseline)
    assert warm.stats.entries_reanalyzed < total


def test_skip_verdicts_never_cross_prune_modes(corpus_sources, tmp_path):
    """A cache populated with pruning on holds P1.5 skip verdicts; a
    pruning-off run over the same directory must explore every entry
    and equal a cache-off pruning-off run."""
    cache = str(tmp_path / "cache")
    pruned = _run(corpus_sources, "all", 1, cache)
    assert pruned.stats.entries_skipped > 0
    unpruned = _run(corpus_sources, "all", 1, cache, prune=False)
    baseline = _run(corpus_sources, "all", 1, prune=False)
    assert unpruned.stats.entries_skipped == 0
    assert unpruned.stats.entries_cached == 0
    assert unpruned.stats.entries_reanalyzed == unpruned.stats.entry_functions
    assert _text(unpruned) == _text(baseline)
    for name in _DETERMINISTIC_TOTALS:
        assert getattr(unpruned.stats, name) == getattr(baseline.stats, name), name


@pytest.fixture
def translations(monkeypatch):
    """The first trace of every translation P3 makes, single or pair."""
    from repro.core import filter as filter_module

    traces = []
    for name in ("translate_trace", "translate_trace_pair"):
        def counted(trace, *args, _real=getattr(filter_module, name), **kwargs):
            traces.append(trace)
            return _real(trace, *args, **kwargs)

        monkeypatch.setattr(filter_module, name, counted)
    return traces


def _entry_of(trace):
    return trace[0][1]  # ("enter", entry name, frame id)


@pytest.mark.parametrize("spec", ["all", "taint,race,xtaint"])
def test_unchanged_rerun_translates_only_pair_findings(
        corpus_sources, tmp_path, translations, spec):
    cache = str(tmp_path / "cache")
    cold = _run(corpus_sources, spec, 1, cache)
    assert cold.stats.validated_paths > 0 and cold.stats.verdicts_cached == 0
    pairs = cold.stats.race_pairs_matched + cold.stats.xtaint_pairs_matched
    assert len(translations) == cold.stats.validated_paths
    translations.clear()
    warm = _run(corpus_sources, spec, 1, cache)
    assert _text(warm) == _text(cold)
    assert warm.stats.entries_reanalyzed == 0
    assert warm.stats.verdicts_cached == warm.stats.validated_paths - pairs
    assert len(translations) == pairs
    if spec == "all":
        assert pairs == 0 and not translations
    else:
        assert pairs > 0, "the pair leg is vacuous without pair findings"


def test_edit_translates_only_the_new_entrys_bugs(corpus_sources, tmp_path, translations):
    cache = str(tmp_path / "cache")
    _run(corpus_sources, "all", 1, cache)
    name, text = corpus_sources[1]
    edited = list(corpus_sources)
    edited[1] = (name, text + "\nint verdict_edit(int n) { int *p = malloc(8); "
                               "if (n > 1) return -1; free(p); return 0; }\n")
    translations.clear()
    warm = _run(edited, "all", 1, cache)
    fresh = list(translations)
    baseline = _run(edited, "all", 1)
    assert _text(warm) == _text(baseline)
    assert "verdict_edit" in _text(warm)
    assert fresh and {_entry_of(t) for t in fresh} == {"verdict_edit"}
    assert warm.stats.verdicts_cached == warm.stats.validated_paths - len(fresh)
    for name in _DETERMINISTIC_TOTALS:
        assert getattr(warm.stats, name) == getattr(baseline.stats, name), name


@pytest.mark.parametrize("knobs", [{"validate_paths": False},
                                   {"solver_max_search_nodes": 1}])
def test_verdicts_never_cross_p3_settings(corpus_sources, tmp_path, translations, knobs):
    """A cache populated under one set of P3 knobs serves no outcome, and
    so no verdict, to a run under another: the other run explores and
    validates everything afresh, as a cache-off run would."""
    cache = str(tmp_path / "cache")
    populated = _run(corpus_sources, "all", 1, cache)
    translations.clear()
    other = _run(corpus_sources, "all", 1, cache, **knobs)
    assert len(translations) == other.stats.validated_paths
    baseline = _run(corpus_sources, "all", 1, **knobs)
    assert other.stats.entries_cached == 0 and other.stats.verdicts_cached == 0
    assert _text(other) == _text(baseline)
    for name in _DETERMINISTIC_TOTALS:
        assert getattr(other.stats, name) == getattr(baseline.stats, name), name
    # Neither setting overwrote the other's outcomes.
    translations.clear()
    again = _run(corpus_sources, "all", 1, cache)
    assert again.stats.entries_reanalyzed == 0 and not translations
    assert again.stats.verdicts_cached == populated.stats.validated_paths


LAB_SPEC = "taint,race,xtaint"


@pytest.fixture(scope="module", params=["taintlab", "firmlab"])
def lab_sources(request):
    return generate(CORPUS_PROFILES_BY_NAME[request.param]).compiled_sources()


def _ir_inside(value):
    """A function or block reachable from ``value``, or None."""
    stack, seen = [value], set()
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, type):
            continue
        seen.add(id(obj))
        if isinstance(obj, (Function, BasicBlock)):
            return obj
        stack.extend(gc.get_referents(obj))
    return None


@pytest.mark.parametrize("workers", [1, 2])
def test_lab_edit_differential(lab_sources, tmp_path, workers):
    """A function appended to a lab's first file: the warm run equals
    the cache-off run of the edited lab, and no stored outcome decodes
    to an object that holds a function or a block."""
    cache = str(tmp_path / "cache")
    _run(lab_sources, LAB_SPEC, workers, cache)
    (name, text), *rest = lab_sources
    edited = [(name, text + "\nint lab_edit(int n) { int *p = malloc(8); "
               "if (n > 2) return -1; free(p); return 0; }\n"), *rest]
    warm = _run(edited, LAB_SPEC, workers, cache)
    baseline = _run(edited, LAB_SPEC, workers)
    assert warm.stats.entries_cached > 0
    assert warm.stats.race_pairs_matched > 0
    assert _text(warm) == _text(baseline)
    for total in _DETERMINISTIC_TOTALS + ("taint_flows_recorded", "xtaint_pairs_matched"):
        assert getattr(warm.stats, total) == getattr(baseline.stats, total), total
    outcomes = 0
    for path in pack_paths(cache):
        for _, record in pack_records(path):
            payload = pickle.loads(record[DIGEST_BYTES:])
            if isinstance(payload, bytes):
                outcomes += 1
                assert _ir_inside(decode(payload, lambda name: name)) is None
    assert outcomes >= warm.stats.entry_functions
