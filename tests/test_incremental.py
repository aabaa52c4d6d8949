"""Incremental-analysis subsystem tests (store, fingerprints, invalidation).

Four layers of coverage:

* the object store: atomic pack commits, checksummed reads, corruption
  of a record or a whole pack and version skew degrading to warned
  misses, the pack-count bound and concurrent writers;
* key derivation: canonical-printer byte-determinism across processes
  and hash seeds, closure-exact invalidation, pool-stamp invalidation,
  spec canonicalization;
* PATA-level warm starts: a leaf-callee edit re-analyzes exactly its
  caller closure, a registration added to the indirect-call pool
  invalidates only entries that may dispatch into it, a checker-spec
  or budget change misses every outcome, and an unchanged re-run reads
  one outcome per entry — P1.5 skip verdicts included — and builds no
  P1.5 pre-analysis;
* the CLI surface: ``--cache``/``--cache-dir`` validation, warm-run
  equivalence, ``--stats-json``.

The cold/warm/mixed byte-equality sweep lives in
``test_incremental_differential.py``.
"""

import json
import logging
import os
import pathlib
import pickle
import subprocess
import sys

import pytest

from repro import PATA, AnalysisConfig
from repro.cfg import CallGraph
from repro.cli import main as cli_main
from repro.corpus import PROFILES_BY_NAME, generate
from repro.incremental import (
    CACHE_FORMAT,
    CacheStore,
    TransitiveKeys,
    compile_with_cache,
    open_store,
    spec_fingerprint,
)
from repro.incremental.coords import decode
from repro.incremental.engine import LAYERS
from repro.incremental.store import (
    DIGEST_BYTES,
    PACK_DIR,
    PACK_LIMIT,
    PACK_SUFFIX,
    checksummed,
    pack_paths,
    pack_records,
    write_pack,
)
from repro.lang import compile_program


# ---------------------------------------------------------------------------
# Shared fixtures: a three-entry program with a clean closure structure
# ---------------------------------------------------------------------------

HELPER_V1 = r"""
static int helper(int n) {
    return n + 1;
}
int top(int n) {
    int *p = malloc(8);
    *p = helper(n);
    free(p);
    return 0;
}
"""

HELPER_V2 = r"""
static int helper(int n) {
    return n + 2;
}
int top(int n) {
    int *p = malloc(8);
    *p = helper(n);
    free(p);
    return 0;
}
"""

OTHER = r"""
int other(int n) {
    int *q = malloc(8);
    if (!q) return -1;
    *q = n;
    free(q);
    return 0;
}
"""

THIRD = r"""
int third(int n) {
    int *r = malloc(8);
    if (!r) return -1;
    *r = n * 2;
    free(r);
    return 0;
}
"""


def _sources(helper=HELPER_V1):
    return [("a.c", helper), ("b.c", OTHER), ("c.c", THIRD)]


def _analyze(sources, cache_dir=None, cache_mode="off", workers=1, spec="default",
             **config_kwargs):
    config = AnalysisConfig(workers=workers, cache_dir=cache_dir,
                            cache_mode=cache_mode, **config_kwargs)
    pata = PATA(config=config, checker_spec=spec)
    if config.cache_active():
        store = open_store(cache_dir, cache_mode)
        program = compile_with_cache(sources, store)
        if store is not None:
            store.commit()
        return pata.analyze(program)
    return pata.analyze(compile_program(sources))


def _report_text(result):
    return "\n\n".join(r.render() for r in result.reports)


def _rewrite_records(cache_dir, edit):
    """Rewrite every pack under ``cache_dir`` through ``edit(key,
    record)``, which returns the record to keep (damaged or not) or None
    to drop it.  Returns how many records it changed or dropped."""
    changed = 0
    for path in pack_paths(cache_dir):
        kept = []
        for key, record in pack_records(path):
            new = edit(key, record)
            changed += new != record
            if new is not None:
                kept.append((key, new))
        with open(path, "wb") as out:
            write_pack(out, kept, len(kept))
    return changed


def _payload(record):
    return pickle.loads(record[DIGEST_BYTES:])


def _decoded(payload):
    """A coded row's bytes read back with every name left as the name
    (a coordinate tuple or a ``heap#`` string): no program needed."""
    return decode(payload, lambda name: name)


def _entry_status(result):
    """name -> 'cached' | 'skipped' | 'analyzed' for every entry row."""
    out = {}
    for row in result.stats.per_entry:
        out[row.name] = "cached" if row.cached else ("skipped" if row.skipped else "analyzed")
    return out


# ---------------------------------------------------------------------------
# Object store
# ---------------------------------------------------------------------------


def test_store_roundtrip_across_instances(tmp_path):
    store = CacheStore(str(tmp_path), "rw")
    key = CacheStore.object_key("test", "object")
    store.put(key, {"payload": [1, 2, 3]})
    # Staged values are visible before the commit...
    assert store.get(key) == {"payload": [1, 2, 3]}
    assert store.commit() == 1
    # ...and durable after it, from a fresh handle.
    again = CacheStore(str(tmp_path), "ro")
    assert again.get(key) == {"payload": [1, 2, 3]}
    assert again.hits == 1 and again.misses == 0


def test_store_ro_mode_never_writes(tmp_path):
    store = CacheStore(str(tmp_path / "cache"), "ro")
    key = CacheStore.object_key("test", "ro")
    store.put(key, "value")
    assert store.commit() == 0
    assert store.get(key) is None
    assert not (tmp_path / "cache" / PACK_DIR).exists()
    assert pack_paths(tmp_path / "cache") == []


def test_store_put_skips_existing_objects(tmp_path):
    store = CacheStore(str(tmp_path), "rw")
    key = CacheStore.object_key("test", "dup")
    store.put(key, "value")
    store.commit()
    second = CacheStore(str(tmp_path), "rw")
    second.put(key, "value")
    assert second.commit() == 0  # same key => same content; nothing rewritten


@pytest.mark.parametrize("damage", ["truncate", "bitflip", "garbage", "empty"])
def test_store_corruption_is_a_warned_miss(tmp_path, caplog, damage):
    store = CacheStore(str(tmp_path), "rw")
    key = CacheStore.object_key("test", "corrupt", damage)
    store.put(key, list(range(100)))
    store.commit()
    # The damage hits the pack's only record, which ends the file.
    [path] = pack_paths(tmp_path)
    [(_, record)] = pack_records(path)
    blob = path.read_bytes()
    start = len(blob) - len(record)
    if damage == "truncate":
        path.write_bytes(blob[: start + len(record) // 2])
    elif damage == "bitflip":
        path.write_bytes(blob[:-1] + bytes([blob[-1] ^ 0xFF]))
    elif damage == "garbage":
        path.write_bytes(blob[:start] + b"not a cache object at all".ljust(len(record), b"!"))
    else:
        path.write_bytes(blob[:start])
    victim = CacheStore(str(tmp_path), "ro")
    with caplog.at_level(logging.WARNING, logger="repro.incremental"):
        assert victim.get(key) is None
    assert victim.misses == 1 and victim.corrupt == 1
    assert any("treating as a miss" in r.message for r in caplog.records)


def test_store_version_skew_warns_and_misses(tmp_path, caplog):
    store = CacheStore(str(tmp_path), "rw")
    store.put(CacheStore.object_key("test", "v"), 1)
    store.commit()
    (tmp_path / "meta.json").write_text(json.dumps({"format": 0, "engine": "0.0.0"}))
    with caplog.at_level(logging.WARNING, logger="repro.incremental"):
        CacheStore(str(tmp_path), "ro")
    assert any("written by engine" in r.message for r in caplog.records)


def _pre_bump_key(*parts):
    """An object key as the previous cache format derived it."""
    import hashlib

    from repro import __version__

    h = hashlib.sha256()
    for part in (f"format={CACHE_FORMAT - 1}", f"engine={__version__}", *parts):
        h.update(part.encode())
        h.update(b"\x00")
    return h.digest()


def test_store_pre_bump_format_heals_on_commit(tmp_path, caplog):
    """Regression for the CACHE_FORMAT bumps (1 -> 2: partition layer;
    2 -> 3: P1.8 flow-facts layer + taint-sharpened relevance masks;
    3 -> 4: P2.6 xtaint summary layer + TaintFlow records in cached
    outcomes; 4 -> 5: typed layer-table payloads, bundles dropped;
    5 -> 6: one pack file per commit; 6 -> 7: partition, flow-facts and
    module-summary layers dropped; 7 -> 8: cached outcomes carry P3
    verdicts; 8 -> 9: outcomes stored as the codec's bytes, instructions
    named by coordinate; 9 -> 10: checker arming at every alias tier
    changes an ``off`` outcome's counters; 10 -> 11: IR values and types
    pickle by constructor): a directory stamped with the
    pre-bump format must read as all-misses, stay usable, and be
    re-stamped with the current format by the next commit — no manual
    cache wipe needed."""
    assert CACHE_FORMAT == 11  # update the pre-bump fixture when bumping again
    # A format-10 cache: its header stamp plus a pack holding an outcome
    # (the codec's bytes) under the key only the format-10 derivation
    # could produce.
    stale = _pre_bump_key("outcome", "spec", "cfg", "entry", "closure")
    (tmp_path / PACK_DIR).mkdir()
    with open(tmp_path / PACK_DIR / f"{1:020d}-stale{PACK_SUFFIX}", "wb") as out:
        write_pack(out, [(stale, checksummed(stale, pickle.dumps("pre-bump")))], 1)
    (tmp_path / "meta.json").write_text(
        json.dumps({"format": CACHE_FORMAT - 1, "engine": "0.9.0"}))

    with caplog.at_level(logging.WARNING, logger="repro.incremental"):
        store = CacheStore(str(tmp_path), "rw")
    assert any("written by engine" in r.message for r in caplog.records)
    assert store.get(stale.hex()) == "pre-bump"  # the pack itself is sound

    # Current-format keys miss (the format participates in key
    # derivation, so pre-bump objects are unreachable, never misread)...
    key = CacheStore.object_key("entry", "layer")
    assert store.get(key) is None
    # ...writes land, and the commit heals the header stamp.
    store.put(key, {"healed": True})
    assert store.commit() >= 1
    assert json.loads((tmp_path / "meta.json").read_text())["format"] == CACHE_FORMAT
    # A fresh handle opens without the skew warning and replays the write.
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="repro.incremental"):
        again = CacheStore(str(tmp_path), "ro")
    assert not any("written by engine" in r.message for r in caplog.records)
    assert again.get(key) == {"healed": True}


def test_engine_heals_pre_bump_cache_directory(tmp_path, monkeypatch):
    """End to end: analyzing over a pre-bump-format cache directory, populated
    by a full run, matches the uncached run byte for byte with no hit,
    re-stamps the header, and leaves a warm cache behind."""
    import repro.incremental.store as store_module

    baseline = _analyze(_sources())
    with monkeypatch.context() as patch:
        patch.setattr(store_module, "CACHE_FORMAT", CACHE_FORMAT - 1)
        _analyze(_sources(), cache_dir=str(tmp_path), cache_mode="rw")
    assert json.loads((tmp_path / "meta.json").read_text())["format"] == CACHE_FORMAT - 1

    healed = _analyze(_sources(), cache_dir=str(tmp_path), cache_mode="rw")
    assert _report_text(healed) == _report_text(baseline)
    assert healed.stats.cache_hits == 0
    assert json.loads((tmp_path / "meta.json").read_text())["format"] == CACHE_FORMAT

    warm = _analyze(_sources(), cache_dir=str(tmp_path), cache_mode="rw")
    assert _report_text(warm) == _report_text(baseline)
    assert any(row.cached for row in warm.stats.per_entry)


@pytest.mark.parametrize("kind", ["disk", "resident"])
def test_store_reject_counts_a_miss_and_lets_put_overwrite(tmp_path, kind):
    """An object the engine could not use is recounted as a miss, and
    the next put replaces it even though its checksum verifies."""
    from repro.serve.store import ResidentStore

    store = CacheStore(str(tmp_path), "rw") if kind == "disk" else ResidentStore()
    key = CacheStore.object_key("test", "reject")
    store.put(key, "wrong shape")
    store.commit()
    if kind == "disk":
        store = CacheStore(str(tmp_path), "rw")  # a fresh handle reads from disk
    assert store.get(key) == "wrong shape"
    store.reject(key)
    assert store.hits == 0 and store.misses == 1
    store.put(key, "right shape")
    assert store.commit() == 1
    assert store.get(key) == "right shape"


def test_store_rewrite_after_reject_wins_in_a_fresh_handle(tmp_path):
    """A rejected object's rewrite lands in a newer pack; the stale copy
    stays on disk, but a fresh handle reads the newest copy."""
    key = CacheStore.object_key("test", "newest")
    first = CacheStore(str(tmp_path), "rw")
    first.put(key, "stale")
    first.commit()
    second = CacheStore(str(tmp_path), "rw")
    assert second.get(key) == "stale"
    second.reject(key)
    second.put(key, "fresh")
    assert second.commit() == 1
    assert len(pack_paths(tmp_path)) == 2
    assert CacheStore(str(tmp_path), "ro").get(key) == "fresh"


def _helper_variant(n):
    """``_sources`` with ``helper`` returning ``n + k``: a fresh a.c
    module and ``top`` outcome per ``k``."""
    return _sources(HELPER_V1.replace("n + 1", f"n + {n}"))


def test_pack_count_stays_within_the_bound(tmp_path):
    """Every rw run that writes adds packs; past the bound a commit merges
    instead, and the merges keep every object: both the last and the
    first tree are fully warm afterwards."""
    cache = str(tmp_path / "cache")
    runs = PACK_LIMIT + 2
    for n in range(1, runs + 1):
        _analyze(_helper_variant(n), cache, "rw")
        assert len(pack_paths(cache)) <= PACK_LIMIT
    for n in (runs, 1):
        warm = _analyze(_helper_variant(n), cache, "rw")
        assert warm.stats.entries_reanalyzed == 0
        assert _report_text(warm) == _report_text(_analyze(_helper_variant(n)))


def _flip_first(cache_dir, wanted):
    """Bit-flip the first record whose payload satisfies ``wanted``."""
    flipped = []

    def flip(key, record):
        if flipped or not wanted(_payload(record)):
            return record
        flipped.append(key)
        return record[:-1] + bytes([record[-1] ^ 0xFF])

    assert _rewrite_records(cache_dir, flip) == 1


def test_corrupt_object_is_counted_and_warned_once(tmp_path, caplog):
    """One bit-flipped outcome: the plan's read, the stage and the put
    all meet it, yet it is one count and one warning line."""
    cache = str(tmp_path / "cache")
    cold = _analyze(_sources(), cache, "rw")
    outcome = LAYERS["outcome"]
    _flip_first(cache, lambda p: isinstance(p, bytes) and outcome.accepts(_decoded(p)))
    with caplog.at_level(logging.WARNING, logger="repro.incremental"):
        warm = _analyze(_sources(), cache, "rw")
    assert _report_text(warm) == _report_text(cold)
    assert warm.stats.cache_corrupt == 1
    assert warm.stats.entries_reanalyzed == 1
    assert len([r for r in caplog.records if "corrupt" in r.message]) == 1


def test_open_store_unopenable_dir_is_none(tmp_path, caplog):
    blocker = tmp_path / "blocker"
    blocker.write_text("a file where the cache dir should be")
    with caplog.at_level(logging.WARNING, logger="repro.incremental"):
        assert open_store(str(blocker), "rw") is None
    assert open_store(None, "rw") is None
    assert open_store(str(tmp_path), "off") is None


# ---------------------------------------------------------------------------
# The layer table: every layer degrades a shape surprise to a rebuild
# ---------------------------------------------------------------------------

XT_WRITER = r"""
int g_xdiv;
int read_user_cnt(void);

void dev_tune(void) {
    int n = read_user_cnt();
    g_xdiv = n;
}
"""

XT_READER = r"""
int g_xdiv;

int dev_avg(int total) {
    int d = g_xdiv;
    return total / d;
}
"""


def _layer_run(sources, cache_dir):
    """One cached run engaging every layer: its report text and the
    misses of both the frontend store and the analysis store."""
    store = open_store(cache_dir, "rw")
    program = compile_with_cache(sources, store)
    store.commit()
    config = AnalysisConfig(cache_dir=cache_dir, cache_mode="rw")
    result = PATA(config=config, checker_spec="default,xtaint").analyze(program)
    return _report_text(result), store.misses + result.stats.cache_misses


@pytest.mark.parametrize("tag", list(LAYERS))
def test_layer_shape_surprise_degrades_to_rebuild(tmp_path, tag):
    """A checksummed object of the wrong type under any layer's key is
    a miss with a rebuild — never a crash, never a wrong report."""
    row = LAYERS[tag]
    sources = _sources() + [("w.c", XT_WRITER), ("r.c", XT_READER)]
    cache_dir = str(tmp_path)
    cold, _ = _layer_run(sources, cache_dir)
    warm, clean_misses = _layer_run(sources, cache_dir)
    assert warm == cold

    def held(value):
        if row.coded:
            return isinstance(value, bytes) and row.accepts(_decoded(value))
        return row.accepts(value)

    bogus = {"not": "a payload"}
    if row.coded:
        bogus = pickle.dumps(bogus)  # the codec's bytes, of the wrong shape
    blob = pickle.dumps(bogus)

    def swap(key, record):
        return checksummed(key, blob) if held(_payload(record)) else record

    replaced = _rewrite_records(cache_dir, swap)
    assert replaced > 0

    surprised, misses = _layer_run(sources, cache_dir)
    assert surprised == cold
    assert misses == clean_misses + replaced


def test_stale_coordinate_is_a_warned_miss(tmp_path, caplog, monkeypatch):
    """An outcome naming an instruction the program lacks (here: one
    written by a naming that prefixes every function name) is a warned
    miss per entry: the entry is explored again, its key rewritten, and
    the reports are the cache-off run's."""
    from repro.incremental.coords import CoordNaming

    sources = _sources() + [("w.c", XT_WRITER), ("r.c", XT_READER)]
    cache = str(tmp_path)
    real = CoordNaming.name

    def ghost(self, obj):
        name = real(self, obj)
        return ("ghost_" + name[0], *name[1:]) if isinstance(name, tuple) else name

    with monkeypatch.context() as patch:
        patch.setattr(CoordNaming, "name", ghost)
        _analyze(sources, cache, "rw", spec="default,xtaint")
    stale = 0  # outcomes naming at least one instruction
    for path in pack_paths(cache):
        for _, record in pack_records(path):
            payload, names = _payload(record), []
            if isinstance(payload, bytes):
                decode(payload, names.append)
            stale += any(isinstance(name, tuple) for name in names)
    assert stale > 0

    with caplog.at_level(logging.WARNING, logger="repro.incremental"):
        warm = _analyze(sources, cache, "rw", spec="default,xtaint")
    assert _report_text(warm) == _report_text(_analyze(sources, spec="default,xtaint"))
    assert warm.stats.cache_misses == stale
    assert warm.stats.entries_reanalyzed == stale
    assert len([r for r in caplog.records if "stale coordinates" in r.message]) == stale
    healed = _analyze(sources, cache, "rw", spec="default,xtaint")
    assert healed.stats.cache_misses == 0


# ---------------------------------------------------------------------------
# Whole-program products (P1.7 partition, P1.8 flow facts, P2.6 module
# summaries) are rebuilt every run, never cached
# ---------------------------------------------------------------------------


def test_flow_facts_invalidated_by_module_edit(tmp_path):
    """An edited tree over a warm cache reports what a cache-off run of
    the edited tree reports: nothing whole-program replays."""
    cache_dir = str(tmp_path)
    _analyze(_sources(HELPER_V1), cache_dir=cache_dir, cache_mode="rw")
    edited = _analyze(_sources(HELPER_V2), cache_dir=cache_dir, cache_mode="rw")
    baseline = _analyze(_sources(HELPER_V2))
    assert _report_text(edited) == _report_text(baseline)
    assert edited.stats.time_flow_seconds > 0


def test_flow_facts_key_distinguishes_fp_resolution(tmp_path):
    """Flipping ``resolve_function_pointers`` over one cache directory
    reports what a cache-off run in the new mode reports."""
    cache_dir = str(tmp_path)
    _analyze(_sources(), cache_dir=cache_dir, cache_mode="rw")
    resolved = _analyze(_sources(), cache_dir=cache_dir, cache_mode="rw",
                        resolve_function_pointers=True)
    baseline = _analyze(_sources(), resolve_function_pointers=True)
    assert _report_text(resolved) == _report_text(baseline)


@pytest.mark.parametrize("spec", ["default", "default,xtaint"])
def test_no_run_commits_a_whole_program_payload(tmp_path, spec):
    """At every alias tier, cold and warm, no run commits a partition,
    flow facts or module summaries: each would fold every function into
    its key, so an edit anywhere would strand it."""
    from repro.pointsto.flow_tier import MustAliasFacts
    from repro.pointsto.steensgaard import MayAliasPartition
    from repro.xtaint import ModuleSummary

    forbidden = (MayAliasPartition, MustAliasFacts, ModuleSummary)
    sources = _sources() + [("w.c", XT_WRITER), ("r.c", XT_READER)]
    for tier in ("off", "steens", "flow"):
        cache_dir = str(tmp_path / tier)
        for _ in range(2):
            result = _analyze(sources, cache_dir=cache_dir, cache_mode="rw",
                              spec=spec, alias_tier=tier)
        if "xtaint" in spec:
            assert result.stats.taint_flows_recorded > 0  # P2.6 engaged
        records = [record for path in pack_paths(cache_dir)
                   for _, record in pack_records(path)]
        assert records
        for record in records:
            payload = _payload(record)
            if isinstance(payload, bytes):
                payload = _decoded(payload)
            values = payload.values() if isinstance(payload, dict) else (payload,)
            assert not any(isinstance(value, forbidden) for value in values), tier


def test_cli_one_file_edit_adds_kilobytes_to_the_cache(tmp_path, capsys):
    """A ``--cache rw`` one-file edit of a small linux tree writes the
    edited module and its new entry's outcome: tens of KB, not a fresh
    copy of anything whole-program."""
    corpus = generate(PROFILES_BY_NAME["linux"].scaled(0.2))
    tree = tmp_path / "tree"
    tree.mkdir()
    paths = _write_sources(tree, [(name.replace("/", "__"), text)
                                  for name, text in corpus.compiled_sources()])
    cache = tmp_path / "cache"
    args = ["check", "--all-checkers", "--cache", "rw", "--cache-dir", str(cache), *paths]

    def cache_bytes():
        return sum(f.stat().st_size for f in cache.rglob("*") if f.is_file())

    cli_main(args)
    capsys.readouterr()
    populated = cache_bytes()
    with open(paths[0], "a") as handle:
        handle.write("\nint grow_leak(int n) { int *p = malloc(8); "
                     "if (n > 2) return -1; free(p); return 0; }\n")
    code = cli_main(args)
    warm = capsys.readouterr().out
    assert cache_bytes() - populated <= 64 * 1024
    assert cli_main(["check", "--all-checkers", *paths]) == code
    assert warm == capsys.readouterr().out


# ---------------------------------------------------------------------------
# Satellite 1: canonical printer byte-determinism across processes
# ---------------------------------------------------------------------------

_PRINT_SNIPPET = r"""
import hashlib, sys
from repro.corpus import PROFILES_BY_NAME, generate
from repro.ir import canonical_program_print
from repro.lang import compile_program

corpus = generate(PROFILES_BY_NAME["linux"].scaled(0.1))
program = compile_program(corpus.compiled_sources())
text = canonical_program_print(program)
sys.stdout.write(hashlib.sha256(text.encode()).hexdigest())
"""


def test_canonical_print_identical_across_subprocesses():
    """Two separate interpreters with different hash seeds must print the
    corpus byte-identically — the property every cache key rests on."""
    digests = []
    for seed in ("1", "424242"):
        env = dict(os.environ)
        env["PYTHONHASHSEED"] = seed
        src_dir = pathlib.Path(__file__).resolve().parent.parent / "src"
        env["PYTHONPATH"] = f"{src_dir}{os.pathsep}" + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-c", _PRINT_SNIPPET],
            capture_output=True, text=True, env=env, check=True,
        )
        digests.append(proc.stdout.strip())
    assert digests[0] == digests[1]
    assert len(digests[0]) == 64


def test_canonical_print_sensitive_to_line_shifts():
    """Reports render file:line, so a pure line shift must re-fingerprint
    the shifted functions."""
    shifted = "\n// leading comment\n" + HELPER_V1
    keys_a = TransitiveKeys(compile_program([("a.c", HELPER_V1)]))
    keys_b = TransitiveKeys(compile_program([("a.c", shifted)]))
    assert keys_a.key("top") != keys_b.key("top")


# ---------------------------------------------------------------------------
# Satellite 3a: closure-exact invalidation
# ---------------------------------------------------------------------------


def test_leaf_edit_invalidates_exactly_caller_closure():
    keys_v1 = TransitiveKeys(compile_program(_sources(HELPER_V1)))
    keys_v2 = TransitiveKeys(compile_program(_sources(HELPER_V2)))
    assert keys_v1.key("helper") != keys_v2.key("helper")
    assert keys_v1.key("top") != keys_v2.key("top")
    assert keys_v1.key("other") == keys_v2.key("other")
    assert keys_v1.key("third") == keys_v2.key("third")


def test_recursive_cycle_keys_are_stable_and_shared():
    mutual = r"""
int ping(int n);
int pong(int n) { if (n > 0) return ping(n - 1); return 0; }
int ping(int n) { if (n > 0) return pong(n - 1); return 1; }
"""
    keys = TransitiveKeys(compile_program([("m.c", mutual)]))
    again = TransitiveKeys(compile_program([("m.c", mutual)]))
    assert keys.key("ping") == again.key("ping")
    assert keys.key("pong") == again.key("pong")


KEYS_SOURCE = r"""
struct ops { int (*run)(int n); };
int ext(int n);
int ping(int n);
int pong(int n) { if (n > 0) return ping(n - 1); return ext(n); }
int ping(int n) { if (n > 0) return pong(n - 1); return 1; }
int self_loop(int n) { if (n > 0) return self_loop(n - 1); return 0; }
int top(int n) { return ping(n) + self_loop(n); }
static int handler(int n) { return leaf(n); }
static struct ops o = { .run = handler, .run = missing };
int leaf(int n) { return ext(n) + 1; }
int dispatch(struct ops *p, int n) { return p->run(n); }
int outer(struct ops *p, int n) { return dispatch(p, n) + top(n); }
"""

#: transitive keys of KEYS_SOURCE (mutual recursion, a self-loop, calls
#: to an undefined function, an indirect call site, a pool registering
#: an undefined function), as each key was first derived; a change here
#: invalidates every populated cache directory
PINNED_KEYS = {
    "dispatch": "a9790ae67b1f34cab2ca9b995b7f7d1c68ecf746c17d3b3f26f865dd043f4ea7",
    "handler": "41bec4a33fc5b99cbbfd32ed0f03f10a0d2a66287c8a2b9de9ce77899b25d1ce",
    "leaf": "3d80af4a533d7078ff61a3e0fde10a900887c0709c6b02cc85041612c1f3128d",
    "outer": "52f33adebc82517a46344db1ce89571dbc521ced7b85987e8ff6ff2960169d61",
    "ping": "ddccf62263fa6ea9cd1578e7536f1e981cdb13464de08ca800be6f3a84c67ce7",
    "pong": "ddccf62263fa6ea9cd1578e7536f1e981cdb13464de08ca800be6f3a84c67ce7",
    "self_loop": "98f13654f07ee0903cdbd49f14271dd254502ad15c3b8cb38746535950462089",
    "top": "5cc4ec8c9d2a98ab9074728bc50bf6054626c739895914d8f08aff6d982be9e0",
}
#: with function-pointer resolution, the keys that reach the indirect
#: call site fold the pool stamp; the others stay as above
PINNED_POOL_KEYS = {
    "dispatch": "23818cf470bd16b617c5b4dba865091e2f16150dfe46a30500f83f41eccb225f",
    "outer": "64df48c324f77728bd024ed6caea3362036b65f205d3e09155a38755695151b3",
}


def test_transitive_keys_are_pinned():
    program = compile_program([("k.c", KEYS_SOURCE)])
    keys = TransitiveKeys(program)
    assert {name: keys.key(name) for name in PINNED_KEYS} == PINNED_KEYS
    resolved = TransitiveKeys(
        program, callgraph=CallGraph(program, resolve_function_pointers=True)
    )
    assert resolved.pool_stamp == (
        "c8eabd870f590f1f7486671e55a92b172ad5fbf697b2f6d2c7387144da8b2a88"
    )
    assert {name: resolved.key(name) for name in PINNED_KEYS} == {
        **PINNED_KEYS, **PINNED_POOL_KEYS
    }


DISPATCH = r"""
struct msg { int len; };
struct handler_ops { int (*consume)(struct msg *m); };
static int raw_consume(struct msg *m) {
    return m->len;
}
static struct handler_ops raw_ops = { .consume = raw_consume };
int dispatch(struct handler_ops *ops, struct msg *m) {
    if (!m)
        return ops->consume(m);
    return 0;
}
struct dispatch_reg { int (*d)(struct handler_ops *o, struct msg *m); };
static struct dispatch_reg dr = { .d = dispatch };
"""

EXTRA_REGISTRATION = r"""
struct msg2 { int len; };
struct handler_ops2 { int (*consume2)(struct msg2 *m); };
static int checked_consume(struct msg2 *m) {
    if (!m) return 0;
    return m->len;
}
static struct handler_ops2 safe_ops = { .consume2 = checked_consume };
"""


def test_pool_addition_invalidates_only_indirect_dispatchers():
    base = [("d.c", DISPATCH), ("b.c", OTHER)]
    grown = base + [("e.c", EXTRA_REGISTRATION)]
    keys_base, keys_grown = (
        TransitiveKeys(program, callgraph=CallGraph(program, resolve_function_pointers=True))
        for program in (compile_program(base), compile_program(grown))
    )
    assert keys_base.pool_stamp != keys_grown.pool_stamp
    assert keys_base.key("dispatch") != keys_grown.key("dispatch")
    assert keys_base.key("other") == keys_grown.key("other")
    # With resolution off the pool never participates.
    off_base = TransitiveKeys(compile_program(base))
    off_grown = TransitiveKeys(compile_program(grown))
    assert off_base.key("dispatch") == off_grown.key("dispatch")


def test_spec_fingerprint_canonicalizes_aliases():
    assert spec_fingerprint("default") == spec_fingerprint("npd,uva,ml")
    assert spec_fingerprint("default") != spec_fingerprint("all")


# ---------------------------------------------------------------------------
# Satellite 3b: PATA-level warm-start invalidation
# ---------------------------------------------------------------------------


def test_warm_run_serves_every_entry_from_cache(tmp_path):
    cache = str(tmp_path / "cache")
    cold = _analyze(_sources(), cache, "rw")
    warm = _analyze(_sources(), cache, "rw")
    assert _report_text(cold) == _report_text(warm)
    assert warm.stats.entries_reanalyzed == 0
    assert warm.stats.entries_cached == cold.stats.entries_reanalyzed > 0
    for row in warm.stats.per_entry:
        if row.cached:
            assert row.wall_seconds == 0.0


def test_unchanged_rerun_reads_one_outcome_per_entry(tmp_path, monkeypatch):
    """An entry P1.5 skipped caches its skip verdict as an outcome, so a
    warm re-run of an unchanged tree reads one object per entry function
    and never builds the pre-analysis."""
    import repro.presolve

    sources = generate(PROFILES_BY_NAME["linux"].scaled(0.2)).compiled_sources()
    config = AnalysisConfig(cache_dir=str(tmp_path / "cache"), cache_mode="rw")
    cold = PATA(config=config, checker_spec="all").analyze(compile_program(sources))
    assert cold.stats.entries_skipped > 0

    def refuse(*args, **kwargs):
        raise AssertionError("an unchanged re-run built the P1.5 pre-analysis")

    monkeypatch.setattr(repro.presolve, "RelevancePreAnalysis", refuse)
    warm = PATA(config=config, checker_spec="all").analyze(compile_program(sources))
    assert warm.stats.cache_hits == warm.stats.entry_functions
    assert warm.stats.cache_misses == 0
    assert warm.stats.entries_skipped == cold.stats.entries_skipped
    assert warm.stats.entries_reanalyzed == 0
    assert _report_text(warm) == _report_text(cold)


def test_leaf_edit_reanalyzes_exactly_dirty_closure(tmp_path):
    cache = str(tmp_path / "cache")
    _analyze(_sources(HELPER_V1), cache, "rw")
    warm = _analyze(_sources(HELPER_V2), cache, "rw")
    status = _entry_status(warm)
    assert status["top"] == "analyzed"  # helper is in top's closure
    assert status["other"] == "cached"
    assert status["third"] == "cached"
    assert warm.stats.entries_reanalyzed == 1
    baseline = _analyze(_sources(HELPER_V2))
    assert _report_text(warm) == _report_text(baseline)


def test_pool_addition_reanalyzes_only_dispatching_entries(tmp_path):
    cache = str(tmp_path / "cache")
    base = [("d.c", DISPATCH), ("b.c", OTHER)]
    grown = base + [("e.c", EXTRA_REGISTRATION)]
    _analyze(base, cache, "rw", resolve_function_pointers=True)
    warm = _analyze(grown, cache, "rw", resolve_function_pointers=True)
    status = _entry_status(warm)
    assert status["dispatch"] == "analyzed"
    assert status["other"] == "cached"
    baseline = _analyze(grown, resolve_function_pointers=True)
    assert _report_text(warm) == _report_text(baseline)


def test_spec_change_misses_every_outcome(tmp_path):
    cache = str(tmp_path / "cache")
    _analyze(_sources(), cache, "rw", spec="npd")
    warm = _analyze(_sources(), cache, "rw", spec="all")
    # Outcome keys fold the spec: nothing is served from cache.
    assert warm.stats.entries_cached == 0
    baseline = _analyze(_sources(), spec="all")
    assert _report_text(warm) == _report_text(baseline)


def test_budget_change_misses_every_outcome(tmp_path):
    cache = str(tmp_path / "cache")
    _analyze(_sources(), cache, "rw")
    warm = _analyze(_sources(), cache, "rw", max_paths_per_entry=1999)
    # The engine fingerprint changed, so every outcome misses and the
    # run explores with a live P1.5 pre-analysis.
    assert warm.stats.entries_cached == 0
    assert warm.stats.entries_reanalyzed > 0
    baseline = _analyze(_sources(), max_paths_per_entry=1999)
    assert _report_text(warm) == _report_text(baseline)


def test_ro_mode_reads_but_never_writes(tmp_path):
    cache = tmp_path / "cache"
    _analyze(_sources(), str(cache), "rw")
    before = pack_paths(cache)
    assert before
    warm = _analyze(_sources(), str(cache), "ro")
    assert warm.stats.entries_reanalyzed == 0
    assert pack_paths(cache) == before
    # An ro run against an empty cache analyzes everything and writes nothing.
    empty = tmp_path / "empty"
    cold_ro = _analyze(_sources(), str(empty), "ro")
    assert cold_ro.stats.entries_cached == 0
    assert not (empty / PACK_DIR).exists()


def test_corrupted_cache_objects_fall_back_cleanly(tmp_path, caplog):
    cache = tmp_path / "cache"
    cold = _analyze(_sources(), str(cache), "rw")
    assert _rewrite_records(cache, lambda key, record: record[:16]) > 0
    with caplog.at_level(logging.WARNING, logger="repro.incremental"):
        warm = _analyze(_sources(), str(cache), "rw")
    assert _report_text(warm) == _report_text(cold)
    assert warm.stats.entries_cached == 0
    assert warm.stats.cache_corrupt > 0
    assert any("treating as a miss" in r.message for r in caplog.records)
    # The corrupt objects were rewritten; a third run is fully warm again.
    healed = _analyze(_sources(), str(cache), "rw")
    assert healed.stats.entries_reanalyzed == 0


def test_live_checker_objects_disable_cache_with_warning(tmp_path, caplog):
    from repro.typestate import default_checkers

    config = AnalysisConfig(cache_dir=str(tmp_path / "cache"), cache_mode="rw")
    pata = PATA(checkers=default_checkers(), config=config)
    with caplog.at_level(logging.WARNING, logger="repro.incremental"):
        result = pata.analyze(compile_program(_sources()))
    assert result.stats.entries_cached == 0
    assert any("custom checker objects" in r.message for r in caplog.records)


def test_warm_totals_match_cold_totals(tmp_path):
    """--stats consistency: a fully-warm run reproduces every
    deterministic counter of the cold run (timings aside)."""
    profile = PROFILES_BY_NAME["zephyr"].scaled(0.2)
    sources = generate(profile).compiled_sources()
    cache = str(tmp_path / "cache")
    cold = _analyze(sources, cache, "rw", spec="all")
    warm = _analyze(sources, cache, "rw", spec="all")
    for field in ("explored_paths", "executed_steps", "typestates_aware",
                  "typestates_unaware", "dropped_repeated_bugs",
                  "dropped_false_bugs", "entries_skipped", "blocks_pruned",
                  "paths_pruned", "shared_accesses", "race_pairs_matched",
                  "budget_exhausted_entries"):
        assert getattr(warm.stats, field) == getattr(cold.stats, field), field
    assert warm.stats.entries_cached == cold.stats.entries_reanalyzed


# ---------------------------------------------------------------------------
# CLI surface
# ---------------------------------------------------------------------------


def _write_sources(tmp_path, sources):
    paths = []
    for name, text in sources:
        path = tmp_path / name
        path.write_text(text)
        paths.append(str(path))
    return paths


def _deep_source():
    """One function whose CFG chains 400 ``if`` statements."""
    body = "".join(f"    if (x > {i}) {{ x = x + 1; }}\n" for i in range(400))
    return ("int f(int x) {\n    int *p = malloc(8);\n" + body
            + "    if (x > 9999) return -1;\n    free(p);\n    return x;\n}\n")


def test_cli_caches_a_function_of_400_chained_blocks(tmp_path, capsys):
    """Neither the module nor the outcome of a CFG that chains 400
    blocks nests too deeply to store: a --cache rw re-run reuses both,
    warns about nothing and prints what a cache-off run prints."""
    paths = _write_sources(tmp_path, [("deep.c", _deep_source())])
    stats = tmp_path / "stats.json"
    args = ["check", "--all-checkers", "--cache", "rw", "--cache-dir",
            str(tmp_path / "cache"), "--stats-json", str(stats), *paths]
    for _ in range(2):
        code = cli_main(args)
        run = capsys.readouterr()
        assert run.err == ""
    warm = json.loads(stats.read_text())
    assert warm["cache_misses"] == 0 and warm["entries_reanalyzed"] == 0
    assert warm["cache_hits"] == 2
    assert cli_main(["check", "--all-checkers", *paths]) == code == 1
    assert capsys.readouterr().out == run.out


def test_cli_cache_requires_dir(tmp_path, capsys):
    paths = _write_sources(tmp_path, _sources())
    assert cli_main(["check", "--cache", "rw", *paths]) == 2
    assert "--cache-dir" in capsys.readouterr().err


def test_cli_cache_dir_without_mode_warns(tmp_path, capsys):
    paths = _write_sources(tmp_path, _sources())
    code = cli_main(["check", "--cache-dir", str(tmp_path / "c"), *paths])
    err = capsys.readouterr().err
    assert "caching disabled" in err
    assert code in (0, 1)


def test_cli_warm_run_identical_output(tmp_path, capsys):
    paths = _write_sources(tmp_path, _sources())
    cache = str(tmp_path / "cache")
    code_cold = cli_main(["check", "--cache", "rw", "--cache-dir", cache, *paths])
    out_cold = capsys.readouterr().out
    code_warm = cli_main(["check", "--cache", "rw", "--cache-dir", cache, *paths])
    out_warm = capsys.readouterr().out
    assert code_cold == code_warm
    assert out_cold == out_warm


def test_cli_stats_json(tmp_path, capsys):
    paths = _write_sources(tmp_path, _sources())
    cache = str(tmp_path / "cache")
    stats_file = tmp_path / "stats.json"
    cli_main(["check", "--cache", "rw", "--cache-dir", cache,
              "--stats-json", str(stats_file), *paths])
    capsys.readouterr()
    payload = json.loads(stats_file.read_text())
    assert payload["entries_reanalyzed"] > 0
    assert payload["entries_cached"] == 0
    assert isinstance(payload["per_entry"], list) and payload["per_entry"]
    # Serve-mode residency fields are in the schema and inert one-shot.
    assert payload["queue_wait_seconds"] == 0.0
    assert payload["requests_served"] == 0
    assert payload["resident_cache_entries"] == 0
    cli_main(["check", "--cache", "rw", "--cache-dir", cache,
              "--stats-json", str(stats_file), *paths])
    capsys.readouterr()
    warm = json.loads(stats_file.read_text())
    assert warm["entries_reanalyzed"] == 0
    assert warm["entries_cached"] == payload["entries_reanalyzed"]
    assert warm["cache_hits"] > 0
    # The deterministic totals agree between the two runs.
    assert warm["explored_paths"] == payload["explored_paths"]
    assert warm["executed_steps"] == payload["executed_steps"]


def test_cli_stats_table_marks_cached_rows(tmp_path, capsys):
    paths = _write_sources(tmp_path, _sources())
    cache = str(tmp_path / "cache")
    cli_main(["check", "--cache", "rw", "--cache-dir", cache, *paths])
    capsys.readouterr()
    cli_main(["check", "--stats", "--cache", "rw", "--cache-dir", cache, *paths])
    out = capsys.readouterr().out
    assert "cached" in out


def _cli_run(args, capsys, stats_file):
    """One in-process CLI run: (exit code, stdout, stats-json dict)."""
    code = cli_main([*args[:1], "--stats-json", str(stats_file), *args[1:]])
    return code, capsys.readouterr().out, json.loads(stats_file.read_text())


def test_cli_stats_count_the_module_layer(tmp_path, capsys):
    """One store handle serves a CLI run, so its cache counters include
    layer 0 (the compiled modules), as daemon responses do."""
    paths = _write_sources(tmp_path, _sources())
    cache = str(tmp_path / "cache")
    args = ["check", "--cache", "rw", "--cache-dir", cache, *paths]
    _cli_run(args, capsys, tmp_path / "cold.json")
    _, _, warm = _cli_run(args, capsys, tmp_path / "warm.json")
    # PATA's own handle (the library path) counts the outcome layer only.
    summary = _analyze([(p, pathlib.Path(p).read_text()) for p in paths], cache, "ro")
    assert warm["cache_misses"] == 0
    assert warm["cache_hits"] == summary.stats.cache_hits + len(paths)


def test_cli_counts_a_corrupt_module_object(tmp_path, capsys, caplog):
    from repro.incremental.engine import CompiledModule

    paths = _write_sources(tmp_path, _sources())
    cache = str(tmp_path / "cache")
    args = ["check", "--cache", "rw", "--cache-dir", cache, *paths]
    _, cold_out, _ = _cli_run(args, capsys, tmp_path / "cold.json")
    _flip_first(cache, lambda p: isinstance(p, CompiledModule))
    with caplog.at_level(logging.WARNING, logger="repro.incremental"):
        _, out, stats = _cli_run(args, capsys, tmp_path / "warm.json")
    assert out == cold_out
    assert stats["cache_corrupt"] == 1
    assert stats["cache_misses"] >= 1
    assert len([r for r in caplog.records if "corrupt" in r.message]) == 1


def _damage_pack(path, damage):
    blob = path.read_bytes()
    records = pack_records(path)
    index_end = len(blob) - sum(len(record) for _, record in records)
    if damage == "bad-magic":
        path.write_bytes(b"NOTAPACK" + blob[8:])
    elif damage == "truncated-index":
        path.write_bytes(blob[:index_end - 1])
    elif damage == "cut-record":
        path.write_bytes(blob[:len(blob) - len(records[-1][1]) // 2])
    elif damage == "empty-pack":
        path.write_bytes(b"")
    else:  # a crashed commit: a half-written tempfile, never renamed
        path.unlink()
        path.with_suffix(".tmp").write_bytes(blob[:len(blob) // 2])


@pytest.mark.parametrize(
    "damage", ["bad-magic", "truncated-index", "cut-record", "empty-pack", "leftover-tmp"])
def test_pack_damage_is_a_warned_miss_and_heals(tmp_path, capsys, caplog, damage):
    """Damage to a whole pack reads as misses (warned, unless the pack
    was never committed), the run's report matches cache-off, its commit
    merges the damaged pack away, and the next run is warm and quiet."""
    paths = _write_sources(tmp_path, _sources())
    cache = tmp_path / "cache"
    args = ["check", "--cache", "rw", "--cache-dir", str(cache), *paths]
    _, reference, _ = _cli_run(["check", *paths], capsys, tmp_path / "off.json")
    _cli_run(args, capsys, tmp_path / "cold.json")
    victim = pack_paths(cache)[-1]  # the analysis-side commit
    _damage_pack(victim, damage)
    with caplog.at_level(logging.WARNING, logger="repro.incremental"):
        _, out, stats = _cli_run(args, capsys, tmp_path / "damaged.json")
    assert out == reference
    assert stats["entries_reanalyzed"] > 0
    warned = [r for r in caplog.records if "treating as a miss" in r.message]
    assert bool(warned) == (damage != "leftover-tmp")
    assert victim not in pack_paths(cache)
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="repro.incremental"):
        _, out, stats = _cli_run(args, capsys, tmp_path / "healed.json")
    assert out == reference
    assert stats["entries_reanalyzed"] == 0
    assert stats["cache_corrupt"] == 0
    assert not caplog.records


def test_concurrent_rw_processes_share_a_cache_directory(tmp_path):
    """Two ``check --cache rw`` processes on one directory at once, both
    merging (the directory starts at the pack bound): each exits 0 or 1
    with the cache-off report, and the next run is warm."""
    cache = str(tmp_path / "cache")
    for n in range(1, PACK_LIMIT // 2 + 1):
        _analyze(_helper_variant(n), cache, "rw")
    assert len(pack_paths(cache)) == PACK_LIMIT
    paths = _write_sources(tmp_path, _helper_variant(PACK_LIMIT))
    env = dict(os.environ)
    src_dir = pathlib.Path(__file__).resolve().parent.parent / "src"
    env["PYTHONPATH"] = f"{src_dir}{os.pathsep}" + env.get("PYTHONPATH", "")

    def check(*extra):
        return [sys.executable, "-m", "repro", "check", *extra, *paths]

    reference = subprocess.run(check(), capture_output=True, text=True, env=env, timeout=300)
    assert reference.returncode in (0, 1), reference.stderr
    rw = ("--cache", "rw", "--cache-dir", cache)
    procs = [subprocess.Popen(check(*rw), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, env=env) for _ in range(2)]
    for proc in procs:
        out, err = proc.communicate(timeout=300)
        assert proc.returncode in (0, 1), err
        assert out == reference.stdout
    stats_file = tmp_path / "warm.json"
    warm = subprocess.run(check(*rw, "--stats-json", str(stats_file)),
                          capture_output=True, text=True, env=env, timeout=300)
    assert warm.stdout == reference.stdout
    assert json.loads(stats_file.read_text())["entries_reanalyzed"] == 0
