"""The cache's naming (:class:`repro.incremental.coords.CoordNaming`).

It reads each coordinate off an instruction's parent links and resolves
one by indexing the program, so it is checked against the walk-based
index it replaced, kept here as the oracle: on every corpus profile,
compiled, assembled from a cache, after a one-file edit and optimized,
every instruction and terminator is named as the oracle names it and
resolves back to itself, and ``heap#`` strings round-trip.  Then the
edge cases (instructions the numbering does not place, second
definitions, coordinates the program lacks), the memory the naming
holds, and when it builds its one uid lookup.
"""

import tracemalloc

import pytest

from repro import PATA, AnalysisConfig
from repro.corpus import CORPUS_PROFILES_BY_NAME, generate
from repro.incremental import compile_with_cache, open_store
from repro.incremental.coords import CoordNaming, StaleEntry, renumber_program
from repro.ir import Malloc, Move, Program, Var, optimize_program
from repro.lang import compile_program, compile_source

from tests.test_serve import HEAP_RACE

_PROFILE_NAMES = ["linux", "zephyr", "riot", "tencentos", "taintlab", "racelab", "firmlab"]

EDIT = "int coords_edit(int n) { int *p = malloc(8); if (n > 3) return -1; free(p); return 0; }\n"


class WalkedCoordIndex:
    """The cache's naming before it read parent links: one walk over
    the program into a uid -> coordinate and a coordinate ->
    instruction dict."""

    def __init__(self, program):
        self.by_uid, self.by_coord = {}, {}
        for func in program.functions():
            for b, block in enumerate(func.blocks):
                items = list(enumerate(block.instructions))
                if block.terminator is not None:
                    items.append((-1, block.terminator))
                for i, inst in items:
                    self.by_uid[inst.uid] = (func.name, b, i)
                    self.by_coord[(func.name, b, i)] = inst


def _assert_names_as_oracle(program):
    """Every instruction and terminator is named as the oracle names it
    and resolves back to itself; each allocation's ``heap#`` string
    round-trips.  Returns how many instructions were checked."""
    naming, oracle = CoordNaming(program), WalkedCoordIndex(program)
    for coord, inst in oracle.by_coord.items():
        assert naming.name(inst) == coord
        assert naming.resolve(coord) is inst
    for inst in oracle.by_coord.values():
        if isinstance(inst, Malloc):
            func, b, i = oracle.by_uid[inst.uid]
            text = f"race on heap#{inst.uid}.len"
            named = naming.name(text)
            assert named == f"race on heap#{func}@{b}.{i}.len"
            assert naming.resolve(named) == text
    return len(oracle.by_coord)


def _profile_sources(name):
    profile = CORPUS_PROFILES_BY_NAME[name].scaled(3.0 if name.endswith("lab") else 0.3)
    return list(generate(profile).compiled_sources())


@pytest.mark.parametrize("name", _PROFILE_NAMES)
def test_naming_matches_the_walked_index(name, tmp_path):
    """Compiled, assembled from cached modules, after a one-file edit,
    and optimized (before and after the renumbering PATA does)."""
    sources = _profile_sources(name)
    compiled = compile_program(sources)
    assert _assert_names_as_oracle(compiled) > 500

    store = open_store(str(tmp_path), "rw")
    compile_with_cache(sources, store)
    store.commit()
    store = open_store(str(tmp_path), "rw")
    _assert_names_as_oracle(compile_with_cache(sources, store))
    assert store.hits == len(sources) and store.misses == 0

    edited = [(sources[0][0], sources[0][1] + EDIT)] + sources[1:]
    program = compile_with_cache(edited, store)
    assert store.misses == 1 and program.lookup("coords_edit") is not None
    _assert_names_as_oracle(program)

    optimize_program(compiled)
    _assert_names_as_oracle(compiled)
    renumber_program(compiled)
    _assert_names_as_oracle(compiled)


SOURCE = """
int f(int n) {
    int *p = malloc(8);
    if (n > 2) {
        free(p);
        return 1;
    }
    free(p);
    return 0;
}
int g(int n) { return f(n) + 1; }
"""


def test_instructions_the_numbering_does_not_place_get_true_coordinates():
    """An instruction inserted mid-block, and a block appended with an
    instruction, after renumbering: uid differences no longer give
    positions, and the identity check sends the naming to a search."""
    program = compile_program([("a.c", SOURCE)])
    f = program.lookup("f")
    entry = f.blocks[0]
    inserted = Move(Var("f.x"), Var("f.n"))
    inserted.parent = entry
    entry.instructions.insert(1, inserted)
    appended = f.add_block("tail").append(Move(Var("f.y"), Var("f.n")))

    naming = CoordNaming(program)
    assert naming.name(inserted) == ("f", 0, 1)
    assert naming.name(appended) == ("f", len(f.blocks) - 1, 0)
    assert naming.resolve(naming.name(appended)) is appended
    assert naming.name(f"heap#{appended.uid}") == f"heap#f@{len(f.blocks) - 1}.0"
    _assert_names_as_oracle(program)


def test_second_definition_and_stray_instructions_are_stale():
    """Only the definition ``Program.lookup`` returns is named; an
    instruction outside any block, or in a block its function no longer
    holds, is stale too."""
    program = Program([compile_source(SOURCE, "a.c"), compile_source(SOURCE, "b.c")])
    renumber_program(program)
    first, second = (module.functions["f"] for module in program.modules)
    assert program.lookup("f") is first
    naming = CoordNaming(program)
    assert naming.name(first.blocks[0].instructions[0]) == ("f", 0, 0)
    malloc = next(inst for inst in second.instructions() if isinstance(inst, Malloc))
    with pytest.raises(StaleEntry):
        naming.name(malloc)
    with pytest.raises(StaleEntry):
        naming.name(second.blocks[0].terminator)
    with pytest.raises(StaleEntry):
        naming.name(f"heap#{malloc.uid}")
    with pytest.raises(StaleEntry):
        naming.name(Move(Var("f.x"), Var("f.n")))

    dropped = first.blocks.pop()
    with pytest.raises(StaleEntry):
        naming.name(dropped.terminator)
    stray = Move(Var("f.x"), Var("f.n"))
    stray.parent = first.blocks[0]
    with pytest.raises(StaleEntry):
        naming.name(stray)


def test_coordinates_the_program_lacks_are_stale():
    program = compile_program([("a.c", SOURCE)])
    f = program.lookup("f")
    open_block = f.add_block("open")
    naming = CoordNaming(program)
    last = len(f.blocks) - 1
    assert naming.resolve(("f", 0, -1)) is f.blocks[0].terminator
    for coord in [
        ("nope", 0, 0),                           # an unknown function
        ("malloc", 0, 0),                         # a declaration only
        ("f", len(f.blocks), 0), ("f", -1, 0),    # blocks out of range
        ("f", 0, len(f.blocks[0].instructions)),  # an instruction out of range
        ("f", 0, -2),
        ("f", last, -1),                          # -1 on a block without a terminator
    ]:
        with pytest.raises(StaleEntry):
            naming.resolve(coord)
    assert open_block.terminator is None
    with pytest.raises(StaleEntry):
        naming.resolve("heap#nope@0.0")
    with pytest.raises(StaleEntry):
        naming.name("heap#999999999")
    assert naming.name("no root here") is None and naming.name(7) is None


def test_naming_holds_nothing_per_instruction():
    """Building the naming over linux x0.2, then naming and resolving
    one entry's instructions, retains a few hundred bytes; the walked
    index held two dict entries per instruction of the program."""
    profile = CORPUS_PROFILES_BY_NAME["linux"].scaled(0.2)
    program = compile_program(generate(profile).compiled_sources())
    entry = max(program.functions(), key=lambda func: func.instruction_count())
    insts = [inst for block in entry.blocks for inst in [*block.instructions, block.terminator]]
    assert len(insts) >= 10
    total = sum(func.instruction_count() + len(func.blocks) for func in program.functions())
    assert total > 5000
    program.lookup(entry.name)  # builds the program's own name table first

    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        naming = CoordNaming(program)
        for inst in insts:
            assert naming.resolve(naming.name(inst)) is inst
        held = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert held < 4096, held


def test_uid_lookup_is_built_only_for_heap_roots(tmp_path, monkeypatch):
    """An ``--all-checkers`` cache run over linux x0.2, cold and warm,
    asks for no instruction by uid; a race run whose outcome holds a
    ``heap#`` root does."""
    lookups = []
    real = CoordNaming._numbered

    def counted(self, uid):
        lookups.append(uid)
        return real(self, uid)

    monkeypatch.setattr(CoordNaming, "_numbered", counted)

    def run(sources, spec, cache):
        store = open_store(str(cache), "rw")
        program = compile_with_cache(sources, store)
        store.commit()
        config = AnalysisConfig(cache_dir=str(cache), cache_mode="rw")
        return PATA(config=config, checker_spec=spec).analyze(program)

    linux = list(generate(CORPUS_PROFILES_BY_NAME["linux"].scaled(0.2)).compiled_sources())
    for _ in range(2):
        result = run(linux, "all", tmp_path / "all")
    assert result.reports and result.stats.cache_misses == 0 and result.stats.cache_hits > 100
    assert lookups == []

    sources = [("race.c", HEAP_RACE)]
    cold = run(sources, "race", tmp_path / "race")
    assert any("heap#" in report.render() for report in cold.reports)
    assert lookups
    warm = run(sources, "race", tmp_path / "race")
    assert warm.stats.cache_misses == 0
    assert [r.render() for r in warm.reports] == [r.render() for r in cold.reports]
