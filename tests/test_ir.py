"""IR construction, verification and printing tests."""

import pickle

import pytest

from repro import ir
from repro.errors import IRError


def build_simple_function():
    func = ir.Function("f", [ir.Var("f.x", ir.INT, source_name="x")], ir.INT)
    builder = ir.IRBuilder(func)
    entry = builder.new_block("entry")
    builder.position_at(entry)
    t = builder.binop("add", func.params[0], ir.const_int(1))
    builder.ret(t)
    return func


def test_builder_produces_terminated_blocks():
    func = build_simple_function()
    assert func.entry.is_terminated
    assert ir.verify_function(func) == []


def test_temps_are_function_qualified():
    func = build_simple_function()
    (inst,) = func.entry.instructions
    assert inst.dst.name.startswith("%f.")


def test_append_after_terminator_raises():
    func = build_simple_function()
    builder = ir.IRBuilder(func)
    builder.position_at(func.entry)
    with pytest.raises(IRError):
        builder.move(ir.Var("f.y", ir.INT), ir.const_int(2))


def test_verifier_flags_missing_terminator():
    func = ir.Function("g", [], ir.VOID)
    func.add_block("entry")
    problems = ir.verify_function(func)
    assert any("lacks a terminator" in p for p in problems)


def test_verifier_flags_foreign_branch_target():
    func_a = ir.Function("a", [], ir.VOID)
    func_b = ir.Function("b", [], ir.VOID)
    block_a = func_a.add_block("entry")
    block_b = func_b.add_block("entry")
    block_a.set_terminator(ir.Jump(block_b))
    problems = ir.verify_function(func_a)
    assert any("foreign block" in p for p in problems)


def test_verifier_flags_double_defined_temp():
    func = ir.Function("h", [], ir.VOID)
    block = func.add_block("entry")
    temp = ir.Var("%h.t1", ir.INT)
    block.append(ir.Move(temp, ir.const_int(1)))
    block.append(ir.Move(temp, ir.const_int(2)))
    block.set_terminator(ir.Ret())
    problems = ir.verify_function(func)
    assert any("defined more than once" in p for p in problems)


def test_source_vars_may_be_redefined():
    func = ir.Function("h", [], ir.VOID)
    block = func.add_block("entry")
    var = ir.Var("h.x", ir.INT, source_name="x")
    block.append(ir.Move(var, ir.const_int(1)))
    block.append(ir.Move(var, ir.const_int(2)))
    block.set_terminator(ir.Ret())
    assert ir.verify_function(func) == []


def test_block_names_deduplicated():
    func = ir.Function("f", [], ir.VOID)
    b1 = func.add_block("loop")
    b2 = func.add_block("loop")
    assert b1.name != b2.name


def _probing_add_block(self, name):
    """``Function.add_block`` as it was before the suffix memo: every
    call probes ``name``, ``name.2``, ``name.3``, ... from the start."""
    unique = name
    counter = 1
    while unique in self._block_names:
        counter += 1
        unique = f"{name}.{counter}"
    block = ir.BasicBlock(unique, parent=self)
    self.blocks.append(block)
    self._block_names[unique] = block
    return block


BLOCK_NAMES_SOURCE = """
int f(int a, int b) {
    int s = 0;
    if (a > 0) { if (b > 0) { s = 1; } else { s = 2; } }
    if (a > 1) { s = s + 1; } else if (a > 2) { s = s + 2; } else { s = 3; }
    while (a > 0) {
        if (b > a) { b = b - 1; }
        while (b > 0) { b = b - 2; if (b == 3) { s = s + 1; } }
        switch (a) { case 1: s = 1; break; case 2: s = 2; break; default: s = 0; }
        a = a - 1;
    }
    switch (b) {
    case 0: if (a > 5) { s = 4; } break;
    case 1: while (s > 9) { s = s - 1; } break;
    default: s = 5;
    }
    return s;
}
int g(int n) {
    while (n > 0) { if (n == 2) { n = n - 2; } n = n - 1; }
    return n;
}
"""


def test_block_names_equal_probing_from_two(monkeypatch):
    """Block names reach the fingerprints: the suffix memo must name
    every block of nested and chained if/while/switch statements as
    probing from 2 on every call did, and after a pass drops blocks."""
    from repro.lang import compile_source

    def names():
        module = compile_source(BLOCK_NAMES_SOURCE)
        func = ir.Function("h", [], ir.VOID)
        blocks = [func.add_block("a") for _ in range(4)]
        for block in blocks:
            block.set_terminator(ir.Ret())
        blocks[0].terminator = ir.Jump(blocks[2])
        ir.remove_unreachable_blocks(func)
        func.add_block("a")
        func.add_block("a")
        functions = [*module.defined_functions(), func]
        return {fn.name: [block.name for block in fn.blocks] for fn in functions}

    memo = names()
    assert "if.then.4" in memo["f"] and "while.body.3" in memo["f"]
    assert memo["h"] == ["a", "a.3", "a.2", "a.4"]
    monkeypatch.setattr(ir.Function, "add_block", _probing_add_block)
    assert names() == memo


class _CountingNames(dict):
    """A block-name table that counts membership probes."""

    probes = 0

    def __contains__(self, key):
        self.probes += 1
        return super().__contains__(key)


def test_same_named_blocks_take_linear_name_probes():
    func = ir.Function("f", [], ir.VOID)
    func._block_names = table = _CountingNames()
    for _ in range(2000):
        func.add_block("if.then")
    assert len({block.name for block in func.blocks}) == 2000
    assert table.probes < 2 * 2000  # probing from 2 each time made ~2,000,000


def test_module_duplicate_definition_rejected():
    module = ir.Module("m")

    def make_def():
        func = ir.Function("f", [], ir.VOID)
        builder = ir.IRBuilder(func)
        builder.position_at(builder.new_block("entry"))
        builder.ret()
        return func

    module.add_function(make_def())
    with pytest.raises(IRError):
        module.add_function(make_def())


def test_declaration_then_definition_ok():
    module = ir.Module("m")
    module.add_function(ir.Function("f", [], ir.VOID))  # declaration
    definition = ir.Function("f", [], ir.VOID)
    builder = ir.IRBuilder(definition)
    builder.position_at(builder.new_block("entry"))
    builder.ret()
    module.add_function(definition)
    assert not module.functions["f"].is_declaration


def test_program_lookup_across_modules():
    m1, m2 = ir.Module("a.c"), ir.Module("b.c")
    func = ir.Function("shared", [], ir.VOID)
    builder = ir.IRBuilder(func)
    builder.position_at(builder.new_block("entry"))
    builder.ret()
    m1.add_function(ir.Function("shared", [], ir.VOID))
    m2.add_function(func)
    program = ir.Program([m1, m2])
    assert program.lookup("shared") is func
    assert program.lookup("missing") is None


def test_registration_marks_interface():
    module = ir.Module("m")
    func = ir.Function("probe_fn", [], ir.INT)
    builder = ir.IRBuilder(func)
    builder.position_at(builder.new_block("entry"))
    builder.ret(ir.const_int(0))
    module.add_function(func)
    module.add_registration(ir.InterfaceRegistration("drv", None, "probe", "probe_fn"))
    assert func.is_interface


def test_struct_type_nominal_equality():
    s1 = ir.StructType("dev")
    s1.set_fields({"x": ir.INT})
    s2 = ir.StructType("dev")
    assert s1 == s2 and hash(s1) == hash(s2)
    with pytest.raises(ValueError):
        s1.set_fields({"y": ir.INT})


def test_null_const_detection():
    assert ir.is_null_const(ir.Const(0, ir.VOID_PTR))
    assert not ir.is_null_const(ir.Const(0, ir.INT))
    assert not ir.is_null_const(ir.Const(4, ir.VOID_PTR))


def test_printer_round_trips_key_syntax():
    func = build_simple_function()
    text = ir.format_function(func)
    assert "define i32 @f" in text
    assert "ret" in text


def test_binop_rejects_unknown_operator():
    with pytest.raises(ValueError):
        ir.BinOp(ir.Var("%t", ir.INT), "bogus", ir.const_int(1), ir.const_int(2))


def test_instruction_uids_unique():
    a = ir.Move(ir.Var("x", ir.INT), ir.const_int(1))
    b = ir.Move(ir.Var("x", ir.INT), ir.const_int(1))
    assert a.uid != b.uid



def _chained_ifs(count):
    """One function whose CFG chains ``count`` ``if`` statements."""
    body = "".join(f"    if (x > {i}) {{ x = x + 1; }}\n" for i in range(count))
    return f"int f(int x) {{\n{body}    return x;\n}}\n"


def _round_trip(obj):
    return pickle.loads(pickle.dumps(obj, pickle.HIGHEST_PROTOCOL))


def test_function_pickle_depth_does_not_grow_with_its_cfg():
    """A function pickles its blocks' terminators after all of its
    blocks, so 1,000 chained ``if`` statements (400 overflowed the
    pickler's stack before) pickle, and the round trip keeps the
    function's canonical print and every parent link."""
    from repro.lang import compile_source

    func = compile_source(_chained_ifs(1000), "deep.c").functions["f"]
    copy = _round_trip(func)
    assert ir.canonical_function_print(copy) == ir.canonical_function_print(func)
    blocks = set(map(id, copy.blocks))
    for block in copy.blocks:
        assert block.parent is copy
        assert all(inst.parent is block for inst in block.instructions)
        assert block.terminator.parent is block
        assert all(id(succ) in blocks for succ in block.successors())


def test_block_pickled_without_a_function_keeps_its_terminator():
    block = ir.BasicBlock("lone")
    block.set_terminator(ir.Ret(ir.const_int(0)))
    copy = _round_trip(block)
    assert isinstance(copy.terminator, ir.Ret)
    assert copy.terminator.parent is copy


def test_exact_type_handler_tables_cover_every_instruction_class():
    """P2, P1.5 and P1.7 dispatch on ``inst.__class__`` with no
    isinstance fallback, so each table must hold every instruction class
    the IR defines — a new class fails here, not mid-analysis.  The
    explorer handles ``Call`` before its table."""
    from repro.core.analyzer import _EXEC_DISPATCH
    from repro.ir import instructions
    from repro.pointsto.steensgaard import _GEN_DISPATCH
    from repro.presolve.scan import _SCAN_DISPATCH

    classes = {
        obj for obj in vars(instructions).values()
        if isinstance(obj, type) and issubclass(obj, ir.Instruction)
        and obj is not ir.Instruction
    }
    assert len(classes) == 15
    assert set(_SCAN_DISPATCH) == classes
    assert set(_GEN_DISPATCH) == classes
    assert set(_EXEC_DISPATCH) == classes - {ir.Call}


# -- the lean value layer ----------------------------------------------------------


_PROFILE_NAMES = ["linux", "zephyr", "riot", "tencentos", "taintlab", "racelab", "firmlab"]


def _profile_modules(name):
    """``(filename, module)`` for each compiled file of one corpus profile."""
    from repro.corpus import CORPUS_PROFILES_BY_NAME, generate
    from repro.lang import compile_source

    profile = CORPUS_PROFILES_BY_NAME[name].scaled(3.0 if name.endswith("lab") else 0.3)
    return [(path, compile_source(text, path)) for path, text in generate(profile).compiled_sources()]


def _reachable(root):
    """Every object reachable from ``root`` (classes excluded), once."""
    import gc

    seen, stack = {}, [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, type):
            continue
        seen[id(obj)] = obj
        stack.extend(gc.get_referents(obj))
    return list(seen.values())


def _located(module):
    """Each instruction and terminator's uid and location, in order."""
    return [(inst.uid, inst.loc.filename, inst.loc.line)
            for func in module.functions.values() for block in func.blocks
            for inst in [*block.instructions, *filter(None, [block.terminator])]]


def _assert_lean(module):
    """The module's integer and void types are the process's instances,
    and it holds one pointer type per distinct pointee and one source
    location per (file, line)."""
    pointers, locs = {}, {}
    for obj in _reachable(module):
        if obj.__class__ is ir.IntType:
            assert obj is ir.IntType(obj.width)
        elif obj.__class__ is ir.VoidType:
            assert obj is ir.VOID
        elif obj.__class__ is ir.PointerType:
            pointers.setdefault(obj.pointee, set()).add(id(obj))
        elif obj.__class__ is ir.SourceLoc:
            locs.setdefault((obj.filename, obj.line), set()).add(id(obj))
    assert pointers and locs
    assert all(len(ids) == 1 for ids in pointers.values())
    assert all(len(ids) == 1 for ids in locs.values())


@pytest.mark.parametrize("name", _PROFILE_NAMES)
def test_pickled_modules_print_identical_ir(name):
    """Every module of every corpus profile survives the cache's pickle
    round trip: identical printed IR, uids, locations and function
    fingerprints, with the interned and per-unit types shared as they
    were when compiled."""
    from repro.incremental.fingerprint import module_fingerprints
    from repro.incremental.store import dumps

    for path, module in _profile_modules(name):
        _assert_lean(module)
        loaded = pickle.loads(dumps(module))
        assert ir.format_module(loaded) == ir.format_module(module), path
        assert ir.canonical_module_environment(loaded) == ir.canonical_module_environment(module)
        assert _located(loaded) == _located(module)
        assert module_fingerprints(loaded) == module_fingerprints(module)
        _assert_lean(loaded)


def test_interned_types_survive_copy_and_pickle():
    import copy

    for ty in (ir.VOID, ir.INT, ir.I8, ir.I64):
        assert _round_trip(ty) is ty
        assert copy.copy(ty) is ty and copy.deepcopy(ty) is ty
    assert ir.IntType(32) is ir.INT and ir.IntType() is ir.INT and ir.VoidType() is ir.VOID
    assert ir.Var("v").type is ir.INT and ir.Const(1).type is ir.INT


def test_derived_types_are_immutable_and_structural():
    struct = ir.StructType("s")
    pointer = ir.PointerType(struct)
    for ty, field in ((pointer, "pointee"), (ir.ArrayType(ir.INT, 4), "length"),
                      (ir.FunctionType(ir.INT, (pointer,)), "variadic"), (ir.INT, "width")):
        with pytest.raises(AttributeError):
            setattr(ty, field, None)
        assert not hasattr(ty, "__dict__")
    assert pointer == ir.PointerType(ir.StructType("s"))
    assert hash(pointer) == hash(ir.PointerType(ir.StructType("s")))
    assert pointer != ir.PointerType(ir.StructType("t")) and pointer != (struct,)
    assert repr(ir.ArrayType()) == "ArrayType(element=IntType(width=32), length=0)"
    assert repr(ir.FunctionType()) == "FunctionType(return_type=VoidType(), param_types=(), variadic=False)"


def test_type_table_builds_each_derived_type_once():
    table = ir.TypeTable()
    struct = ir.StructType("s")
    assert table.pointer(struct) is table.pointer(struct)
    assert table.pointer(None) is ir.VOID_PTR
    assert table.array(ir.INT, 4) is table.array(ir.INT, 4)
    assert table.function(ir.INT, (ir.INT,)) is table.function(ir.INT, (ir.INT,))
    # Another unit's table builds its own: structs are nominal per module.
    assert ir.TypeTable().pointer(struct) is not table.pointer(struct)


_VALUES = [
    (ir.Var, ("x",), ("x", ir.INT, None, False, False),
     "Var(name='x', type=IntType(width=32), source_name=None, is_global=False, is_aggregate=False)"),
    (ir.Var, ("@g", ir.VOID_PTR, "g", True, True), ("@g", ir.VOID_PTR, "g", True, True),
     "Var(name='@g', type=PointerType(pointee=None), source_name='g', is_global=True, is_aggregate=True)"),
    (ir.Const, (0, ir.VOID_PTR), (0, ir.VOID_PTR), "Const(value=0, type=PointerType(pointee=None))"),
    (ir.Const, (7,), (7, ir.INT), "Const(value=7, type=IntType(width=32))"),
    (ir.SourceLoc, ("a.c", 3), ("a.c", 3), "SourceLoc(filename='a.c', line=3)"),
    (ir.SourceLoc, (), ("<ir>", 0), "SourceLoc(filename='<ir>', line=0)"),
]


@pytest.mark.parametrize("cls, args, fields, text", _VALUES, ids=lambda v: getattr(v, "__name__", None))
def test_values_keep_dataclass_semantics(cls, args, fields, text):
    """Equal only to the same class with equal fields (never to a
    tuple of the fields or another value class), hashed as the frozen
    dataclass hashed its field tuple, with the dataclass ``repr``; a
    pickle round trip is equal, and nothing holds a ``__dict__``."""
    value = cls(*args)
    twin = cls(*fields)
    assert value == twin and not value != twin and hash(value) == hash(twin) == hash(fields)
    assert repr(value) == text
    assert value != fields and fields != value
    for other in (ir.Var("x"), ir.Const(0, ir.VOID_PTR), ir.Const(7), ir.SourceLoc("a.c", 3)):
        if other.__class__ is not cls:
            assert value != other and other != value
    assert value != cls(*fields[:-1], "other")
    assert _round_trip(value) == value and not hasattr(value, "__dict__")


def test_nothing_reassigns_an_ir_value(monkeypatch):
    """Values are immutable by contract: with assign-once slots, a
    whole compile, cache round trip and analysis of a corpus profile
    with every checker (taint, race and cross-module taint included)
    runs through."""
    from repro.core import PATA
    from repro.incremental.store import dumps

    def assign_once(obj, name, value):
        if hasattr(obj, name):
            raise AttributeError(f"{type(obj).__name__}.{name} reassigned")
        object.__setattr__(obj, name, value)

    for cls in (ir.Var, ir.Const, ir.SourceLoc):
        monkeypatch.setattr(cls, "__setattr__", assign_once)
    modules = [pickle.loads(dumps(module)) for _, module in _profile_modules("firmlab")]
    program = ir.Program()
    for module in modules:
        program.add_module(module)
    result = PATA(checker_spec="all,taint,race,xtaint").analyze(program)
    assert result.reports
