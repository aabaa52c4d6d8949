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
