"""The repro IR: an LLVM-flavoured register IR tailored to PATA's needs.

Public surface re-exported here; see the submodules for details:

- :mod:`repro.ir.types` — type system
- :mod:`repro.ir.values` — operands (:class:`Var`, :class:`Const`)
- :mod:`repro.ir.instructions` — instruction set and terminators
- :mod:`repro.ir.function` — blocks, functions, modules, programs
- :mod:`repro.ir.builder` — :class:`IRBuilder`
- :mod:`repro.ir.printer` / :mod:`repro.ir.verify`
"""

from .types import (
    ArrayType,
    FunctionType,
    I8,
    I64,
    INT,
    IntType,
    PointerType,
    StructType,
    Type,
    TypeTable,
    VOID,
    VOID_PTR,
    VoidType,
    pointer_to,
)
from .values import NULL, Const, SourceLoc, UNKNOWN_LOC, Value, Var, const_int, is_null_const
from .instructions import (
    AddrOf,
    Alloc,
    BinOp,
    Branch,
    Call,
    CallIndirect,
    CMP_OPS,
    DeclLocal,
    Free,
    Gep,
    Instruction,
    Jump,
    Load,
    LockOp,
    Malloc,
    MemSet,
    Move,
    Ret,
    Store,
    Terminator,
    UnOp,
    Unreachable,
)
from .function import BasicBlock, Function, InterfaceRegistration, Module, Program
from .builder import IRBuilder
from .printer import (
    canonical_function_print,
    canonical_module_environment,
    canonical_program_print,
    format_block,
    format_function,
    format_module,
)
from .verify import assert_valid, verify_function, verify_module, verify_program
from .passes import (
    fold_constants,
    optimize_function,
    optimize_module,
    optimize_program,
    remove_unreachable_blocks,
    thread_jumps,
)

__all__ = [
    "ArrayType", "FunctionType", "I8", "I64", "INT", "IntType", "PointerType",
    "StructType", "Type", "TypeTable", "VOID", "VOID_PTR", "VoidType", "pointer_to",
    "NULL", "Const", "SourceLoc", "UNKNOWN_LOC", "Value", "Var", "const_int",
    "is_null_const",
    "AddrOf", "Alloc", "BinOp", "Branch", "Call", "CallIndirect", "CMP_OPS", "DeclLocal",
    "Free", "Gep", "Instruction", "Jump", "Load", "LockOp", "Malloc", "MemSet",
    "Move", "Ret", "Store", "Terminator", "UnOp", "Unreachable",
    "BasicBlock", "Function", "InterfaceRegistration", "Module", "Program",
    "IRBuilder",
    "format_block", "format_function", "format_module",
    "canonical_function_print", "canonical_module_environment", "canonical_program_print",
    "assert_valid", "verify_function", "verify_module", "verify_program",
    "fold_constants", "optimize_function", "optimize_module",
    "optimize_program", "remove_unreachable_blocks", "thread_jumps",
]
