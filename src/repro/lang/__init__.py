"""Mini-C frontend: lexer, parser, AST and lowering to the repro IR.

The one-call entry point is :func:`compile_source`; multi-file programs go
through :func:`compile_program`.
"""

from typing import Iterable, Tuple

from ..ir import Module, Program
from .lexer import Token, tokenize
from .parser import Parser, parse
from .lower import ALLOCATORS, DEALLOCATORS, LOCK_APIS, compile_source, lower_unit
from .sema import Diagnostic, SemaChecker, check_source

__all__ = [
    "Token", "tokenize", "Parser", "parse",
    "ALLOCATORS", "DEALLOCATORS", "LOCK_APIS",
    "compile_source", "lower_unit", "compile_program",
    "Diagnostic", "SemaChecker", "check_source",
]


def compile_program(sources: Iterable[Tuple[str, str]]) -> Program:
    """Compile ``(filename, source)`` pairs into a linked :class:`Program`.

    Uids are renumbered deterministically (1..N in program order) so two
    compiles of the same sources — in one process or across processes —
    produce byte-identical analysis output (uids reach report text via
    ``heap#<uid>`` shared-state roots; see
    :func:`repro.incremental.coords.renumber_program`)."""
    from ..incremental.coords import renumber_program

    program = Program()
    for filename, source in sources:
        program.add_module(compile_source(source, filename))
    renumber_program(program)
    return program
