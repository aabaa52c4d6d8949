"""Terms and atoms of the SMT-lite constraint language.

The path validator (§3.3) only ever produces *conjunctions* of atoms over
integer terms — exactly the fragment of Table 3: constants, variables
(symbols), unary/binary arithmetic, and relational atoms.  This module
defines that language; :mod:`repro.smt.solver` decides it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, Optional, Sequence, Tuple

REL_OPS = ("eq", "ne", "lt", "le", "gt", "ge")
NEGATED_REL = {"eq": "ne", "ne": "eq", "lt": "ge", "ge": "lt", "le": "gt", "gt": "le"}
SWAPPED_REL = {"eq": "eq", "ne": "ne", "lt": "gt", "gt": "lt", "le": "ge", "ge": "le"}


class Term:
    """Base class of SMT-lite terms."""

    def free_symbols(self) -> Iterator[int]:
        return iter(())


@dataclass(frozen=True)
class Num(Term):
    value: int

    def __str__(self) -> str:
        return str(self.value)


@dataclass(frozen=True)
class Sym(Term):
    """A solver symbol.  The translator allocates one per *alias set*
    (Definition 4) — this is the aliasing saving of §3.3."""

    sid: int
    hint: str = ""

    def free_symbols(self) -> Iterator[int]:
        yield self.sid

    def __str__(self) -> str:
        return self.hint or f"x{self.sid}"


@dataclass(frozen=True)
class App(Term):
    """op(args...); op is an arithmetic/bit operator or 'neg'/'not'."""

    op: str
    args: Tuple[Term, ...]

    def free_symbols(self) -> Iterator[int]:
        for arg in self.args:
            yield from arg.free_symbols()

    def __str__(self) -> str:
        if len(self.args) == 1:
            return f"{self.op}({self.args[0]})"
        return f"({self.args[0]} {self.op} {self.args[1]})"


@dataclass(frozen=True)
class Atom:
    """A relational constraint ``lhs op rhs``."""

    op: str
    lhs: Term
    rhs: Term

    def __post_init__(self):
        if self.op not in REL_OPS:
            raise ValueError(f"unknown relational operator {self.op!r}")

    def negated(self) -> "Atom":
        return Atom(NEGATED_REL[self.op], self.lhs, self.rhs)

    def free_symbols(self) -> Iterator[int]:
        yield from self.lhs.free_symbols()
        yield from self.rhs.free_symbols()

    def __str__(self) -> str:
        symbol = {"eq": "==", "ne": "!=", "lt": "<", "le": "<=", "gt": ">", "ge": ">="}[self.op]
        return f"{self.lhs} {symbol} {self.rhs}"


def _trunc_div(a: int, b: int) -> int:
    """C-style truncating division."""
    q = abs(a) // abs(b)
    return q if (a >= 0) == (b >= 0) else -q


def eval_term(term: Term, env: Dict[int, int]) -> Optional[int]:
    """Evaluate under an assignment; None on division by zero or an unbound
    symbol."""
    if isinstance(term, Num):
        return term.value
    if isinstance(term, Sym):
        return env.get(term.sid)
    if isinstance(term, App):
        values = []
        for arg in term.args:
            value = eval_term(arg, env)
            if value is None:
                return None
            values.append(value)
        return _apply_op(term.op, values)
    raise TypeError(f"not a term: {term!r}")


def _apply_op(op: str, values) -> Optional[int]:
    if op == "neg":
        return -values[0]
    if op == "not":
        return ~values[0]
    a, b = values
    if op == "add":
        return a + b
    if op == "sub":
        return a - b
    if op == "mul":
        return a * b
    if op == "div":
        return None if b == 0 else _trunc_div(a, b)
    if op == "mod":
        return None if b == 0 else a - _trunc_div(a, b) * b
    if op == "and":
        return a & b
    if op == "or":
        return a | b
    if op == "xor":
        return a ^ b
    if op == "shl":
        return a << (b & 63) if b >= 0 else None
    if op == "shr":
        return a >> (b & 63) if b >= 0 else None
    if op in ("eq", "ne", "lt", "le", "gt", "ge"):
        return int(eval_rel(op, a, b))
    raise ValueError(f"unknown operator {op!r}")


def eval_rel(op: str, a: int, b: int) -> bool:
    """Evaluate a relational operator on two ints."""
    if op == "eq":
        return a == b
    if op == "ne":
        return a != b
    if op == "lt":
        return a < b
    if op == "le":
        return a <= b
    if op == "gt":
        return a > b
    if op == "ge":
        return a >= b
    raise ValueError(f"unknown relational operator {op!r}")


def eval_atom(atom: Atom, env: Dict[int, int]) -> Optional[bool]:
    """Evaluate an atom under an assignment; None when undefined."""
    lhs = eval_term(atom.lhs, env)
    rhs = eval_term(atom.rhs, env)
    if lhs is None or rhs is None:
        return None
    return eval_rel(atom.op, lhs, rhs)


def fold(term: Term) -> Term:
    """Constant-fold a term bottom-up."""
    if isinstance(term, App):
        args = tuple(fold(a) for a in term.args)
        if all(isinstance(a, Num) for a in args):
            value = _apply_op(term.op, [a.value for a in args])
            if value is not None:
                return Num(value)
        return App(term.op, args)
    return term


def rank_renamed(atoms: Sequence[Atom]) -> Tuple[Atom, ...]:
    """``atoms`` with every symbol renamed to the rank of its first
    occurrence, hints dropped.  Two systems that differ only in how
    their symbols are numbered rename to equal tuples, which makes the
    result a key for anything that depends on the system alone."""
    ranks: Dict[int, int] = {}

    def rename(term: Term) -> Term:
        if isinstance(term, Sym):
            rank = ranks.get(term.sid)
            if rank is None:
                rank = ranks[term.sid] = len(ranks)
            return Sym(rank)
        if isinstance(term, App):
            return App(term.op, tuple(rename(arg) for arg in term.args))
        return term

    return tuple(Atom(atom.op, rename(atom.lhs), rename(atom.rhs)) for atom in atoms)
