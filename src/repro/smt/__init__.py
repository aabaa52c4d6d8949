"""SMT-lite: the integer conjunction solver and path-constraint translator
standing in for Z3 in the path-validation stage (§3.3)."""

from .terms import App, Atom, Num, Sym, Term, eval_atom, eval_term, fold, rank_renamed
from .intervals import Interval, NEG_INF, POS_INF
from .unionfind import OffsetUnionFind
from .solver import Solution, SolveResult, Solver, solve
from .translate import PathTranslator, Translation, translate_trace, translate_trace_pair

__all__ = [
    "App", "Atom", "Num", "Sym", "Term", "eval_atom", "eval_term", "fold", "rank_renamed",
    "Interval", "NEG_INF", "POS_INF",
    "OffsetUnionFind",
    "Solution", "SolveResult", "Solver", "solve",
    "PathTranslator", "Translation", "translate_trace", "translate_trace_pair",
]
