"""The shipped typestate checkers.

``default_checkers()`` returns the paper's three primary checkers (§5.1);
``all_checkers()`` adds the three of the generality study (§5.5).  Checker
*sets* are named by comma-separated specs (``"npd,ml,taint"``) resolved by
:func:`checkers_from_spec`; ``"default"`` and ``"all"`` are aliases for
the two historical sets.
"""

from typing import Callable, List, Optional

from ..manager import Checker
from .npd import NullDereferenceChecker
from .uva import UninitializedAccessChecker
from .ml import MemoryLeakChecker
from .locks import DoubleLockChecker
from .underflow import ArrayUnderflowChecker
from .divzero import DivByZeroChecker
from .api_pairs import DEFAULT_ACQUIRE_APIS, DEFAULT_RELEASE_APIS, PairedAPIChecker

__all__ = [
    "NullDereferenceChecker",
    "UninitializedAccessChecker",
    "MemoryLeakChecker",
    "DoubleLockChecker",
    "ArrayUnderflowChecker",
    "DivByZeroChecker",
    "PairedAPIChecker", "DEFAULT_ACQUIRE_APIS", "DEFAULT_RELEASE_APIS",
    "default_checkers",
    "all_checkers",
    "CHECKER_ALIASES",
    "CHECKER_NAMES",
    "CHECKER_SPECS",
    "checkers_from_spec",
    "configure_checkers",
    "registered_checkers",
]


def default_checkers() -> List[Checker]:
    """The paper's three primary checkers: NPD, UVA, ML (§5.1)."""
    return [NullDereferenceChecker(), UninitializedAccessChecker(), MemoryLeakChecker()]


def all_checkers(
    may_return_negative: Optional[Callable[[str], bool]] = None,
    may_return_zero: Optional[Callable[[str], bool]] = None,
) -> List[Checker]:
    """The six original checkers (§5.1 + §5.5); the two callables feed the
    collector's may-return facts to the underflow/div-zero checkers."""
    return default_checkers() + [
        DoubleLockChecker(),
        ArrayUnderflowChecker(may_return_negative),
        DivByZeroChecker(may_return_zero),
    ]


def _make_taint_checker(collector):
    # Imported lazily: repro.taint depends on repro.typestate submodules,
    # and this package is itself imported while repro.typestate initializes.
    from ...taint import TaintChecker

    return TaintChecker()


def _make_race_checker(collector):
    # Lazy for the same reason as taint.  The collector feeds the VFG
    # escape facts that define the shared heap universe; without one
    # (spec validation, --list-checkers) the checker sees only globals.
    from ...races import RaceChecker

    return RaceChecker(
        shared_sites=collector.shared_heap_sites() if collector else frozenset()
    )


def _make_xtaint_checker(collector):
    # Lazy like taint/race.  The collector feeds the shared heap
    # universe and the border set (interface functions without any
    # extern caller); without one (spec validation, --list-checkers)
    # the checker sees only globals and an empty border.
    from ...xtaint import CrossModuleTaintChecker, border_entries_of

    if collector is None:
        return CrossModuleTaintChecker()
    return CrossModuleTaintChecker(
        shared_sites=collector.shared_heap_sites(),
        border_entries=border_entries_of(collector.program, collector.callgraph),
    )


def configure_checkers(checkers: List[Checker], config) -> List[Checker]:
    """Apply run-configuration knobs to freshly built checkers, once per
    analysis (forked workers inherit the configured objects).  Currently
    one knob: border-source inference (``config.taint_borders``), which
    also widens the armed trigger mask — a border entry carries taint
    *at path start* with no trigger event in its region, so any
    sink-bearing region must stay armed for entry pruning to remain
    report-preserving."""
    borders = bool(getattr(config, "taint_borders", False))
    for checker in checkers:
        if hasattr(checker, "taint_borders"):
            checker.taint_borders = borders
            if borders:
                checker.trigger_events = (
                    checker.trigger_events | checker.sink_events
                )
    return checkers


#: individual checker factories, keyed by the checker's ``name`` attribute;
#: each takes the information collector (or None) and returns a fresh
#: instance.
_CHECKER_FACTORIES = {
    "npd": lambda collector: NullDereferenceChecker(),
    "uva": lambda collector: UninitializedAccessChecker(),
    "ml": lambda collector: MemoryLeakChecker(),
    "dl": lambda collector: DoubleLockChecker(),
    "aiu": lambda collector: ArrayUnderflowChecker(
        collector.may_return_negative if collector else None
    ),
    "dbz": lambda collector: DivByZeroChecker(
        collector.may_return_zero if collector else None
    ),
    "taint": _make_taint_checker,
    "race": _make_race_checker,
    "xtaint": _make_xtaint_checker,
}

#: every individually addressable checker name, in canonical order
CHECKER_NAMES = tuple(_CHECKER_FACTORIES)

#: named shorthands for common sets (kept for CLI back-compat).
#: ``race``, ``taint`` and ``xtaint`` stay opt-in: they are not part of
#: the paper's historical six, and their matching phases (P2.5 / P2.6)
#: have cost even on code without the respective bug class.
CHECKER_ALIASES = {
    "default": "npd,uva,ml",
    "all": "npd,uva,ml,dl,aiu,dbz",
}

#: everything :func:`checkers_from_spec` accepts as a single token
CHECKER_SPECS = CHECKER_NAMES + tuple(CHECKER_ALIASES)


def _expand_spec(spec: str) -> List[str]:
    """Comma-split ``spec``, expand aliases, dedup preserving first
    occurrence.  Raises ValueError on unknown names."""
    names: List[str] = []
    for token in spec.split(","):
        token = token.strip()
        if not token:
            continue
        expanded = CHECKER_ALIASES.get(token, token).split(",")
        for name in expanded:
            if name not in _CHECKER_FACTORIES:
                raise ValueError(
                    f"unknown checker {name!r} in spec {spec!r} "
                    f"(valid names: {', '.join(CHECKER_SPECS)})"
                )
            if name not in names:
                names.append(name)
    if not names:
        raise ValueError(
            f"empty checker spec {spec!r} (valid names: {', '.join(CHECKER_SPECS)})"
        )
    return names


def checkers_from_spec(spec: str, collector=None) -> List[Checker]:
    """Build a checker set from a spec string.

    A spec is a comma-separated list of checker names and/or aliases —
    ``"default"``, ``"all"``, ``"npd,ml,taint"``, ``"default,taint"`` —
    deduplicated in first-occurrence order.  The spec string, not the
    objects, is what keys the incremental cache.

    ``collector`` (an :class:`~repro.core.InformationCollector`) supplies
    the may-return facts the underflow/div-zero checkers need; sets that
    exclude them ignore it.
    """
    return [_CHECKER_FACTORIES[name](collector) for name in _expand_spec(spec)]


def registered_checkers(collector=None) -> List[Checker]:
    """One fresh instance of every registered checker, in canonical
    order — the ``--list-checkers`` inventory."""
    return [factory(collector) for factory in _CHECKER_FACTORIES.values()]
