"""Finite-state machines for typestate properties (Definition 2).

An :class:`FSM` is ⟨Σ, S, S0, δ, S_err⟩: input symbols, states, initial
state, transition function and the error (bug) state.  Checkers declare
their property as an FSM and map runtime events to input symbols; the
typestate manager owns the per-alias-set state (Definition 3: one state
per alias set, not per variable).

The three FSMs of Table 2 (NPD, UVA, ML) and the three of §5.5 are
instantiated in :mod:`repro.typestate.checkers`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, Mapping, Optional, Tuple


@dataclass(frozen=True)
class FSM:
    """An explicit typestate property.

    ``transitions`` maps (state, symbol) to the next state; missing entries
    keep the current state (the "*" self-loops in the paper's diagrams).
    """

    name: str
    states: FrozenSet[str]
    initial: str
    error: str
    alphabet: FrozenSet[str]
    transitions: Mapping[Tuple[str, str], str] = field(default_factory=dict)

    def __post_init__(self):
        for (state, symbol), target in self.transitions.items():
            if state not in self.states or target not in self.states:
                raise ValueError(f"{self.name}: transition {state}/{symbol}->{target} uses unknown state")
            if symbol not in self.alphabet:
                raise ValueError(f"{self.name}: unknown input symbol {symbol!r}")
        if self.initial not in self.states or self.error not in self.states:
            raise ValueError(f"{self.name}: initial/error state not in state set")

    def step(self, state: str, symbol: str) -> str:
        """δ(state, symbol); unspecified pairs self-loop."""
        return self.transitions.get((state, symbol), state)

    def run(self, symbols: Iterable[str], start: Optional[str] = None) -> str:
        """Fold a symbol sequence from ``start`` (default S0); useful for
        property tests and documentation examples."""
        state = start if start is not None else self.initial
        for symbol in symbols:
            state = self.step(state, symbol)
        return state


def make_fsm(name: str, initial: str, error: str, transitions: Dict[Tuple[str, str], str]) -> FSM:
    """Build an FSM inferring the state set and alphabet from transitions."""
    states = {initial, error}
    alphabet = set()
    for (state, symbol), target in transitions.items():
        states.add(state)
        states.add(target)
        alphabet.add(symbol)
    return FSM(name, frozenset(states), initial, error, frozenset(alphabet), dict(transitions))


# -- Table 2: the three primary typestate properties -------------------------

#: FSM_NPD: S0 → (ass_null | br_null) → SN → deref → SNPD.
NPD_FSM = make_fsm(
    "FSM_NPD",
    initial="S0",
    error="SNPD",
    transitions={
        ("S0", "ass_null"): "SN",
        ("S0", "br_null"): "SN",
        ("S0", "br_nonnull"): "SNON",
        ("S0", "deref"): "S0",
        ("SNON", "ass_null"): "SN",
        ("SNON", "br_null"): "SN",
        ("SN", "br_nonnull"): "SNON",
        ("SN", "deref"): "SNPD",
        ("SNPD", "br_nonnull"): "SNON",  # post-report recovery
    },
)

#: FSM_UVA: S0 → alloc → SUI → use/load → SUVA; ass_const → SI.
UVA_FSM = make_fsm(
    "FSM_UVA",
    initial="S0",
    error="SUVA",
    transitions={
        ("S0", "alloc"): "SUI",
        ("S0", "ass_const"): "SI",
        ("SUI", "ass_const"): "SI",
        ("SUI", "load"): "SUVA",
        ("SUI", "use"): "SUVA",
        ("SUVA", "ass_const"): "SI",  # post-report recovery
    },
)

#: FSM_ML: S0 → malloc → SNF → free → SF; SNF → ret → SML.
ML_FSM = make_fsm(
    "FSM_ML",
    initial="S0",
    error="SML",
    transitions={
        ("S0", "malloc"): "SNF",
        ("SNF", "free"): "SF",
        ("SNF", "ret"): "SML",
        ("SF", "malloc"): "SNF",
    },
)

# -- §5.5: the three additional properties ------------------------------------

DOUBLE_LOCK_FSM = make_fsm(
    "FSM_DL",
    initial="S0",
    error="SDL",
    transitions={
        ("S0", "lock"): "SL",
        ("S0", "unlock"): "SU",
        ("SL", "unlock"): "SU",
        ("SU", "lock"): "SL",
        ("SL", "lock"): "SDL",
        ("SU", "unlock"): "SDL",
        ("SDL", "unlock"): "SU",  # post-report recovery
        ("SDL", "lock"): "SL",
    },
)

ARRAY_UNDERFLOW_FSM = make_fsm(
    "FSM_AIU",
    initial="S0",
    error="SAIU",
    transitions={
        ("S0", "maybe_neg"): "SMN",
        ("S0", "proved_nonneg"): "SNN",
        ("SMN", "proved_nonneg"): "SNN",
        ("SNN", "maybe_neg"): "SMN",
        ("SMN", "index_use"): "SAIU",
        ("SAIU", "proved_nonneg"): "SNN",
    },
)

DIV_ZERO_FSM = make_fsm(
    "FSM_DBZ",
    initial="S0",
    error="SDBZ",
    transitions={
        ("S0", "maybe_zero"): "SMZ",
        ("S0", "proved_nonzero"): "SNZ",
        ("SMZ", "proved_nonzero"): "SNZ",
        ("SNZ", "maybe_zero"): "SMZ",
        ("SMZ", "div_use"): "SDBZ",
        ("SDBZ", "proved_nonzero"): "SNZ",
    },
)
