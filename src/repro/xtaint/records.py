"""Flow records of the cross-module taint pass — the P2.6 input.

A :class:`TaintFlow` is one observation made on one explored path: taint
*leaving* an entry through shared state (an ``export``), shared state
*reaching* a sink inside an entry (an ``import``), or shared state being
copied to other shared state (a ``relay``).  The shared-state naming is
the race detector's canonical ``(root, field)`` key universe
(:mod:`repro.races.shared`): however many local aliases sit between a
taint source and the global it lands in, the alias graph collapses them
and only the root name must agree across modules.

Flows ride the engine's existing access channel — the same ``record``
hook, ``shared_accesses`` list, ``EntryOutcome`` field and entry-order
merge that carries :class:`~repro.races.shared.SharedAccess` — so
workers, the incremental cache and the deterministic merge all handle
them with no new plumbing: the codec that carries an outcome across a
process or run boundary (:mod:`repro.incremental.coords`) names every
instruction and ``heap#`` root a flow holds, whatever its field.  ``dedup_key`` is
namespaced with a literal ``"xflow"`` head so it can never collide with
a ``SharedAccess`` key inside the shared seen-set.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from ..ir import Instruction
from ..races.shared import AccessKey

#: flow directions (``direction`` field values)
EXPORT = "export"
IMPORT = "import"
RELAY = "relay"


@dataclass
class TaintFlow:
    """One cross-module taint observation on one explored path.

    Everything here must pickle (instructions and traces already do);
    flows ship from workers and through the cache inside
    ``EntryOutcome.accesses``.
    """

    #: canonical shared key the taint crossed (for relays: the *from* key)
    key: AccessKey
    #: ``export`` / ``import`` / ``relay``
    direction: str
    #: the crossing instruction: the store (export/relay) or the sink (import)
    inst: Instruction
    #: analysis entry the observation was made under
    entry: str
    #: provenance: the taint-source instruction (export) or the load that
    #: imported the shared value (import); None for border-anchored flows
    #: whose anchor is ``inst`` itself.
    source: Optional[Instruction] = None
    #: relay target key (``relay`` only)
    dst_key: Optional[AccessKey] = None
    #: display name of the flowing variable
    subject: str = ""
    #: sink message template result (``import`` only)
    message: str = ""
    #: the sink's out-of-range atom ("op", var_name, const) — stage 2
    #: must prove it satisfiable under the joined pair constraints.
    extra_requirement: Optional[Tuple[str, str, int]] = None
    #: True when the taint originated from border-source inference
    #: (an interface parameter with no extern caller) rather than a
    #: concrete source call.
    border: bool = False
    #: engine path snapshot at the observation — replayable by stage 2
    trace: Tuple = ()

    @property
    def is_write(self) -> bool:
        """Informational only — flows never enter the race matcher."""
        return self.direction != IMPORT

    @property
    def dedup_key(self) -> Tuple:
        """Flows are repeats when the same instruction moves the same
        key in the same direction from the same entry (loop bodies, path
        re-merges); the first path snapshot stands in for all of them —
        the same contract as bug and access dedup."""
        return (
            "xflow", self.direction, self.entry, self.key, self.dst_key,
            self.inst.uid,
            self.source.uid if self.source is not None else -1,
            self.extra_requirement, self.border,
        )

    @property
    def module(self) -> str:
        """The module (source file) the observation was made in — the
        boundary the P2.6 matcher requires flows to cross."""
        return self.inst.loc.filename
