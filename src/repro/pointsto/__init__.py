"""Points-to analyses: the aliasing substrate of the compared tools (§6),
the cheap whole-program tier above the per-path alias graphs (P1.7), and
the per-entry skip sets built on it (P1.8)."""

from .andersen import AndersenPointsTo, MemoryBudgetExceeded
from .flow_sensitive import FlowSensitivePointsTo
from .flow_tier import MustAliasFacts, compute_flow_facts
from .steensgaard import (
    MayAliasPartition,
    SteensgaardPointsTo,
    UnionFind,
    build_partition,
)

__all__ = [
    "AndersenPointsTo", "MemoryBudgetExceeded", "FlowSensitivePointsTo",
    "MayAliasPartition", "MustAliasFacts", "SteensgaardPointsTo", "UnionFind",
    "build_partition", "compute_flow_facts",
]
