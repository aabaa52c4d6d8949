"""Synthetic OS corpora with exact ground truth (the Table 4 workloads)."""

from .spec import (
    BaitRegion,
    GeneratedFile,
    GeneratedOS,
    GroundTruthBug,
    OSProfile,
    Requirement,
)
from .generator import generate
from .oses import (
    ALL_PROFILES,
    CORPUS_PROFILES_BY_NAME,
    FIRMLAB,
    LINUX,
    PROFILES_BY_NAME,
    RACELAB,
    RIOT,
    TAINTLAB,
    TENCENTOS,
    ZEPHYR,
)
from .metrics import (
    CONFIRM_PERCENT,
    MatchResult,
    is_confirmed,
    match_findings,
    reachable_truth,
)

__all__ = [
    "BaitRegion", "GeneratedFile", "GeneratedOS", "GroundTruthBug",
    "OSProfile", "Requirement", "generate",
    "ALL_PROFILES", "CORPUS_PROFILES_BY_NAME", "FIRMLAB", "LINUX", "PROFILES_BY_NAME", "RACELAB", "RIOT", "TAINTLAB", "TENCENTOS", "ZEPHYR",
    "CONFIRM_PERCENT", "MatchResult", "is_confirmed", "match_findings",
    "reachable_truth",
]
