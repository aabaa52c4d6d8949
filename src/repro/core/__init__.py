"""The PATA pipeline (Fig. 10): collector, analyzer, filter, facade."""

from .config import AnalysisConfig
from .collector import FunctionInfo, InformationCollector
from .analyzer import PathExplorer
from .filter import BugFilter, FilterResult, FilterStats
from .report import AnalysisResult, AnalysisStats, BugReport, EntryStats
from .pata import PATA

__all__ = [
    "AnalysisConfig", "FunctionInfo", "InformationCollector", "PathExplorer",
    "BugFilter", "FilterResult", "FilterStats",
    "AnalysisResult", "AnalysisStats", "BugReport", "EntryStats",
    "PATA",
]
