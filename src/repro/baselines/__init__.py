"""Re-implementations of the seven compared tools' analysis regimes (§6)
plus the PATA-NA ablation (§5.4)."""

from .base import BaselineTool, ToolFinding, ToolResult
from .cppcheck_like import CppcheckLike
from .coccinelle_like import CoccinelleLike
from .smatch_like import SmatchLike
from .csa_like import CSALike
from .infer_like import InferLike
from .saber_like import DEFAULT_PTS_BUDGET, SaberLike
from .svf_null import SVFNull
from .pata_na import PataNA
from .taint_naive import TaintNaive
from .eraser_like import EraserLike

__all__ = [
    "BaselineTool", "ToolFinding", "ToolResult",
    "CppcheckLike", "CoccinelleLike", "SmatchLike", "CSALike", "InferLike",
    "SaberLike", "SVFNull", "PataNA", "TaintNaive", "EraserLike",
    "DEFAULT_PTS_BUDGET",
]


def all_baselines():
    """The seven compared tools in Table 8's column order.  ``TaintNaive``
    and ``EraserLike`` are deliberately excluded: they are the contrast
    for the taint and race checkers (``tests/test_taint.py``,
    ``tests/test_races.py``), not the paper's comparison."""
    return [
        CppcheckLike(),
        CoccinelleLike(),
        SmatchLike(),
        CSALike(),
        InferLike(),
        SaberLike(),
        SVFNull(),
    ]
