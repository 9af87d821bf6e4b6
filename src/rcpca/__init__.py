"""Consensus component analysis of multiblock data.

One monotone solver covers a family of multiblock component methods:
consensus PCA, hierarchical PCA, generalized canonical correlation
analysis, SUMCOR/MAXVAR and generalized redundancy analysis all arise from
the same criterion by choosing the exponent m and per-block shrinkage
constants. Higher-order orthogonal components come from deflation.
"""

__version__ = "0.1.0"

from . import errors
from .dataset import (
    Block,
    BlockSet,
    build_blockset,
    from_matrix,
    load_block,
)
from .deflation import DeflationStrategy, MultiSolution, deflate, extract
from .methods import (
    RELATED_FIXED_POINT_METHODS,
    MethodPreset,
    ModeGuidance,
    StationaryCheck,
    guide,
    preset,
    preset_names,
    verify_stationary,
)
from .metrics import (
    ModeSelector,
    ShrinkageMetric,
    build_metric,
    mode_tau,
)
from .solver import (
    GradientOracle,
    Solution,
    SolverConfig,
    SolverTrace,
    TransformedProblem,
    contributions,
    solve,
    solve_matrices,
    sphere_maximize,
)

__all__ = [
    "__version__",
    "errors",
    "Block",
    "BlockSet",
    "build_blockset",
    "from_matrix",
    "load_block",
    "ModeSelector",
    "ShrinkageMetric",
    "build_metric",
    "mode_tau",
    "GradientOracle",
    "Solution",
    "SolverConfig",
    "SolverTrace",
    "TransformedProblem",
    "contributions",
    "solve",
    "solve_matrices",
    "sphere_maximize",
    "MethodPreset",
    "ModeGuidance",
    "StationaryCheck",
    "RELATED_FIXED_POINT_METHODS",
    "guide",
    "preset",
    "preset_names",
    "verify_stationary",
    "DeflationStrategy",
    "MultiSolution",
    "deflate",
    "extract",
]
