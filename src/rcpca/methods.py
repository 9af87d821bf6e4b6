"""Named method presets and mode-selection guidance.

Published multiblock component methods correspond to fixed choices of the
exponent m and the per-block shrinkage constants. Each preset carries those
values, its original citation and, where one exists, a published stationary
equation for the superblock component that `verify_stationary` evaluates
directly on raw data matrices (independently of the solver's metric
machinery, so the two routes cross-check each other).

The catalog is immutable static data; every operation here is pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .dataset import BlockSet
from .errors import CatalogError, SingularGradientError, UnsupportedVerificationError
from .metrics import ModeSelector
from .solver import Solution

_MODE_LABEL = {1.0: "A", 0.0: "B"}


@dataclass(frozen=True)
class MethodPreset:
    """One catalog entry: (m, taus) plus provenance.

    m is None for families that leave the exponent to the user, and
    tau_blocks is None for mixed presets where the first `split` blocks are
    Mode B and the rest Mode A.
    """

    name: str
    m: float | None
    tau_blocks: float | None
    tau_superblock: float
    citation: str
    grid_row: int | None = None
    split: int | None = None
    notes: str = ""

    def selector(self, n_blocks: int) -> ModeSelector:
        if self.m is None:
            raise CatalogError(
                f"preset {self.name!r} leaves the exponent free; materialize it "
                "with preset(name, m=...)"
            )
        if self.tau_blocks is None:
            if self.split is None:
                raise CatalogError(
                    f"preset {self.name!r} needs a split: preset(name, split=...)"
                )
            if not 1 <= self.split <= n_blocks:
                raise CatalogError(
                    f"split must lie in 1..{n_blocks}, got {self.split}"
                )
            taus = tuple(0.0 if b < self.split else 1.0 for b in range(n_blocks))
            return ModeSelector(taus, self.tau_superblock)
        return ModeSelector((self.tau_blocks,) * n_blocks, self.tau_superblock)


_CATALOG: dict[str, MethodPreset] = {}


def _register(entry: MethodPreset):
    _CATALOG[entry.name] = entry


_register(MethodPreset(
    "consensus_pca", 2.0, 1.0, 1.0,
    "Westerhuis, Kourti & MacGregor (1998)", grid_row=5,
    notes="the superblock component is the first principal component of the "
          "superblock; blocks enter unweighted. Multiple factor analysis is the "
          "same configuration with a per-block rescaling convention (apply it "
          "as preprocessing)",
))
_register(MethodPreset(
    "gcca_carroll", 2.0, 0.0, 0.0,
    "Carroll (1968a)", grid_row=8,
    notes="generalized canonical correlation analysis",
))
_register(MethodPreset(
    "maxvar", 2.0, 0.0, 0.0,
    "Horst (1961b, 1965)", grid_row=8,
    notes="same configuration as gcca_carroll",
))
_register(MethodPreset(
    "hierarchical_pca", 4.0, 1.0, 0.0,
    "Smilde, Westerhuis & de Jong (2003)", grid_row=10,
))
_register(MethodPreset(
    "sumcor", 1.0, 0.0, 0.0,
    "Horst (1961a,b, 1965)", grid_row=4,
    notes="maximizes the sum of all pairwise component correlations",
))
_register(MethodPreset(
    "redundancy_blocks", None, 1.0, 0.0,
    "Van den Wollenberg (1977), generalized",
    notes="block components explain their own blocks and track the superblock; "
          "pick the exponent m",
))
_register(MethodPreset(
    "redundancy_superblock", None, 0.0, 1.0,
    "Van den Wollenberg (1977), generalized",
    notes="the superblock component explains the superblock and tracks the "
          "blocks; pick the exponent m",
))
_register(MethodPreset(
    "mixed_carroll", 2.0, None, 0.0,
    "Carroll (1968b)",
    notes="correlation criterion for the first `split` blocks, covariance for the rest",
))

# the ten (m, block mode, superblock mode) grid entries
for row, (m_val, bmode, smode) in enumerate(
    [
        (1.0, "A", "A"), (1.0, "A", "B"), (1.0, "B", "A"), (1.0, "B", "B"),
        (2.0, "A", "A"), (2.0, "A", "B"), (2.0, "B", "A"), (2.0, "B", "B"),
        (4.0, "A", "A"), (4.0, "A", "B"),
    ],
    start=1,
):
    name = f"m{m_val:g}_{bmode.lower()}{smode.lower()}"
    _register(MethodPreset(
        name, m_val, 1.0 if bmode == "A" else 0.0, 1.0 if smode == "A" else 0.0,
        "method grid", grid_row=row,
        notes=f"exponent {m_val:g}, Mode {bmode} blocks, Mode {smode} superblock",
    ))


def preset_names() -> list[str]:
    return sorted(_CATALOG)


def preset(name: str, *, m: float | None = None, split: int | None = None) -> MethodPreset:
    """Fetch a preset, materializing free parameters where the entry has them."""
    try:
        entry = _CATALOG[name]
    except KeyError:
        raise CatalogError(
            f"unknown preset {name!r}; available: {', '.join(preset_names())}"
        ) from None
    if m is not None:
        if entry.m is not None:
            raise CatalogError(f"preset {name!r} fixes m = {entry.m:g}; do not pass m")
        if not (m >= 1.0 and math.isfinite(m)):
            raise CatalogError(f"exponent m must be finite and >= 1, got {m}")
        entry = replace(entry, m=float(m))
    if split is not None:
        if entry.tau_blocks is not None:
            raise CatalogError(f"preset {name!r} takes no split")
        entry = replace(entry, split=int(split))
    return entry


# ---------------------------------------------------------------------------
# stationary-equation verification on raw matrices


@dataclass(frozen=True)
class StationaryCheck:
    preset: str
    residual: float
    block_mode: str
    superblock_mode: str


def _column_space_image(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    # X (X'X)^+ X' y via least squares; invariant to the generalized inverse
    coef, *_ = np.linalg.lstsq(x, y, rcond=None)
    return x @ coef


def _raw_stationary_image(
    y: np.ndarray,
    blockset: BlockSet,
    m: float,
    block_mode: str,
    superblock_mode: str,
    split: int | None = None,
) -> np.ndarray:
    n = blockset.n
    z = np.zeros(n)
    for b, block in enumerate(blockset.blocks):
        x = block.matrix
        mode = block_mode if split is None else ("B" if b < split else "A")
        if mode == "A":
            t = x.T @ y
            nrm = float(np.linalg.norm(t))
            if nrm == 0.0:
                if m < 2.0:
                    raise SingularGradientError(f"block {block.id!r}: cross-term vanished")
                continue
            z += nrm ** (m - 2.0) * (x @ t)
        else:
            p = _column_space_image(x, y)
            nrm = float(np.linalg.norm(p))
            if nrm == 0.0:
                if m < 2.0:
                    raise SingularGradientError(f"block {block.id!r}: projection vanished")
                continue
            z += n ** (m / 2.0) * nrm ** (m - 2.0) * p
    if superblock_mode == "A":
        s = blockset.superblock
        return s @ (s.T @ z)
    return z


def verify_stationary(
    preset: MethodPreset,
    solution: Solution,
    blockset: BlockSet,
) -> StationaryCheck:
    """Angular residual of the preset's published stationary equation.

    The superblock component of a converged solution must be a fixed point
    of the published map; the residual is the norm of the component of the
    image orthogonal to the solution (scale- and sign-free), at most about
    1e-6 at convergence.
    """
    if preset.m is None:
        raise CatalogError(f"preset {preset.name!r} has no exponent; materialize it first")
    if preset.grid_row == 6:
        raise UnsupportedVerificationError(
            f"preset {preset.name!r} has no published stationary form; use the "
            "generic fixed-point residual instead"
        )
    split = None
    if preset.tau_blocks is None:
        if preset.split is None:
            raise CatalogError(f"preset {preset.name!r} needs a split")
        split = preset.split
        block_mode = "mixed"
    else:
        if preset.tau_blocks not in _MODE_LABEL:
            raise UnsupportedVerificationError(
                f"preset {preset.name!r} uses fractional shrinkage; no published "
                "stationary form exists"
            )
        block_mode = _MODE_LABEL[preset.tau_blocks]
    if preset.tau_superblock not in _MODE_LABEL:
        raise UnsupportedVerificationError(
            f"preset {preset.name!r} uses fractional superblock shrinkage"
        )
    superblock_mode = _MODE_LABEL[preset.tau_superblock]

    y = solution.y_super
    img = _raw_stationary_image(
        y, blockset, preset.m,
        "B" if block_mode == "mixed" else block_mode,
        superblock_mode,
        split=split,
    )
    img_norm = np.linalg.norm(img)
    if img_norm == 0.0:
        residual = float(np.sqrt(2.0))
    else:
        u = y / np.linalg.norm(y)
        w = img / img_norm
        residual = float(np.linalg.norm(w - (u @ w) * u))
    return StationaryCheck(
        preset=preset.name,
        residual=residual,
        block_mode=block_mode,
        superblock_mode=superblock_mode,
    )


# ---------------------------------------------------------------------------
# mode-selection guide


@dataclass(frozen=True)
class ModeGuidance:
    block_mode: str
    superblock_mode: str
    generalization: str
    objective: str


_GUIDE = {
    ("A", "A"): ModeGuidance(
        "A", "A",
        "Tucker's inter-battery factor analysis",
        "Balance block and superblock components that each summarize their own "
        "matrix well while staying as correlated as possible with each other.",
    ),
    ("A", "B"): ModeGuidance(
        "A", "B",
        "Redundancy analysis of a block with respect to the superblock",
        "Favor the blocks: block components summarize their own matrices well "
        "and correlate with the superblock component.",
    ),
    ("B", "A"): ModeGuidance(
        "B", "A",
        "Redundancy analysis of the superblock with respect to a block",
        "Favor the superblock: its component summarizes the concatenated data "
        "well and correlates with the block components.",
    ),
    ("B", "B"): ModeGuidance(
        "B", "B",
        "Canonical correlation analysis",
        "Make block and superblock components as correlated as possible, "
        "regardless of explained variance.",
    ),
}


def guide(block_mode: str, superblock_mode: str) -> ModeGuidance:
    """Guidance for a (block mode, superblock mode) pair."""
    key = (block_mode.upper(), superblock_mode.upper())
    if key not in _GUIDE:
        raise ValueError("modes must be 'A' or 'B'")
    return _GUIDE[key]


# Fixed-point schemes from the path-modeling literature that share the
# consensus layout but have no known optimization problem; documented for
# reference only, never runnable as presets. |.| is the Euclidean norm,
# X the superblock and y the global component.
RELATED_FIXED_POINT_METHODS: tuple[tuple[str, str], ...] = (
    ("path modeling, centroid scheme, Mode A blocks / Mode B superblock (Wold, 1982)",
     "y ~ sum_b |X_b X_b' y|^-1 X_b X_b' y"),
    ("path modeling, factorial scheme, Mode A blocks / Mode B superblock "
     "(Lohmoller, 1989); also hierarchical PCA-W (Smilde, Westerhuis & de Jong, 2003)",
     "y ~ sum_b (|X_b' y|^2 / |X_b X_b' y|^2) X_b X_b' y"),
    ("path modeling, centroid scheme, Mode A blocks and superblock (Wold, 1982)",
     "y ~ X X' sum_b |X_b X_b' y|^-1 X_b X_b' y"),
    ("path modeling, factorial scheme, Mode A blocks and superblock (Lohmoller, 1989)",
     "y ~ X X' sum_b (|X_b' y|^2 / |X_b X_b' y|^2) X_b X_b' y"),
    ("original consensus PCA (Wold, Hellberg, Lundstedt, Sjostrom & Wold, 1987); "
     "known convergence problems",
     "y ~ sum_b |X_b' y|^-2 X_b X_b' y"),
)
