"""Exception hierarchy for the package.

The CLI maps these onto exit codes: configuration problems exit 1, data
problems exit 2, non-convergence under --strict exits 3, and violated
internal guarantees exit 4.
"""


class RcpcaError(Exception):
    """Base class for all package errors."""


class ConfigError(RcpcaError):
    """Invalid run configuration (bad flag combination, missing file)."""


class CatalogError(ConfigError):
    """Unknown or incompletely specified method preset."""


class DataError(RcpcaError):
    """Problem with the input data."""


class ParseError(DataError):
    """Malformed cell or row in a block file."""


class DimensionError(DataError):
    """Incompatible shapes between vectors, matrices or blocks."""


class DegenerateColumnError(DataError):
    """Zero-variance column under unit-variance scaling."""


class ModeBInfeasibleError(DataError):
    """Mode B requested for a matrix whose rank equals its row count."""


class NonContributingBlockError(DataError):
    """Block whose cross-product with the superblock is identically zero."""


class SingularGradientError(RcpcaError):
    """Gradient undefined: a block cross-term vanished with exponent below 2."""


class BadStartError(RcpcaError):
    """Start vector on which the criterion evaluates to zero."""


class UndefinedContributionsError(RcpcaError):
    """All block covariances are zero; contributions are undefined."""


class AllStartsFailedError(RcpcaError):
    """Every multi-start attempt failed."""


class UnsupportedVerificationError(RcpcaError):
    """Preset has no published stationary form to verify against."""


class InternalAssertionError(RcpcaError):
    """A mathematical guarantee was violated at runtime: implementation bug."""
