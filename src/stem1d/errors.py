"""Exception types shared across the package.

The CLI maps these onto exit codes: configuration problems exit with 2,
I/O problems and unreadable input files with 3, and numeric/degenerate-input
failures with 4.
"""


class ConfigurationError(ValueError):
    """Inconsistent or invalid configuration (bad flags, mismatched grids)."""


class GridMismatchError(ConfigurationError):
    """Sequence and kernel are sampled on different grids."""


class BandwidthTooSmallError(ConfigurationError):
    """Requested kernel bandwidth is below the grid spacing."""


class InputFileError(ValueError):
    """A data file holds a line that is not a finite number."""


class NumericFailureError(ValueError):
    """A computation cannot proceed on the given data."""


class DegenerateSequenceError(NumericFailureError):
    """Input sequence carries no usable variation (constant, too short)."""


class NoQualifyingPeaksError(NumericFailureError):
    """Template estimation found no usable spikes in the training data."""

    def __init__(self, count: int = 0, message: str | None = None):
        self.count = count
        if message is None:
            message = f"no usable spikes found (count={count})"
        super().__init__(message)


class ThresholdInfeasibleError(NumericFailureError):
    """No finite threshold attains the requested error level."""
