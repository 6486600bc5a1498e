"""Exception types shared across the package.

The CLI maps these onto exit codes: configuration problems exit with 2,
I/O problems and unreadable input files with 3, and numeric/degenerate-input
failures with 4.
"""

import math


class ConfigurationError(ValueError):
    """Inconsistent or invalid configuration (bad flags, mismatched grids)."""


class GridMismatchError(ConfigurationError):
    """Sequence and kernel are sampled on different grids."""


class BandwidthTooSmallError(ConfigurationError):
    """Requested kernel bandwidth is below the grid spacing."""


class InputFileError(ValueError):
    """An input file is malformed: a value that is not a finite number, a
    bad header value, or JSON that does not parse or does not fit."""


def finite_number(text: str, path, lineno: int, name: str = "") -> float:
    """``text`` as a float; :class:`InputFileError` naming ``path`` and
    ``lineno`` (and the header key ``name``, if given) when ``text`` is
    not a finite number."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        key = f"{name}=" if name else ""
        raise InputFileError(
            f"{path}, line {lineno}: {key}{text!r} is not a finite number"
        )
    return value


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
