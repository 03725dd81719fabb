"""Shared exception types.

Anything raised while interpreting input data (malformed stream bytes,
impossible field values, fits that cannot converge) derives from
``DataError`` so callers can map it to a single exit path.  Plain
``ValueError`` / ``TypeError`` are reserved for programmer mistakes such
as bad argument combinations.
"""

from __future__ import annotations


class DataError(Exception):
    """Input data is malformed or statistically unusable."""


class StreamFormatError(DataError):
    """Byte-level stream violation.

    Carries enough context (byte offset, cycle index) in the message to
    locate the defect without re-parsing.
    """

    def __init__(self, message: str, *, offset: int | None = None,
                 cycle_index: int | None = None):
        parts = [message]
        if cycle_index is not None:
            parts.append(f"cycle {cycle_index}")
        if offset is not None:
            parts.append(f"byte offset {offset}")
        super().__init__(": ".join([parts[0], ", ".join(parts[1:])]) if len(parts) > 1 else message)
        self.offset = offset
        self.cycle_index = cycle_index


class FitError(DataError):
    """Peak fit failed (non-convergence, degenerate data, merged peaks).

    ``last_estimate`` holds the final parameter vector when the solver ran
    at all, so callers can inspect how far it got; ``reason`` names why
    the fit stopped (``peakfit`` lists the reasons), or is None;
    ``n_iterations`` counts the solver iterations the fit took.
    """

    def __init__(self, message: str, last_estimate=None,
                 reason: str | None = None, n_iterations: int = 0):
        super().__init__(message)
        self.last_estimate = last_estimate
        self.reason = reason
        self.n_iterations = n_iterations


class CalibrationError(DataError):
    """Calibration input cannot produce a usable result at all."""
