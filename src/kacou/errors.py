"""Exception types shared across the package."""


class KacOuError(Exception):
    """Base class for all package-specific errors."""


class ParameterError(KacOuError):
    """A model or function parameter violates its domain."""


class DoubleRangeError(ParameterError):
    """A result the parameters set together leaves the range of a double."""


class WorkLimitError(ParameterError):
    """A Monte Carlo call expects more lane-segments than simulate.MAX_LANE_SEGMENTS: refused up front."""


class SeriesConvergenceError(KacOuError):
    """A hypergeometric value could not be summed: its series failed to
    converge within the term cap, or no summation form keeps its rounding
    bound."""

    def __init__(self, message, terms_used):
        super().__init__(message)
        self.terms_used = terms_used


class OutOfDomainError(KacOuError):
    """Query lies outside the validity domain of a closed-form expression."""


class UnsupportedRegimeError(KacOuError):
    """No closed form exists for this regime; use the simulation or integral oracle."""


class NoInvariantMeasureError(KacOuError):
    """The model admits no invariant probability distribution."""


class OracleError(KacOuError):
    """The integral-equation oracle cannot solve its equations in double
    precision: q is below 1e-10 of the rate of a state whose flow leaves
    its grid, where rounding outweighs the killing of the paths that leave,
    or a pivot of the solve fell below the normal range."""
