"""Exception types shared across the package."""


class AltprojError(Exception):
    """Base class for all package-specific errors."""


class DimensionMismatch(AltprojError):
    """Operand dimensions are inconsistent."""


class FieldError(DimensionMismatch, ValueError):
    """An input field of the wrong JSON type, shape or value; the message names it."""


class RankDeficient(AltprojError):
    """A matrix required to have full (column or row) rank does not."""


class NonConvergence(AltprojError):
    """An iterative kernel exceeded its iteration cap."""


class UnsupportedVariant(AltprojError):
    """The requested operation is not defined for this set variant."""


class RankDrop(AltprojError):
    """A fixed-rank matrix probe landed on a matrix of lower rank."""


class Infeasible(AltprojError):
    """The constraint system is empty.

    Carries a Farkas-style witness: multipliers y_ineq >= 0 on the
    inequality rows and free-sign y_eq on the equality rows with
    A_ineq^T y_ineq + A_eq^T y_eq = 0 and
    b_ineq . y_ineq + b_eq . y_eq < 0.
    """

    def __init__(self, message, y_ineq=None, y_eq=None):
        super().__init__(message)
        self.y_ineq = y_ineq
        self.y_eq = y_eq


class LinearizationInfeasible(Infeasible):
    """The linearized constraint QP at the current iterate is empty."""


class MaxPivots(AltprojError):
    """The active-set QP solver hit its pivot cap (degenerate data)."""


class InsufficientData(AltprojError):
    """Not enough usable points/iterations for the requested diagnostic."""


class LeftChart(AltprojError):
    """A coordinate update left the chart's domain box."""
