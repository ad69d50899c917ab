"""Exception types shared across the package.

Every operation that can refuse its input raises one of these named errors so
callers (and the CLI) can map failures to exit codes without string matching.
"""


class ShiftMetricsError(Exception):
    """Base class for all package errors."""


class BadMatrix(ShiftMetricsError):
    """Transition matrix is malformed (not square, not 0/1, wrong size)."""


class AllStatesDead(ShiftMetricsError):
    """Trimming removed every state; the subshift is empty."""


class NoConvergence(ShiftMetricsError):
    """Iterative solver failed to reach tolerance within its iteration cap."""


class HorizonExceeded(ShiftMetricsError):
    """Requested indices fall outside a point's finite window."""


class DifferentSpaces(ShiftMetricsError):
    """The two points do not belong to the same shift space."""


class InadmissibleWord(ShiftMetricsError):
    """A word violates the transition constraints of its space."""


class SaturatedDistances(ShiftMetricsError):
    """A distance value is only a bound because no disagreement was found
    inside the available window."""


class QuasiMetricViolated(ShiftMetricsError):
    """Input dissimilarity fails the relaxed (K-scaled) triangle test."""


class SandwichViolated(ShiftMetricsError):
    """Chain metrization failed the two-sided comparability bounds."""


class GammaTooLarge(ShiftMetricsError):
    """Contraction margin gamma must stay below min(a, b) - 1."""


class RadiusOutOfRange(ShiftMetricsError):
    """Radius must lie strictly between 0 and 1 (after any rescaling)."""


class ConstraintViolated(ShiftMetricsError):
    """A parameter left its hypothesis range (for example r >= 3/k)."""


class AlphaTooLarge(ShiftMetricsError):
    """Discount rate alpha must stay below min(ln a, ln b)."""


class WindowTooLarge(ShiftMetricsError):
    """Exact enumeration over the requested window exceeds the node
    budget."""


class BatchTooLarge(ShiftMetricsError):
    """The typical points of one average would take more bytes than the
    batch bound allows."""


class Reducible(ShiftMetricsError):
    """Stochastic matrix is not irreducible on the alive states."""


class NoSolution(ShiftMetricsError):
    """The radius/rate exchange equation has no admissible solution for the
    given value."""


class IncompatibleInputs(ShiftMetricsError):
    """Bundled estimates were produced with mismatched space/parameters."""


class HypothesisViolated(ShiftMetricsError):
    """A named hypothesis of the computation is violated; the message
    cites the bound."""


class BadMeasure(ShiftMetricsError):
    """Measure specification is invalid or incompatible with the space."""
