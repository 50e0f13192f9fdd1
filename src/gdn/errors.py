"""Exception types shared across the package.

Validation errors signal malformed caller input (wrong shapes, bad
identifiers, out-of-contract flags); domain errors signal inputs that are
well-formed but outside the mathematical domain of an operation (a point
outside an injectivity ball, a non-SPD matrix fed to a matrix logarithm);
numeric errors signal a computation that could not be completed reliably.
"""


class GdnError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(GdnError, ValueError):
    """Malformed input: wrong length, bad shape, violated precondition."""


class ParseError(ValidationError):
    """Unparseable identifier or expression."""


class DomainError(GdnError, ValueError):
    """Structurally valid input outside an operation's mathematical domain."""


class OutOfInjectivityError(DomainError):
    """Point or tangent vector outside the relevant injectivity ball."""


class RangeError(DomainError):
    """A core network output left the codomain chart ball; the model is
    undefined there."""


class NumericError(GdnError, ArithmeticError):
    """Non-finite intermediate values or a solver that failed to converge."""


class UnsupportedError(GdnError, NotImplementedError):
    """Requested combination of inputs is outside the implemented scope."""


class InfeasibleDegreeError(GdnError, RuntimeError):
    """No Bernstein degree below the cap satisfies the error budget."""


class BadThetaError(GdnError, RuntimeError):
    """Derivative estimate vanished at the chosen activation offset."""
