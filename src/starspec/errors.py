"""Exception types raised by the solver."""


class StarSpecError(Exception):
    """Base class for all starspec errors."""


class ValidationError(StarSpecError, ValueError):
    """Invalid input to a constructor or operation."""


class NonUnitDirection(ValidationError):
    """A direction vector is not unit length within tolerance."""


class CoincidentArms(ValidationError):
    """Two arm directions coincide within tolerance."""


class NonpositiveLength(ValidationError):
    """Arm length is not a positive finite number."""


class UnsupportedN(ValidationError):
    """No sharp configuration exists for this number of points."""


class SizeMismatch(ValidationError):
    """Two direction sets have different cardinality."""


class DomainError(ValidationError):
    """Argument outside the function's domain."""


class BadParameters(ValidationError):
    """Mesh parameters out of range."""


class DegenerateAngle(ValidationError):
    """A pairwise angle is zero where a positive angle is required."""


class NumericalError(StarSpecError):
    """Base class for runtime numerical failures."""


class EigensolveFailure(NumericalError):
    """The symmetric eigensolver did not converge."""


class NoCrossing(NumericalError):
    """An eigenvalue curve never crosses the coupling constant."""


class BracketFailure(NumericalError):
    """A root solve found no upper end of its bracket, or no root within
    its budget of evaluations."""


class NotConverged(NumericalError):
    """Mesh ladder exhausted without meeting the energy tolerance."""


class AllStartsFailed(NumericalError):
    """Every optimizer start ended in the sentinel region."""


class ParseError(StarSpecError, ValueError):
    """A job document failed strict validation."""
