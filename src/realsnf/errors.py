"""Exception types shared across the package."""


class RealSnfError(Exception):
    """Base class for all errors raised by this library."""


class ParseError(RealSnfError):
    """Malformed textual or JSON input; the message names the offending field."""


class UnsupportedRingError(RealSnfError):
    """The requested ring is outside the supported (norm-Euclidean) families."""


class BothZeroError(RealSnfError):
    """gcd(0, 0) was requested."""


class ZeroElementError(RealSnfError):
    """A nonzero element was required."""


class UnitInputError(RealSnfError):
    """A non-unit was required."""


class ZeroPolynomialError(RealSnfError):
    """A nonzero polynomial was required."""


class NotCertifiedIrreducibleError(RealSnfError):
    """The polynomial is reducible, or its irreducibility could not be certified."""


class NotSymmetricError(RealSnfError):
    """The matrix is not exactly symmetric."""


class NotSquareError(RealSnfError):
    """The matrix is not square."""


class ShapeMismatchError(RealSnfError):
    """Matrix shapes are incompatible."""


class SizeLimitError(RealSnfError):
    """The operation is capped at a small matrix size and the cap was exceeded."""


class CounterexampleConditionError(RealSnfError):
    """A counterexample recipe violates the unit or positivity conditions."""


class PreconditionFailedError(RealSnfError):
    """A checked precondition does not hold; the message says which one."""


class TheoremConsistencyError(RealSnfError):
    """The positivity verdict contradicts what the verified statement guarantees.

    This is never a property of the input: if it fires, the library itself
    is wrong somewhere.
    """
