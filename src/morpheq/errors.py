"""Exception types shared across the package."""


class MorpheqError(Exception):
    """Base class for every error raised by this package."""


class UnknownId(MorpheqError):
    """An identifier does not name any object, morphism, 1-cell or 2-cell."""


class NotComposable(MorpheqError):
    """A composition was requested for a boundary-incompatible pair."""


class InterchangeViolation(MorpheqError):
    """The two whiskering orders of a horizontal composite disagree."""


class InvalidInstance(MorpheqError):
    """A structure failed its eager validation."""

    def __init__(self, violations):
        self.violations = list(violations)
        lines = "; ".join(str(v) for v in self.violations[:8])
        more = "" if len(self.violations) <= 8 else f" (+{len(self.violations) - 8} more)"
        super().__init__(f"{len(self.violations)} violation(s): {lines}{more}")


class InvalidParameter(MorpheqError):
    """A construction parameter is out of range or uses a reserved name."""


class InvalidPremise(MorpheqError):
    """A witness passed to a derivation does not verify."""


class UnknownElement(MorpheqError):
    """An element is not in the relevant carrier or group."""


class NotParallel(MorpheqError):
    """Two maps expected to share domain and codomain do not."""


class InvalidCell(MorpheqError):
    """A candidate 2-cell fails its defining inequality."""


class DimensionMismatch(MorpheqError):
    """Matrix or vector shapes are incompatible."""


class ClassViolation(MorpheqError):
    """An operator fails the morphism-class tag it was declared with."""


class NotAFrame(MorpheqError):
    """A Bessel family without a positive lower bound was used where a frame is required."""


class NotUnitary(MorpheqError):
    """An operator expected to be unitary is not."""


class BadPhase(MorpheqError):
    """A phase factor does not lie on the unit circle."""


class ParseError(MorpheqError):
    """An input file could not be parsed."""


class SchemaError(MorpheqError):
    """An input file parsed but does not match its schema."""
