"""Exception hierarchy shared across the package."""


class ParacurvError(Exception):
    """Base class for all errors raised by paracurv."""


class DomainError(ParacurvError):
    """A scalar operation left its domain (sqrt of a negative, division by ~0).

    Carries the offending value, the index of the first failing point of a
    batch and, when raised during expression evaluation, the source span of
    the failing subexpression.
    """

    def __init__(self, message, value=None, span=None, index=None):
        super().__init__(message)
        self.value = value
        self.span = span
        self.index = index


class SingularMetric(ParacurvError):
    """Metric (or jet-valued matrix) is numerically singular."""


class ParseError(ParacurvError):
    """Expression text could not be parsed."""

    def __init__(self, message, offset, expected=()):
        super().__init__(f"{message} at offset {offset}")
        self.offset = offset
        self.expected = frozenset(expected)


class UnknownCoordinate(ParseError):
    """Expression references a name that is not a declared coordinate."""

    def __init__(self, name, offset):
        super().__init__(f"unknown coordinate {name!r}", offset)
        self.name = name


class RankDeficientJacobian(ParacurvError):
    """Immersion Jacobian is not of full rank at the requested point."""


class InvalidAlpha(ParacurvError):
    """D-homothety parameter must be a positive real."""


class NotParacontact(ParacurvError):
    """Input cannot carry a paracontact structure (wrong parity/signature)."""


class IsotropicVector(ParacurvError):
    """Vector is (numerically) null where a non-null one is required."""


class IsotropicSection(ParacurvError):
    """Section is degenerate: the plane's Gram determinant is ~0."""


class NotHorizontal(ParacurvError):
    """Vector has a component along xi where a horizontal one is required."""


class SamplingExhausted(ParacurvError):
    """Rejection sampling failed to produce an admissible sample."""


class ManifestError(ParacurvError):
    """Manifest file is invalid; message names the offending field."""

    def __init__(self, message, field=None):
        super().__init__(message)
        self.field = field
