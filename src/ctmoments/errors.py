"""Exception types raised by ctmoments."""


class CtmError(ValueError):
    """Base class for all ctmoments errors."""


class NonSquare(CtmError):
    pass


class NotHermitian(CtmError):
    pass


class NotNormalized(CtmError):
    pass


class NotPositive(CtmError):
    pass


class NotBipartite(CtmError):
    pass


class InvalidDimension(CtmError):
    pass


class TooFewParties(CtmError):
    pass


class ModeOutOfRange(CtmError):
    pass


class InvalidCorrelationTensor(CtmError):
    pass


class NegativeSingularValue(CtmError):
    pass


class InsufficientMoments(CtmError):
    pass


class ParamOutOfRange(CtmError):
    pass


class UnnormalizedVector(CtmError):
    pass


class UnknownCriterion(CtmError):
    pass
