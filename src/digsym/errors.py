"""Exception types shared across the package."""


class DigsymError(Exception):
    """Base class for all errors raised by digsym."""


class LoopArc(DigsymError):
    pass


class VertexOutOfRange(DigsymError):
    pass


class NotStronglyConnected(DigsymError):
    pass


class ParseError(DigsymError):
    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class DegreeMismatch(DigsymError):
    pass


class NotSubgroupElement(DigsymError):
    pass


class NotTransitive(DigsymError):
    pass


class PartitionInvalid(DigsymError):
    pass


class PartitionNotInvariant(DigsymError):
    pass


class SearchBudgetExceeded(DigsymError):
    pass


class SetNotInvariant(DigsymError):
    pass


class NotAutomorphismGroup(DigsymError):
    pass


class BadParameter(DigsymError):
    pass


class IdentityInConnectionSet(DigsymError):
    pass


class NotAntisymmetric(DigsymError):
    pass


class BoundExceeded(DigsymError):
    pass


class TranslationNotInG(DigsymError):
    pass


class NotNormal(DigsymError):
    pass
