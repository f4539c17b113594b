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


def read_headed(text: str, keyword: str, placeholder: str, noun: str, minimum: int):
    """The grammar the text formats share: ``#`` starts a comment, blank
    lines are skipped, and the first line left is the header
    ``<keyword> <int>`` with the int at least ``minimum`` (0 or 1).

    Returns (header int, [(line number, stripped line), ...] for the lines
    after it).  A missing or malformed header raises ParseError, naming its
    line when there is one.
    """
    lines = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            lines.append((lineno, line))
    header = f"'{keyword} <{placeholder}>'"
    if not lines:
        raise ParseError(f"missing {header} header")
    lineno, line = lines[0]
    parts = line.split()
    if len(parts) != 2 or parts[0] != keyword:
        raise ParseError(f"expected header {header}", line=lineno)
    try:
        value = int(parts[1])
    except ValueError:
        raise ParseError(f"bad {noun} {parts[1]!r}", line=lineno) from None
    if value < minimum:
        bound = "positive" if minimum == 1 else "nonnegative"
        raise ParseError(f"{noun} must be {bound}", line=lineno)
    return value, lines[1:]


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


class NotNormal(DigsymError):
    pass
