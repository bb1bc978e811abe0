"""Exception types shared across the toolkit."""


class SlamEvalError(Exception):
    """Base class for all slameval errors."""


class ValidationError(SlamEvalError, ValueError):
    """Input violates a documented precondition or invariant."""


class ParseError(ValidationError):
    """A trajectory file line could not be parsed.

    Carries the 1-based line number of the offending line.
    """

    def __init__(self, message: str, line_no: int):
        super().__init__(f"line {line_no}: {message}")
        self.message = message
        self.line_no = line_no

    def __reduce__(self):
        # args hold only the formatted text; rebuild from what __init__ takes
        return type(self), (self.message, self.line_no)


class EmptyAssociationError(ValidationError):
    """Timestamp association produced zero matched pairs."""


class UndefinedCorrelationError(SlamEvalError):
    """Rank correlation is undefined (zero rank variance in an input)."""
