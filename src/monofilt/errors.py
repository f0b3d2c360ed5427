"""Exception types shared across the package."""


class MonofiltError(Exception):
    """Base class for every error raised by this package."""


class IdealSyntaxError(MonofiltError):
    """Ideal text violates the input grammar.

    ``position`` is the character offset of the offending token in the
    original input string.
    """

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.message = message
        self.position = position


class InfiniteLengthError(MonofiltError):
    """A colength was requested for a quotient of infinite length."""


class DegenerateIdealError(MonofiltError):
    """An operation received the zero or unit ideal where a proper nonzero one is required."""


class InfeasibleError(MonofiltError):
    """No monomial can satisfy a prime-avoidance request."""


class GluePreconditionError(MonofiltError):
    """The colon identity needed to splice two filtrations does not hold."""


class CertificateError(MonofiltError):
    """An emitted filtration failed re-validation; pipelines report this as exit code 2."""


class DimensionLimitError(MonofiltError):
    """Polyhedral work was requested in more variables, or over more cells, than supported."""
