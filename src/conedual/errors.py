"""Exception types shared across the package.

Errors that certify a failure carry the offending data on a ``witness``
attribute so callers (and the CLI) can report it without re-deriving it.
A message that repeats an input value renders it through ``_echo``.
"""

_ECHO_LIMIT = 80


def _cut(text: str, limit: int) -> str:
    """``text``, cut at ``limit`` characters with its length appended."""
    if len(text) <= limit:
        return text
    return f"{text[:limit]}... ({len(text)} characters)"


def _echo(value) -> str:
    """``repr(value)``, cut at ``_ECHO_LIMIT`` characters with its length appended."""
    return _cut(repr(value), _ECHO_LIMIT)


class ConeDualError(Exception):
    """Base class for all library errors."""


class ParseError(ConeDualError):
    """Malformed textual or JSON input."""


class UndefinedDifference(ConeDualError):
    """Subtraction left the extended nonnegative reals (b = inf or b > a)."""


class EmptyList(ConeDualError):
    """A nonempty collection was required."""


class DimensionMismatch(ConeDualError):
    """Operands disagree on dimension."""


class MalformedProblem(ConeDualError):
    """A problem instance violates its structural contract."""


class PreconditionViolated(ConeDualError):
    """An operation's hypothesis fails; ``witness`` is a refuting point."""

    def __init__(self, message, witness=None, clause_index=None):
        super().__init__(message)
        self.witness = witness
        self.clause_index = clause_index


class NotAntisymmetric(ConeDualError):
    def __init__(self, i, j):
        super().__init__(f"elements {i} and {j} are related both ways")
        self.witness = (i, j)


class NotTransitive(ConeDualError):
    def __init__(self, i, j, k):
        super().__init__(f"{i} <= {j} <= {k} holds but {i} <= {k} fails")
        self.witness = (i, j, k)


class TooLarge(ConeDualError):
    """An enumeration or a candidate grid exceeds its configured size bound."""


class PosetMismatch(ConeDualError):
    """Operands live over different posets."""


class NotLSC(ConeDualError):
    """A value table is not monotone; ``witness`` is a violating pair."""

    def __init__(self, pair):
        super().__init__(
            f"values decrease along {pair[0]} <= {pair[1]}, so the function "
            f"is not lower semicontinuous"
        )
        self.witness = pair


class NotAValuation(ConeDualError):
    """A table over open sets is not induced by pointwise weights."""
