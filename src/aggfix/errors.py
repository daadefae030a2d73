"""Exception types and the search budgets shared across the package."""

from dataclasses import dataclass


class AggfixError(Exception):
    """Base class for every error raised by aggfix."""


class ParseError(AggfixError):
    """Rejected input text; carries a 1-based source position when known."""

    def __init__(self, message, line=None, column=None):
        if line is not None:
            message = f"line {line}, column {column}: {message}"
        super().__init__(message)
        self.line = line
        self.column = column


class NonIntegerElement(AggfixError):
    """A numeric aggregate collected a symbolic constant."""

    def __init__(self, atom):
        super().__init__(f"non-integer value collected from {atom}")
        self.atom = atom


class LimitExceeded(AggfixError):
    """A configured search budget would be exceeded."""


@dataclass(frozen=True)
class Budgets:
    """Bounds on the exponential steps; a step that would exceed its
    bound raises LimitExceeded before it starts.

    * ``candidates``: subsets a candidate sweep visits, 2**|atoms swept|.
    * ``enum``: pairs an aggregate's solution enumeration checks, 3**|H|.
    * ``subsets``: subsets an FLP minimality check tries, 2**|candidate|.
    * ``sum``: total weight of a subset-sum sweep, the sum of |x| over
      the free values for sum with ``!=`` and of |x - bound| for avg
      with ``!=``.
    """

    candidates: int = 1 << 20
    enum: int = 3 ** 14
    subsets: int = 1 << 20
    sum: int = 1_000_000


class SemanticsViolation(AggfixError):
    """Cross-semantics relations that should hold by construction failed.

    Raised by the comparison driver; seeing this means an engine bug,
    not a property of the input program.
    """
