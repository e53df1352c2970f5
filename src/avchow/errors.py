"""Exception types shared across the package."""

from __future__ import annotations


class AvchowError(Exception):
    """Base class for all package-specific errors."""


class GeneratorMismatchError(AvchowError):
    """Operands live over different generator sets."""


class SubstitutionError(AvchowError):
    """A generator occurring in the input has no image."""


class DegreeError(AvchowError):
    """Input is non-homogeneous or has the wrong weighted degree."""


class SizeError(AvchowError):
    """A number is too large to compute within the package's caps, or to print."""


class SingularSystemError(AvchowError):
    """Exact linear system has no unique solution (rank deficient)."""


class InconsistentSystemError(AvchowError):
    """Exact linear system has no solution at all."""


class PairingError(AvchowError):
    """Intersection pairing is singular or the pairing data is inconsistent."""


class ParseError(AvchowError):
    """Expression text is malformed; carries a character position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UnknownSymbolError(AvchowError):
    """A pushforward combination mentions a symbol outside the table."""


class UnknownScopeError(AvchowError):
    """A verification scope names no ring, table, or check group."""


class RingSpecError(AvchowError):
    """A ring spec file failed validation; aggregates every problem found.

    ``problems`` is a list of (json_pointer, message) pairs, one per issue,
    so a bad file reports all of its errors in a single pass.
    """

    def __init__(self, problems: list[tuple[str, str]]):
        # A pointer holds object keys as they are; its unprintable characters
        # are shown escaped, so each problem stays on one line.
        lines = [
            f"{''.join(c if c.isprintable() else repr(c)[1:-1] for c in pointer)}: {message}"
            for pointer, message in problems
        ]
        super().__init__("invalid ring spec:\n  " + "\n  ".join(lines))
        self.problems = list(problems)
