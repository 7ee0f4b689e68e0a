"""Shared exception types.

DomainError      -> CLI exit 2 (input outside an operation's domain)
UndecidedError   -> CLI exit 3 under --strict (budget ran out, no answer)
InconsistencyError -> CLI exit 4 (two certified computations disagree; a
                      bug by construction, never a mathematical finding)
BudgetExceeded   -> internal control flow inside searches;
                      search.longest_free turns it into a bracket
"""
from __future__ import annotations


class DomainError(ValueError):
    """Input outside the mathematical domain of an operation."""


class UndecidedError(RuntimeError):
    """An exact value needed here is undecided at the current budget."""

    def __init__(self, message: str, bounds: tuple[int, int] | None = None):
        super().__init__(message)
        self.bounds = bounds


class InconsistencyError(RuntimeError):
    """Independently computed certificates disagree."""


class BudgetExceeded(Exception):
    """Search state budget ran out (internal)."""
