"""Shared node-budget accounting for the search-heavy operations."""

from __future__ import annotations

DEFAULT_NODE_BUDGET = 10**6
DEFAULT_WORD_BUDGET = 8


class BudgetExceeded(Exception):
    """Raised when a search consumes its node budget.

    Callers that expose a three-valued outcome catch this and report
    BUDGET, which is always kept distinct from a genuine NONE.
    """


class Budget:
    """A mutable countdown of search nodes."""

    def __init__(self, limit: int = DEFAULT_NODE_BUDGET) -> None:
        if limit <= 0:
            raise ValueError("budget must be positive")
        self.limit = limit
        self.used = 0

    @classmethod
    def of(cls, budget: int | Budget) -> Budget:
        """The budget itself, or a fresh one with the given node limit."""
        return budget if isinstance(budget, Budget) else cls(budget)

    def spend(self, n: int = 1) -> None:
        self.used += n
        if self.used > self.limit:
            raise BudgetExceeded(f"node budget {self.limit} exceeded")
