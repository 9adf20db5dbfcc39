"""Shared node-budget accounting, and the verdict every check answers with."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable

DEFAULT_NODE_BUDGET = 10**6
DEFAULT_WORD_BUDGET = 8


class BudgetExceeded(Exception):
    """Raised when a search consumes its node budget.

    Callers that expose a verdict catch this and answer BUDGET, which is
    always kept distinct from a genuine NO.  `used` and `limit` are the
    budget's counts when it ran out (`used` includes the node that ran
    over), or None where the raiser gives none.
    """

    def __init__(self, message: str, used: int | None = None, limit: int | None = None) -> None:
        super().__init__(message)
        self.used = used
        self.limit = limit


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
            raise BudgetExceeded(f"node budget {self.limit} exceeded", self.used, self.limit)


YES, NO, UNKNOWN, BUDGET = "yes", "no", "unknown", "budget"


@dataclass
class Verdict:
    """An answer: YES, NO, UNKNOWN (undecided within the bounds given) or
    BUDGET (a search ran out of nodes).

    `bound` is the dimension or word budget the answer was checked up to;
    None means it holds unconditionally.  `witness` is what the answer
    rests on: a lift, a certificate, a square, an unmatched cell or a
    reason.
    """

    value: str
    bound: int | None = None
    witness: Any = None


def all_of(verdicts: Iterable[Verdict], bound: int | None = None) -> Verdict:
    """Every verdict at once, checked up to the bound: NO with the witness
    of the first NO, else YES when all of them are YES, else UNKNOWN."""
    verdicts = list(verdicts)
    for v in verdicts:
        if v.value == NO:
            return Verdict(NO, bound, v.witness)
    return Verdict(YES if all(v.value == YES for v in verdicts) else UNKNOWN, bound)
