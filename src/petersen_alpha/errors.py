"""Exception types shared across the package, and the deadline check."""

import time


class DomainError(ValueError):
    """Raised when arguments fall outside the P(n,k) family or an operation's domain."""


class InternalError(RuntimeError):
    """Raised when a self-check fails; indicates a bug, not bad input."""


class ConsistencyError(RuntimeError):
    """Raised when persisted results conflict with each other."""


class BudgetExceededError(RuntimeError):
    """Raised by solvers when a computation exceeds its time budget."""


def check_deadline(deadline: float | None) -> None:
    """Raise BudgetExceededError once time.monotonic() passes `deadline`."""
    if deadline is not None and time.monotonic() > deadline:
        raise BudgetExceededError("time budget exceeded")
