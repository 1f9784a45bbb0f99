"""Exception types shared across the package."""

from __future__ import annotations


class ConfigError(ValueError):
    """Invalid, unknown, or out-of-range configuration content.

    ``path`` is the dotted key path into the config document, e.g.
    ``"scenario.markov.transition"``; empty when the document as a whole is
    unreadable.
    """

    def __init__(self, path: str, message: str):
        self.path = path
        self.message = message
        where = path if path else "<document>"
        super().__init__(f"config error at {where}: {message}")


class ResolventOverflowError(ValueError):
    """The causal resolvent has an entry beyond double precision."""


class EnumerationBudgetError(RuntimeError):
    """Exact enumeration would exceed the evaluation budget.

    Raised up front from a worst-case estimate, never after partial work; the
    message names the budget that would let the computation run.
    """

    def __init__(self, task: str, required: int, budget: int):
        self.task = task
        self.required = required
        self.budget = budget
        super().__init__(
            f"{task} needs about {required} kernel/function evaluations, over the "
            f"budget of {budget}; rerun with a budget of at least {required}"
        )


class CalibrationError(RuntimeError):
    """A window kernel could not be tuned to the requested influence level."""
