"""Typed errors shared across the package."""


class InvariantViolation(ValueError):
    """An input failed a structural invariant (hermiticity, trace, positivity, ...).

    ``invariant`` carries a short machine-readable name of the violated
    invariant so callers (notably the CLI) can report it.
    """

    def __init__(self, invariant: str, detail: str = ""):
        self.invariant = invariant
        msg = f"invariant violated: {invariant}"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)


class DomainError(ValueError):
    """A scalar function was evaluated outside its domain."""

