"""Exception types shared across the package."""


class StochparityError(Exception):
    """Base class for all package-specific errors."""


class GameFormatError(StochparityError, ValueError):
    """A game, strategy, or solution file is syntactically malformed."""


class GameValidationError(StochparityError, ValueError):
    """A parsed object violates structural invariants.

    Carries the full violation list so callers can report every problem
    at once.
    """

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


class StrategyError(StochparityError, ValueError):
    """A strategy is malformed or does not fit the game it is used with."""


class IllegalPlayError(StochparityError, ValueError):
    """A play prefix or ultimately periodic play does not follow game edges."""


class CapExceededError(StochparityError, RuntimeError):
    """An enumeration would exceed the configured cap."""

    def __init__(self, needed: int, cap: int, what: str = "enumeration"):
        self.needed = needed
        self.cap = cap
        super().__init__(f"{what} needs {needed} cases, cap is {cap}")


class DeterminacyError(StochparityError, RuntimeError):
    """No uniformly optimal strategy or policy was found.

    `solve_game` raises it when no Max strategy attains the lower values
    at every vertex, or no Min strategy holds every vertex to them
    against every Max strategy; `mdp_value` when no product policy is
    optimal at every state. Each signals an implementation bug, not a
    property of the input game.
    """


class StaleValuesError(StochparityError, ValueError):
    """A value map does not satisfy the local value equations of the game.

    This is a fixed-point check only, not a certificate: a parity game's
    value equations have many fixed points besides the true values. On
    G1, setting the losing sink `l` to 1 keeps every equation satisfied,
    so such a map raises nothing here and passes `check`.
    """


class InconsistentGameError(StochparityError, ValueError):
    """An operation requiring a consistent game received an inconsistent one."""


class InvalidThresholdError(StochparityError, ValueError):
    """The deviation threshold m is nonpositive or infinite."""


class SimulationError(StochparityError, RuntimeError):
    """A sampling run produced no usable samples."""
