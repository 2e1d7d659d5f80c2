"""Exception types shared across the package.

The CLI maps these onto process exit codes (see ``flowlag.cli``):
config problems exit 2, failed runtime checks exit 3, numerical faults
exit 4, and the low-dimensional overshoot caveat exits 5.
"""


class ConfigError(ValueError):
    """A config file or CLI argument failed validation."""


class CheckFailedError(AssertionError):
    """A runtime check failed: an FLD matrix square root, an oracle Monte Carlo check or
    --require-lag-ratio."""


class NonFiniteVelocityError(FloatingPointError):
    """A velocity field returned NaN/Inf during integration.

    Carries a small diagnostic snapshot of the solver state so the
    failure can be inspected without rerunning.
    """

    def __init__(self, message: str, t: float, state_summary: dict):
        super().__init__(message)
        self.t = t
        self.state_summary = state_summary


class TrainingDivergedError(RuntimeError):
    """Training loss became non-finite; carries a diagnostic snapshot."""

    def __init__(self, message: str, step: int, snapshot: dict):
        super().__init__(message)
        self.step = step
        self.snapshot = snapshot
