"""Exception types shared across the package."""


class ConfigError(ValueError):
    """A scenario, sweep, or validation configuration is invalid."""


class DegenerateChannelError(ValueError):
    """A channel draw is unusable (zero legitimate vector, singular noise Gram)."""


class InvariantViolation(RuntimeError):
    """A hard run-time guarantee was breached; aborts the run, indicates a bug."""

    def __init__(self, message: str, slot: int | None = None, user: int | None = None,
                 backlog: float | None = None, cap: float | None = None):
        super().__init__(message)
        self.slot = slot
        self.user = user
        self.backlog = backlog
        self.cap = cap
