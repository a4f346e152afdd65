"""Exception types shared across the package."""


class ConfigError(ValueError):
    """A scenario, sweep, or validation configuration is invalid."""


class DegenerateChannelError(ValueError):
    """A channel draw is unusable (zero legitimate vector, singular noise Gram)."""


class InvariantViolation(RuntimeError):
    """A hard run-time guarantee was breached; aborts the run, indicates a bug.

    A backlog-cap breach also names the slot's served user, power, data fraction and rate.
    """

    def __init__(self, message: str, slot: int | None = None, user: int | None = None,
                 backlog: float | None = None, cap: float | None = None,
                 served_user: int | None = None, power: float | None = None,
                 data_fraction: float | None = None, secrecy_rate: float | None = None):
        super().__init__(message)
        self.slot = slot
        self.user = user
        self.backlog = backlog
        self.cap = cap
        self.served_user = served_user
        self.power = power
        self.data_fraction = data_fraction
        self.secrecy_rate = secrecy_rate
