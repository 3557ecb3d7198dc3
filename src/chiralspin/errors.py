"""Exception and warning types shared across the package."""


class DomainError(ValueError):
    """An argument is outside the domain an operation is defined on."""


class ResonanceError(DomainError):
    """Dispersive rate formula requested at zero detuning, where it is invalid."""


class IntegrationError(RuntimeError):
    """Time integration violated a per-step tolerance.

    Carries the offending step index, the scaled time and the measured drift
    so callers can report the failing invariant precisely.
    """

    def __init__(self, message, step=None, time=None, drift=None):
        super().__init__(message)
        self.step = step
        self.time = time
        self.drift = drift


class FitError(RuntimeError):
    """A rate fit could not locate the feature it needs (e.g. no interior maximum)."""


class DispersiveLimitWarning(UserWarning):
    """The detuning is not large compared to the coupling; 2g^2/Delta is marginal."""
