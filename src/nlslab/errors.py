"""Shared exception types."""


class CapExceededError(RuntimeError):
    """An enumeration or radius cap would be exceeded.

    Raised instead of silently attempting an unbounded computation; the CLI
    maps this to exit code 3.
    """


class CalibrationError(RuntimeError):
    """No candidate calibration reproduces every counting cell.

    Carries per-candidate diagnostics so the failure is inspectable.
    """

    def __init__(self, message, failures=None):
        super().__init__(message)
        self.failures = failures or []


class IntegrationError(RuntimeError):
    """Step-size control failed to hold the conservation-law drift.

    Carries the final drift and step size so the failure is inspectable.
    """

    def __init__(self, message, drift=None, dt=None):
        super().__init__(message)
        self.drift = drift
        self.dt = dt


class ConfigError(ValueError):
    """Invalid experiment configuration; the CLI maps this to exit code 2."""
