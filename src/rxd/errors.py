"""Exception types shared across the solver."""


class PositivityError(ValueError):
    """A concentration (or coefficient) that must be strictly positive is not."""


class ConvergenceError(RuntimeError):
    """An iterative solve (reaction root or conjugate gradient) did not converge."""


class ConfigError(ValueError):
    """A run configuration failed validation."""
