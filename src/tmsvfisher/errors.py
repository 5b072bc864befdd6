"""Exception types shared across the package."""


class TmsvFisherError(Exception):
    """Base class for package errors."""


class ConfigError(TmsvFisherError, ValueError):
    """Invalid configuration or parameter value."""


class IdentifiabilityError(TmsvFisherError, RuntimeError):
    """The data cannot constrain the requested parameters."""


class NonConvergenceError(TmsvFisherError, RuntimeError):
    """An iterative solver failed to converge."""
