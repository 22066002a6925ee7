"""Exception types shared across the package."""


class ParcornetError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(ParcornetError):
    """An option or hyperparameter is outside its allowed range."""


class DataError(ParcornetError):
    """Input data is unusable (non-finite, too short, wrong values)."""


class ShapeError(ParcornetError):
    """An array has the wrong shape or is not symmetric."""


class DomainError(ParcornetError):
    """A value violates a mathematical requirement (e.g. not positive definite)."""


class EstimationError(ParcornetError):
    """A model fit failed and no estimate can be returned."""


class SelectionError(ParcornetError):
    """Model selection had no successful candidate to choose from."""

    def __init__(self, message, records=None):
        super().__init__(message)
        self.records = records


class DivergenceError(ParcornetError):
    """A propagation process has no finite limit."""

    def __init__(self, message, spectral_radius=None):
        super().__init__(message)
        self.spectral_radius = spectral_radius


class FitError(ParcornetError):
    """A time-series model could not be fit acceptably."""
