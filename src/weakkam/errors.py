"""Exception types shared across the toolkit."""


class WeakKamError(Exception):
    """Base class for all toolkit errors."""


class ConfigurationError(WeakKamError):
    """Invalid family tag, flag, parameter range, or incompatible inputs."""


class NumericalError(WeakKamError):
    """An iterative procedure failed to reach its tolerance."""


class MinimizationError(NumericalError):
    """Action minimization stalled. Carries the best iterate found."""

    def __init__(self, message, best_value=None, best_curve=None):
        super().__init__(message)
        self.best_value = best_value
        self.best_curve = best_curve


class NoOrbitError(NumericalError):
    """Newton shooting diverged; no periodic orbit found from this guess."""


class DegenerateOrbitError(WeakKamError):
    """I - monodromy is singular: the orbit has a non-hyperbolic direction."""


class NotPeriodicError(WeakKamError):
    """A seed point does not close up within tolerance. Carries the defect."""

    def __init__(self, message, defect=None):
        super().__init__(message)
        self.defect = defect


class InvalidSubsolutionError(WeakKamError):
    """The tilted Lagrangian is negative beyond tolerance. Carries a witness."""

    def __init__(self, message, witness=None, minimum=None):
        super().__init__(message)
        self.witness = witness
        self.minimum = minimum


class InsufficientDataError(WeakKamError):
    """Too few usable points for a rate fit."""
