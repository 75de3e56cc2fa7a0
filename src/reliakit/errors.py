"""Exception taxonomy shared across the package."""


class ReliakitError(Exception):
    """Base of every reliakit exception; the CLI maps it to exit code 3."""


class DomainError(ReliakitError, ValueError):
    """A point lies outside the support of a probabilistic model."""


class ModelError(ReliakitError, ValueError):
    """An invalid or inconsistent model definition."""


class FitError(ReliakitError, RuntimeError):
    """A surrogate fit failed (rank deficiency, ill conditioning, ...)."""


class ConditioningError(ReliakitError, RuntimeError):
    """A linear-algebra factorization failed beyond recoverable regularization."""


class IterationError(ReliakitError, RuntimeError):
    """An iterative search did not converge within its iteration budget.

    Carries the last iterate so callers can inspect or restart.
    """

    def __init__(self, message, last_iterate=None):
        super().__init__(message)
        self.last_iterate = last_iterate


class EstimatorError(ReliakitError, RuntimeError):
    """An estimator hit an undefined configuration (e.g. zero instrumental density)."""


class SamplerError(ReliakitError, RuntimeError):
    """The instrumental sampler found no point of the target support to start from."""


class MarginCollapsed(ReliakitError):
    """Signal: the surrogate margin of uncertainty has vanished.

    Raised by margin-based enrichment when no candidate has appreciable
    probability of lying in the margin; adaptive loops treat it as a
    convergence signal rather than a failure.
    """
