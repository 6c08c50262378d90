"""Exception types shared across the package."""


class RoguewatchError(Exception):
    """Base class for all package errors."""


class InfeasibleRequestError(RoguewatchError):
    """A generation or dealing request cannot be satisfied (e.g. more
    distinct profiles demanded than the attribute space holds)."""


class IllegalActionError(RoguewatchError):
    """An action is malformed or forbidden for the acting agent's role."""


class NegativeRequestError(RoguewatchError):
    """A harvest request was negative."""


class InvalidDistributionError(RoguewatchError):
    """A probability vector has negative entries or does not sum to one."""


class DegenerateDistributionError(RoguewatchError):
    """Kurtosis is undefined because the varentropy is zero."""


class SingularSystemError(RoguewatchError):
    """Unregularized ridge fit on a rank-deficient design matrix."""


class InsufficientDataError(RoguewatchError):
    """Monitor training corpus is missing one of the outcome classes."""


class ApiError(RoguewatchError):
    """Remote completion request failed after exhausting retries."""


class MalformedGenerationError(RoguewatchError):
    """A model generation could not be parsed into an action."""


class InvalidInterventionError(RoguewatchError):
    """The requested intervention is not valid in the current state."""
