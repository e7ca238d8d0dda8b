"""Exception hierarchy shared across the package."""


class TrialMIError(Exception):
    """Base class for all package errors."""


class ConfigError(TrialMIError, ValueError):
    """Invalid parameter values or malformed configuration input."""


class ValidationError(TrialMIError, ValueError):
    """A trial record or dataset violates a structural invariant."""


class SurvivalError(TrialMIError, RuntimeError):
    """Survival-model fitting or evaluation failed."""


class ImputationError(TrialMIError, RuntimeError):
    """Imputation could not proceed (e.g. donor pools exhausted)."""


class EstimationError(TrialMIError, ValueError):
    """Estimation or pooling called with unusable inputs."""


class SimulationError(TrialMIError, RuntimeError):
    """A simulation plan failed as a whole."""
