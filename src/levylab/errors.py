"""Exception hierarchy shared by all levylab modules."""


class LevyLabError(Exception):
    """Base class for all levylab errors."""


class ConfigurationError(LevyLabError):
    """Invalid or inconsistent parameters (bad jump law, missing cumulant, ...)."""


class RangeError(LevyLabError):
    """Requested order / sample count outside the supported range."""


class SingularityError(LevyLabError):
    """Evaluation at a genuine singularity (zero mode at m0=0, spectral endpoint)."""


class NumericalError(LevyLabError):
    """A numerical procedure failed to meet its requested tolerance."""


class ContractViolation(LevyLabError):
    """Caller broke an interface contract (e.g. non-symmetric Gram matrix)."""
