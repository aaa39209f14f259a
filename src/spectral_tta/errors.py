"""Exception types shared across the package."""


class ContractViolationError(ValueError):
    """An argument violates a documented precondition (shape, range, mode)."""


class NumericalFailureError(RuntimeError):
    """An iterative numerical routine failed to converge.

    Carries the residual at the point of failure so callers can report it.
    """

    def __init__(self, message: str, residual: float | None = None):
        super().__init__(message)
        self.residual = residual


class EmptyBasisError(NumericalFailureError):
    """PCA fitting found no singular value above the drop threshold."""


class RankDeficientError(ValueError):
    """A linear system is singular where full rank was required."""


class ConfigError(ValueError):
    """A benchmark/CLI configuration is malformed.

    ``keys`` lists the offending configuration keys, when known.
    """

    def __init__(self, message: str, keys: list[str] | None = None):
        super().__init__(message)
        self.keys = keys or []
