"""Exception types shared across the package."""

import reprlib

# how an error message shows a refused value: a string past 60 characters, a
# list past 6 entries or a nest past 6 levels is cut short with "...", but an
# int is shown whole, so a refused huge number reads exactly as it was given
_SHOWN = reprlib.Repr()
_SHOWN.maxstring = _SHOWN.maxother = 60
_SHOWN.maxlong = float("inf")


def shown(value) -> str:
    """``repr(value)``, cut short if long; a short value reads exactly as
    ``repr`` gives it."""
    return _SHOWN.repr(value)


class ContractViolationError(ValueError):
    """An argument violates a documented precondition (shape, range, mode): exit 2."""


class NumericalFailureError(RuntimeError):
    """An iterative numerical routine failed to converge.

    Carries the residual at the point of failure so callers can report it.
    """

    def __init__(self, message: str, residual: float | None = None):
        super().__init__(message)
        self.residual = residual


class HelperProcessError(RuntimeError):
    """The two-core helper process died without replying, or a reply could
    not be pickled or unpickled: exit 4."""


class EmptyBasisError(NumericalFailureError):
    """PCA fitting found no singular value above the drop threshold."""


class RankDeficientError(ContractViolationError):
    """A linear system is singular where full rank was required: exit 2."""


class ConfigError(ContractViolationError):
    """A refused config value, config file or command-line path. Every rule
    that refuses a config value raises it, with ``keys`` holding
    ``section.key:value`` (an unknown key is named bare)."""

    def __init__(self, message: str, keys: list[str] | None = None):
        super().__init__(message)
        self.keys = keys or []
