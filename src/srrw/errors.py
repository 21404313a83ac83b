"""Exception types shared across the toolkit."""


class SrrwError(Exception):
    """Base class for toolkit errors."""


class InvalidWeightError(SrrwError):
    """Weight function violates positivity, monotonicity or asymmetry."""


class EvaluationRangeError(SrrwError):
    """Weight evaluation overflowed at an extreme argument."""


class DivergingTailError(SrrwError):
    """Kernel row tail did not contract below the requested mass threshold."""


class WindowTooSmallError(SrrwError):
    """Stationary solve rejected: boundary leakage exceeds the target."""


class ConvergenceError(SrrwError):
    """Iterative solve did not reach the requested residual in budget."""


class SupportBudgetError(SrrwError):
    """Exact DP support would exceed the memory budget."""

    def __init__(self, msg, suggested_n=None):
        super().__init__(msg)
        self.suggested_n = suggested_n


class SimulationBudgetError(SrrwError):
    """A single simulation run exceeds the per-run step budget."""


class CampaignConfigError(SrrwError, ValueError):
    """Campaign parameters rejected before any work is done."""
