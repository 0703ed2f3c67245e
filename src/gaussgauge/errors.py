"""Exception types shared across the toolkit, and the non-finite input guard."""

import numpy as np


class GaussGaugeError(Exception):
    """Base class for all toolkit errors."""


class DimensionError(GaussGaugeError):
    """Inconsistent matrix/vector dimensions or quadrature orderings."""


class StabilityError(GaussGaugeError):
    """A drift matrix violates the stability assumption of the operation."""


class DegenerateSpectrumError(GaussGaugeError):
    """A matrix lacks the spectral structure the operation needs (e.g. a zero nilpotent part)."""


class NotGaugeableError(GaussGaugeError):
    """Displacement cannot be removed: I - X is singular."""


class PhysicalityError(GaussGaugeError):
    """Input state or bath covariance violates the uncertainty constraint."""


class DegenerateModelError(GaussGaugeError):
    """Model parameters degenerate (e.g. drift-aligned diffusion with B = 0)."""


class ConvergenceError(GaussGaugeError):
    """An iterative solver exhausted its iteration budget."""


class NonFiniteInputError(GaussGaugeError):
    """An input matrix or vector holds NaN or infinite entries."""


class NumericalOverflowError(GaussGaugeError):
    """A result leaves the floating-point range (e.g. exp(t B) of a fast-growing drift)."""


def require_finite(**arrays):
    """Raise NonFiniteInputError naming the first keyword array with NaN/inf."""
    for name, arr in arrays.items():
        # count_nonzero is one C call; .all() on these small arrays costs twice as much
        if np.count_nonzero(np.isfinite(arr)) != arr.size:
            raise NonFiniteInputError(f"{name} has non-finite entries")
