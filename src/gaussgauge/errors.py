"""Exception types shared across the toolkit, and the array rules of every record and solver.

`require_finite` rejects NaN and infinite entries; the private helpers hold
the shape, symmetry, symmetrization and read-only-copy rules, one
definition each.
"""

import numpy as np


class GaussGaugeError(Exception):
    """Base class for all toolkit errors."""


class DimensionError(GaussGaugeError):
    """Inconsistent matrix/vector dimensions or quadrature orderings."""


class StabilityError(GaussGaugeError):
    """A drift matrix violates the stability assumption of the operation."""


class DegenerateSpectrumError(GaussGaugeError):
    """A matrix lacks the spectral structure the operation needs (e.g. a zero nilpotent part)."""


class PhysicalityError(GaussGaugeError):
    """A model channel violates complete positivity, or its diffusion target is not positive."""


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


def _square(name, m, even=False, stack=False):
    """Raise DimensionError unless the array m is a nonempty square matrix,
    of even dimension where `even`, or where `stack` a stack of them along
    one leading axis."""
    shape = m.shape[1:] if stack and m.ndim == 3 else m.shape
    if len(shape) != 2 or shape[0] != shape[1] or not shape[0] or even and shape[0] % 2:
        kind = " of even dimension" if even else ""
        raise DimensionError(f"{name} must be a nonempty square matrix{kind}, got shape {m.shape}")


def _symmetric(name, m):
    """`_symmetrized(m)` of a finite square m that is symmetric within
    1e-12 (1 + max|m|); DimensionError otherwise."""
    # on these small arrays the method forms take 0.6 the time of np.max(np.abs(...))
    if abs(m - m.T).max() > 1e-12 * (1.0 + abs(m).max()):
        raise DimensionError(f"{name} must be symmetric")
    return _symmetrized(m)


def _symmetrized(m):
    """0.5 m + 0.5 m^T over the last two axes, as a new read-only array.

    Finite wherever m is: 0.5 (m + m^T) overflows to inf for entries near
    the float max. Outside the subnormal range both round alike.
    """
    s = 0.5 * m + 0.5 * m.swapaxes(-1, -2)
    s.setflags(write=False)
    return s


def _frozen(m, dtype=float):
    """A read-only copy of m: editing the caller's array leaves it unchanged."""
    m = np.array(m, dtype=dtype)
    m.setflags(write=False)
    return m
