"""Stability classification and the Lyapunov/Stein/Jordan gauge-matrix solvers.

A S + S A^T + D = 0 goes to scipy's Bartels-Stewart solver at every size.
The one-mode (2x2) Stein equation S = X S X^T + Y takes the adjugate closed
form with denominator (1-det)(1-tr+det)(1+tr+det), the product of the Jury
triple, whose three terms are all positive iff spr(X) < 1; larger ones go
to scipy (direct solve below dimension 10, the bilinear map to a Lyapunov
equation above), with no size cap. Defective one-mode drifts
X = alpha (I + t N), N^2 = 0, have a geometric-series closed form in
rho = alpha^2. scipy is imported at first use, by the routes above 2x2 and
`solve_lyapunov`, so the one-mode closed forms never load it.
"""

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import (
    ConvergenceError,
    DegenerateSpectrumError,
    DimensionError,
    NumericalOverflowError,
    StabilityError,
    _frozen,
    _square,
    _symmetrized,
    require_finite,
)
from .onemode import expm2_entries, jury_triple, stein2_entries


class GaugeSource(str, Enum):
    LYAPUNOV = "lyapunov"
    STEIN = "stein"
    STEIN_SERIES = "stein-series"
    JORDAN_CLOSED_FORM = "jordan-closed-form"
    EP_BRANCH_FORMULA = "ep-branch-formula"


@dataclass(frozen=True)
class StabilityReport:
    """Spectral stability data of a drift matrix.

    `hurwitz` refers to the continuous-time criterion max Re(lambda) < 0;
    `spectral_radius` to the discrete one. For 2x2 matrices `jury_triple`
    carries (1-det, 1-tr+det, 1+tr+det), all positive iff spr < 1.
    """

    hurwitz: bool
    spectral_radius: float
    eigenvalues: np.ndarray
    jury_triple: tuple | None = None

    @property
    def stable_discrete(self):
        return self.spectral_radius < 1.0


def stability(matrix):
    """Classify drift stability in continuous and discrete time."""
    m = np.asarray(matrix, dtype=float)
    _square("stability input", m)
    try:
        eigs = np.linalg.eigvals(m)
    except np.linalg.LinAlgError:
        require_finite(matrix=m)
        raise
    return StabilityReport(
        hurwitz=bool(np.max(eigs.real) < 0.0),
        spectral_radius=float(np.max(np.abs(eigs))),
        eigenvalues=eigs,
        jury_triple=jury_triple(*m.ravel().tolist()) if m.shape == (2, 2) else None,
    )


@dataclass(frozen=True)
class GaugeCovariance:
    """Symmetric gauge covariance with solver provenance and residual."""

    S: np.ndarray
    source: GaugeSource
    residual: float

    def __post_init__(self):
        s = np.asarray(self.S, dtype=float)
        _square("gauge covariance", s)
        object.__setattr__(self, "S", _symmetrized(s))
        object.__setattr__(self, "source", GaugeSource(self.source))


def lyapunov_residual(A, S, D):
    return float(np.max(np.abs(A @ S + S @ A.T + D)))


def stein_residual(X, S, Y):
    return float(np.max(np.abs(S - X @ S @ X.T - Y)))


def _equation_pair(a, b, name_a, name_b):
    """The coefficient and inhomogeneity of a matrix equation as checked float arrays."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    _square(name_a, a)
    if b.shape != a.shape:
        raise DimensionError(f"{name_b} shape {b.shape} does not match {name_a} {a.shape}")
    require_finite(**{name_a: a, name_b: b})
    return a, b


def solve_lyapunov(A, D):
    """Unique symmetric solution of A S + S A^T + D = 0 for Hurwitz A.

    scipy's Bartels-Stewart solver at every size; the Hurwitz gate excludes
    the resonant pairs lambda_i + lambda_j = 0 that would make it singular.
    The equation defect in max-norm is recorded on the result.
    """
    A, D = _equation_pair(A, D, "A", "D")
    if not stability(A).hurwitz:
        raise StabilityError("Lyapunov gauging requires a Hurwitz drift")
    import scipy.linalg

    S = _symmetrized(scipy.linalg.solve_continuous_lyapunov(A, -D))
    return GaugeCovariance(S=S, source=GaugeSource.LYAPUNOV, residual=lyapunov_residual(A, S, D))


def solve_stein(X, Y):
    """Unique symmetric solution of S = X S X^T + Y for spr(X) < 1.

    2x2 inputs decide spr(X) < 1 by the Jury triple, the test the
    non-Markovian tables apply to their rows, and evaluate the adjugate
    closed forms, whose denominator is the triple's product; larger ones go
    to scipy.linalg.solve_discrete_lyapunov. S inherits positive
    semidefiniteness from Y.
    """
    X, Y = _equation_pair(X, Y, "X", "Y")
    if X.shape == (2, 2):
        x = X.ravel().tolist()
        if not all(term > 0.0 for term in jury_triple(*x)):
            raise StabilityError("Stein gauging requires spectral radius < 1")
        y11, y12, _, y22 = Y.ravel().tolist()
        s11, s12, s22 = stein2_entries(*x, y11, y12, y22)
        S = np.array([[s11, s12], [s12, s22]])
    else:
        if stability(X).spectral_radius >= 1.0:
            raise StabilityError("Stein gauging requires spectral radius < 1")
        import scipy.linalg

        S = _symmetrized(scipy.linalg.solve_discrete_lyapunov(X, Y))
    return GaugeCovariance(S=S, source=GaugeSource.STEIN, residual=stein_residual(X, S, Y))


def stein_series(X, Y, tol=1e-12, max_terms=100_000):
    """Partial sums of S = sum_n X^n Y (X^T)^n; the solver-independent oracle.

    Stops when the increment max-norm drops below `tol`; raises
    ConvergenceError at the term cap (spectral radius >= 1 suspected).
    """
    X, Y = _equation_pair(X, Y, "X", "Y")
    S = term = Y
    xt = X.T.copy()
    for _ in range(max_terms):
        term = X @ term @ xt
        S = S + term
        if np.max(np.abs(term)) < tol:
            break
    else:
        raise ConvergenceError(f"Stein series not converged after {max_terms} terms")
    S = _symmetrized(S)
    return GaugeCovariance(
        S=S, source=GaugeSource.STEIN_SERIES, residual=stein_residual(X, S, Y)
    )


@dataclass(frozen=True)
class JordanDrift2x2:
    """Defective one-mode drift X = alpha (I + t N) with N != 0, N^2 = 0."""

    alpha: float
    nilpotent: np.ndarray
    t: float

    def __post_init__(self):
        n = np.asarray(self.nilpotent, dtype=float)
        if n.shape != (2, 2):
            raise DimensionError("nilpotent part must be 2x2")
        scale = float(np.max(np.abs(n)))
        if scale == 0.0:
            raise DegenerateSpectrumError("nilpotent part must be nonzero")
        if np.max(np.abs(n @ n)) > 1e-12 * scale * scale:
            raise DimensionError("nilpotent part must square to zero")
        object.__setattr__(self, "nilpotent", _frozen(n))

    @property
    def X(self):
        return self.alpha * (np.eye(2) + self.t * self.nilpotent)


def stein_jordan_closed_form(drift, Y):
    """Stein solution on a Jordan drift, in closed form.

    S = Y/(1-rho) + rho t (N Y + Y N^T)/(1-rho)^2
      + rho (1+rho) t^2 N Y N^T / (1-rho)^3 with rho = alpha^2.
    """
    if abs(drift.alpha) >= 1.0:
        raise StabilityError(f"|alpha| = {abs(drift.alpha)} >= 1: single use unstable")
    Y = np.asarray(Y, dtype=float)
    if Y.shape != (2, 2):
        raise DimensionError("Jordan closed form is a one-mode path; Y must be 2x2")
    n, t = drift.nilpotent, drift.t
    rho = drift.alpha * drift.alpha
    one = 1.0 - rho
    ny = n @ Y
    S = (
        Y / one
        + (rho * t / (one * one)) * (ny + ny.T)
        + (rho * (1.0 + rho) * t * t / (one * one * one)) * (ny @ n.T)
    )
    return GaugeCovariance(
        S=S,
        source=GaugeSource.JORDAN_CLOSED_FORM,
        residual=stein_residual(drift.X, S, Y),
    )


def expm2(B, t=1.0):
    """Closed-form exp(t B) for real 2x2 B: `drift_exponential` held to 2x2."""
    B = np.asarray(B, dtype=float)
    if B.shape != (2, 2):
        raise DimensionError(f"expm2 expects a 2x2 matrix, got {B.shape}")
    return drift_exponential(B, t)


def drift_exponential(A, t=1.0):
    """exp(t A) for one time t, or stacked along a leading axis for a 1-D array of times.

    A 2x2 drift takes the branch formula of `onemode.expm2_entries`, on the
    whole time array at once; a larger one takes scipy's scaling and squaring,
    one stacked call for all times. Every size raises NonFiniteInputError for
    a non-finite A or time, DimensionError for times of more than one
    dimension, and NumericalOverflowError where an entry leaves the float range.
    """
    A = np.asarray(A, dtype=float)
    times = np.asarray(t, dtype=float)
    _square("drift", A)
    if times.ndim > 1:
        raise DimensionError(f"times must be a number or 1-D, got shape {times.shape}")
    require_finite(A=A, t=times)
    with np.errstate(over="ignore", invalid="ignore"):
        return _exponentials(A, times)


def _exponentials(A, times):
    """`drift_exponential` without its input checks, for callers that have
    checked A and the times; they also silence numpy's overflow warnings."""
    if A.shape == (2, 2):
        # one time goes as a float: the kernel rounds floats and arrays
        # alike, and is cheaper on floats
        entries = expm2_entries(*A.ravel().tolist(), times.item() if times.size == 1 else times)
        e = np.array(entries).T.reshape(times.shape + (2, 2))
    else:
        import scipy.linalg

        e = scipy.linalg.expm(np.multiply.outer(times, A))
    if np.count_nonzero(np.isfinite(e)) != e.size:
        bad = times.ravel()[np.argmin(np.isfinite(e).all(axis=(-2, -1)))]
        raise NumericalOverflowError(f"exp(t A) leaves the float range at t = {bad}")
    return e
