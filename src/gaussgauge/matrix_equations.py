"""Stability classification and the Lyapunov/Stein/Jordan gauge-matrix solvers.

Each of the equations A S + S A^T + D = 0 and S = X S X^T + Y has one route,
`_lyapunov` and `_stein`, for one pair or a stack of pairs of one size. At
2x2 both take an adjugate closed form: for Lyapunov with denominator
-2 tr A det A, positive iff A is Hurwitz (tr A < 0 < det A); for Stein with
denominator (1-det)(1-tr+det)(1+tr+det), the product of the Jury triple,
whose three terms are all positive iff spr(X) < 1. Below dimension 10 one
stacked `eigvals` decides stability and one batched `scipy.linalg.solve`
solves the Kronecker systems of every pair: (I (x) A + A (x) I) vec S =
-vec D, and (I - X (x) X) vec S = vec Y, the system scipy's direct Stein
route builds. From dimension 10 on scipy solves each pair: Bartels-Stewart
for Lyapunov, and for Stein the map to a Lyapunov equation (bilinear), with
no size cap. Defective one-mode drifts X = alpha (I + t N), N^2 = 0, have a
geometric-series closed form in rho = alpha^2. scipy is imported at first
use, by the routes above 2x2, so the one-mode closed forms never load it.
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
from .onemode import expm2_entries, jury_triple, lyapunov2_entries, stein2_entries


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
    """Symmetric gauge covariance with solver provenance and residual; S must be finite."""

    S: np.ndarray
    source: GaugeSource
    residual: float

    def __post_init__(self):
        s = np.asarray(self.S, dtype=float)
        _square("gauge covariance", s)
        require_finite(S=s)
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

    The checked pair goes to `_lyapunov`: the adjugate closed form at 2x2,
    the Kronecker system below dimension 10 and scipy's Bartels-Stewart
    solver from there on. The Hurwitz gate excludes the resonant pairs
    lambda_i + lambda_j = 0 that would make the equation singular. The
    equation defect in max-norm is recorded on the result.
    """
    A, D = _equation_pair(A, D, "A", "D")
    S = _lyapunov(A, D)
    return GaugeCovariance(S=S, source=GaugeSource.LYAPUNOV, residual=lyapunov_residual(A, S, D))


def _lyapunov(A, D):
    """S of A S + S A^T + D = 0 for one checked (d, d) pair, or for (n, d, d)
    stacks of them; StabilityError unless every A is Hurwitz, and below
    dimension 10 NumericalOverflowError where S or the Kronecker system
    leaves the float range.

    2x2 goes to `lyapunov2_entries`, whose trace and determinant decide
    stability. Below dimension 10 one stacked `eigvals` decides it, and one
    batched `scipy.linalg.solve` solves every pair's
    (I (x) A + A (x) I) vec S = -vec D; from dimension 10 on scipy's
    Bartels-Stewart solver solves each pair.
    """
    d = A.shape[-1]
    if d == 2:
        a, (y11, y12, _, y22) = _entries2(A), _entries2(D)
        s11, s12, s22, hurwitz = lyapunov2_entries(*a, y11, y12, y22)
        if np.count_nonzero(hurwitz) < A.size // 4:
            raise _hurwitz_error()
        return _in_range(np.array([s11, s12, s12, s22]).T.reshape(A.shape), "Lyapunov")
    if np.count_nonzero(np.linalg.eigvals(A).real.max(axis=-1) < 0.0) < A.size // (d * d):
        raise _hurwitz_error()
    if d >= 10:
        import scipy.linalg

        return _symmetrized(scipy.linalg.solve_continuous_lyapunov(A, -D))
    lhs = np.zeros(A.shape[:-2] + (d, d, d, d))
    # lhs[..., i, k, j, l] = A[..., i, j] [k = l] + [i = j] A[..., k, l], written
    # through the diagonal views of lhs
    with np.errstate(over="ignore"):
        np.einsum("...ikjk->...kij", lhs)[...] = A[..., None, :, :]
        np.einsum("...ikil->...ikl", lhs)[...] += A[..., None, :, :]
    return _kronecker_solve(lhs, -D, "Lyapunov")


def _hurwitz_error():
    """The error of a Lyapunov equation whose A is not Hurwitz."""
    return StabilityError("Lyapunov gauging requires a Hurwitz drift")


def _kronecker_solve(lhs, rhs, equation):
    """S of the (..., d, d) right-hand sides rhs from their Kronecker systems
    lhs vec S = vec rhs, lhs of shape (..., d, d, d, d), in one batched
    `scipy.linalg.solve`, symmetrized; NumericalOverflowError where the
    system or S leaves the float range."""
    import scipy.linalg

    if np.count_nonzero(np.isfinite(lhs)) != lhs.size:
        raise NumericalOverflowError(f"the {equation} Kronecker system leaves the float range")
    batch, dd = rhs.shape[:-2], rhs.shape[-1] ** 2
    # rhs comes from checked input, and lhs is checked above
    s = scipy.linalg.solve(lhs.reshape(batch + (dd, dd)), rhs.reshape(batch + (dd, 1)),
                           check_finite=False)
    return _symmetrized(_in_range(s.reshape(rhs.shape), equation))


def _in_range(s, equation):
    """s, or NumericalOverflowError where an entry of s is not finite."""
    if np.count_nonzero(np.isfinite(s)) != s.size:
        raise NumericalOverflowError(f"the {equation} solution leaves the float range")
    return s


def solve_stein(X, Y):
    """Unique symmetric solution of S = X S X^T + Y for spr(X) < 1.

    The checked pair goes to `_stein`: the Jury triple and the adjugate
    closed forms at 2x2, the test the non-Markovian tables apply to their
    rows; the Kronecker system below dimension 10 and scipy's bilinear route
    from there on. S inherits positive semidefiniteness from Y.
    """
    X, Y = _equation_pair(X, Y, "X", "Y")
    S = _stein(X, Y)
    return GaugeCovariance(S=S, source=GaugeSource.STEIN, residual=stein_residual(X, S, Y))


def _stein(X, Y):
    """S of S = X S X^T + Y for one checked (d, d) pair, or for (n, d, d)
    stacks of them; StabilityError unless spr(X) < 1 for every pair, and
    NumericalOverflowError where a Kronecker system of the route below
    dimension 10, or its S, leaves the float range.

    2x2 goes to `_stein2`. Below dimension 10 one stacked `eigvals` decides
    stability, and one batched `scipy.linalg.solve` solves every pair's
    (I - X (x) X) vec S = vec Y, bit for bit as scipy's direct
    `solve_discrete_lyapunov` solves each pair; from dimension 10 on scipy's
    bilinear route solves each pair.
    """
    d = X.shape[-1]
    if d == 2:
        return _stein2(X, Y)
    if np.count_nonzero(abs(np.linalg.eigvals(X)).max(axis=-1) < 1.0) < X.size // (d * d):
        raise _spectral_radius_error()
    if d >= 10:
        import scipy.linalg

        return _symmetrized(scipy.linalg.solve_discrete_lyapunov(X, Y))
    # kron[..., i, k, j, l] = X[..., i, j] X[..., k, l]: np.kron(X, X) of each pair
    with np.errstate(over="ignore"):
        kron = X[..., :, None, :, None] * X[..., None, :, None, :]
    eye = np.eye(d * d).reshape(d, d, d, d)
    return _kronecker_solve(np.subtract(eye, kron, out=kron), Y, "Stein")


def _stein2(X, Y):
    """S of S = X S X^T + Y for 2x2 X and Y, or for (n, 2, 2) stacks of them:
    the Jury triple decides spr(X) < 1 (StabilityError otherwise), and
    `stein2_entries` gives S, symmetric by construction.

    One pair goes as Python floats: the kernel rounds floats and arrays
    alike, and is cheaper on floats.
    """
    x, (y11, y12, _, y22) = _entries2(X), _entries2(Y)
    t1, t2, t3 = jury_triple(*x)
    if np.count_nonzero((t1 > 0.0) & (t2 > 0.0) & (t3 > 0.0)) < X.size // 4:
        raise _spectral_radius_error()
    s11, s12, s22 = stein2_entries(*x, y11, y12, y22)
    return np.array([s11, s12, s12, s22]).T.reshape(X.shape)


def _spectral_radius_error():
    """The error of a Stein equation whose X is not Schur stable."""
    return StabilityError("Stein gauging requires spectral radius < 1")


def _entries2(m):
    """(m11, m12, m21, m22) of a 2x2 matrix as floats, or of a stack as arrays."""
    return m.ravel().tolist() if m.ndim == 2 else tuple(m.reshape(-1, 4).T)


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
    """Defective one-mode drift X = alpha (I + t N) with N != 0, N^2 = 0.

    A non-finite alpha, t or N raises NonFiniteInputError.
    """

    alpha: float
    nilpotent: np.ndarray
    t: float

    def __post_init__(self):
        n = np.asarray(self.nilpotent, dtype=float)
        if n.shape != (2, 2):
            raise DimensionError("nilpotent part must be 2x2")
        require_finite(alpha=np.asarray(self.alpha, dtype=float),
                       t=np.asarray(self.t, dtype=float), nilpotent=n)
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
    NumericalOverflowError where an entry of S leaves the float range.
    """
    if abs(drift.alpha) >= 1.0:
        raise StabilityError(f"|alpha| = {abs(drift.alpha)} >= 1: single use unstable")
    Y = np.asarray(Y, dtype=float)
    if Y.shape != (2, 2):
        raise DimensionError("Jordan closed form is a one-mode path; Y must be 2x2")
    require_finite(Y=Y)
    n, t = drift.nilpotent, drift.t
    rho = drift.alpha * drift.alpha
    one = 1.0 - rho
    ny = n @ Y
    with np.errstate(over="ignore", invalid="ignore"):
        S = (
            Y / one
            + (rho * t / (one * one)) * (ny + ny.T)
            + (rho * (1.0 + rho) * t * t / (one * one * one)) * (ny @ n.T)
        )
    if np.count_nonzero(np.isfinite(S)) != S.size:
        raise NumericalOverflowError(f"Jordan closed form leaves the float range at t = {t}")
    return GaugeCovariance(
        S=S,
        source=GaugeSource.JORDAN_CLOSED_FORM,
        residual=stein_residual(drift.X, S, Y),
    )


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
        raise _overflow_error(times.ravel()[np.argmin(np.isfinite(e).all(axis=(-2, -1)))])
    return e


def _overflow_error(t):
    """The error of exp(t A) beyond the float range at the time t."""
    return NumericalOverflowError(f"exp(t A) leaves the float range at t = {t}")
