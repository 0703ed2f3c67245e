"""Symplectic conventions, Gaussian channels and states on first/second moments.

A Gaussian channel is the triple (X, Y, delta) acting on moments as
d -> X d + delta and V -> X V X^T + Y. States are moment pairs (d, V) in
dimensionless quadrature units with vacuum V = I/2. Every record is in the
grouped quadrature ordering (q1..qN, p1..pN). The interleaved ordering
(q1, p1, ..., qN, pN) exists only at the boundary: `reorder` converts
vectors and matrices between the two, and `symplectic_form` takes either.
"""

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DimensionError, _frozen, _square, _symmetric, _symmetrized, require_finite
from .onemode import CP_REL_TOL, cp_margin_entries


class Ordering(str, Enum):
    GROUPED = "grouped"
    INTERLEAVED = "interleaved"


class CpMethod(str, Enum):
    HERMITIAN_EIG = "hermitian-eig"
    DET_CONDITION = "det-condition"


def symplectic_form(modes, ordering=Ordering.GROUPED):
    """Symplectic form for `modes` bosonic modes in the requested ordering.

    Grouped gives the block form [[0, I], [-I, 0]]; interleaved the direct sum
    of N copies of [[0, 1], [-1, 0]]. The returned array is read-only.
    """
    if modes < 1:
        raise DimensionError(f"mode count must be >= 1, got {modes}")
    ordering = Ordering(ordering)
    n = modes
    m = np.zeros((2 * n, 2 * n))
    if ordering is Ordering.GROUPED:
        m[:n, n:] = np.eye(n)
        m[n:, :n] = -np.eye(n)
    else:
        for i in range(n):
            m[2 * i, 2 * i + 1] = 1.0
            m[2 * i + 1, 2 * i] = -1.0
    m.setflags(write=False)
    return m


def interleaving_permutation(modes):
    """Permutation P with x_grouped = P @ r_interleaved.

    P[i, 2i] = 1 and P[N+i, 2i+1] = 1 (zero-based), so conjugation by P maps
    interleaved-ordered matrices to grouped ones.
    """
    n = modes
    p = np.zeros((2 * n, 2 * n))
    for i in range(n):
        p[i, 2 * i] = 1.0
        p[n + i, 2 * i + 1] = 1.0
    return p


def reorder(obj, src, dst):
    """Convert a vector or square matrix between quadrature orderings.

    Matrices conjugate by the permutation, vectors transform linearly; the
    round trip is an exact permutation of entries.
    """
    src, dst = Ordering(src), Ordering(dst)
    obj = np.asarray(obj, dtype=float)
    # a vector of length 2N reorders as the diagonal of a 2N x 2N matrix
    _square("reorder input", np.diag(obj) if obj.ndim == 1 else obj, even=True)
    if src == dst:
        return obj.copy()
    p = interleaving_permutation(obj.shape[0] // 2)
    if src is Ordering.INTERLEAVED:  # to grouped
        mat = p
    else:  # grouped to interleaved
        mat = p.T
    if obj.ndim == 1:
        return mat @ obj
    return mat @ obj @ mat.T


@dataclass(frozen=True)
class MomentState:
    """First moments d and symmetrized covariance V of a Gaussian state."""

    d: np.ndarray
    V: np.ndarray

    def __post_init__(self):
        d = np.atleast_1d(np.asarray(self.d, dtype=float))
        v = np.asarray(self.V, dtype=float)
        _square("covariance matrix", v, even=True)
        if d.shape != v.shape[:1]:
            raise DimensionError(f"moment vector shape {d.shape} does not match V {v.shape}")
        require_finite(d=d, V=v)
        object.__setattr__(self, "d", _frozen(d))
        object.__setattr__(self, "V", _symmetric("covariance matrix", v))

    @property
    def modes(self):
        return self.d.shape[0] // 2


def vacuum_state(modes):
    """Vacuum: d = 0, V = I/2 (dimensionless quadrature units)."""
    return MomentState(d=np.zeros(2 * modes), V=0.5 * np.eye(2 * modes))


@dataclass(frozen=True)
class GaussianChannel:
    """Gaussian channel (X, Y, delta) in the grouped ordering.

    Complete positivity is not enforced at construction: gauged
    representatives (X, 0, delta) are generically not CP, and `cp_check`
    decides it.
    """

    X: np.ndarray
    Y: np.ndarray
    delta: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.X, dtype=float)
        y = np.asarray(self.Y, dtype=float)
        d = np.atleast_1d(np.asarray(self.delta, dtype=float))
        _square("channel drift", x, even=True)
        if y.shape != x.shape or d.shape != x.shape[:1]:
            raise DimensionError(
                f"inconsistent channel shapes X{x.shape} Y{y.shape} delta{d.shape}"
            )
        require_finite(X=x, Y=y, delta=d)
        object.__setattr__(self, "X", _frozen(x))
        object.__setattr__(self, "Y", _symmetric("channel diffusion matrix", y))
        object.__setattr__(self, "delta", _frozen(d))

    @property
    def modes(self):
        return self.X.shape[0] // 2


def identity_channel(modes):
    n2 = 2 * modes
    return GaussianChannel(np.eye(n2), np.zeros((n2, n2)), np.zeros(n2))


def apply_channel(channel, state):
    """Moment action d -> X d + delta, V -> X V X^T + Y (V resymmetrized)."""
    if channel.X.shape[0] != state.d.shape[0]:
        raise DimensionError(
            f"channel acts on {channel.modes} modes, state has {state.modes}"
        )
    d = channel.X @ state.d + channel.delta
    v = channel.X @ state.V @ channel.X.T + channel.Y
    return MomentState(d=d, V=_symmetrized(v))


def compose(second, first):
    """Composition second o first: (X2 X1, X2 Y1 X2^T + Y2, X2 delta1 + delta2)."""
    if second.modes != first.modes:
        raise DimensionError(f"mode mismatch: {second.modes} modes vs {first.modes} modes")
    return GaussianChannel(
        X=second.X @ first.X,
        Y=second.X @ first.Y @ second.X.T + second.Y,
        delta=second.X @ first.delta + second.delta,
    )


@dataclass(frozen=True)
class CpReport:
    """Complete-positivity verdict with its margin.

    For the Hermitian route the margin is the least eigenvalue of
    Y + (i/2)(Sigma - X Sigma X^T); for the one-mode determinant route it is
    min(lambda_min(Y), det Y - ((1 - det X)/2)^2).
    """

    passes: bool
    margin: float
    method: CpMethod
    tolerance: float


def cp_matrix(channel):
    """Hermitian CP matrix Y + (i/2)(Sigma - X Sigma X^T)."""
    sigma = symplectic_form(channel.modes)
    return channel.Y + 0.5j * (sigma - channel.X @ sigma @ channel.X.T)


def cp_check(channel, method=None):
    """Check complete positivity of a channel.

    The Hermitian route diagonalizes the CP matrix; the one-mode route uses
    the scalar reduction Y >= 0 and det Y >= ((1 - det X)/2)^2. Both must
    agree on pass/fail away from the tolerance band.
    """
    if method is None:
        method = CpMethod.DET_CONDITION if channel.modes == 1 else CpMethod.HERMITIAN_EIG
    method = CpMethod(method)
    if method is CpMethod.HERMITIAN_EIG:
        return _hermitian_cp_report(cp_matrix(channel))
    if channel.modes != 1:
        raise DimensionError("determinant CP condition applies to one mode only")
    y11, y12, _, y22 = channel.Y.ravel().tolist()
    margin, tol = cp_margin_entries(*channel.X.ravel().tolist(), y11, y12, y22)
    return CpReport(passes=bool(margin >= -tol), margin=margin, method=method, tolerance=tol)


def _hermitian_cp_report(z):
    """The verdict on a Hermitian CP matrix z, of a channel or a generator:
    CP iff its least eigenvalue is >= -CP_REL_TOL (1 + max|z|)."""
    tol = CP_REL_TOL * (1.0 + float(abs(z).max()))
    margin = float(np.linalg.eigvalsh(z).min())
    return CpReport(passes=margin >= -tol, margin=margin, method=CpMethod.HERMITIAN_EIG,
                    tolerance=tol)
