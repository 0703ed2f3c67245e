"""Symplectic conventions, Gaussian channels and states on first/second moments.

A Gaussian channel is the triple (X, Y, delta) acting on moments as
d -> X d + delta and V -> X V X^T + Y. States are moment pairs (d, V) in
dimensionless quadrature units with vacuum V = I/2. Every record, and
`symplectic_form`, is in the grouped quadrature ordering (q1..qN, p1..pN).
"""

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, _frozen, _square, _symmetric, _symmetrized, require_finite
from .onemode import CP_REL_TOL, cp_margin_entries


def symplectic_form(modes):
    """Read-only symplectic form [[0, I], [-I, 0]] of `modes` bosonic modes."""
    if modes < 1:
        raise DimensionError(f"mode count must be >= 1, got {modes}")
    m = np.zeros((2 * modes, 2 * modes))
    m[:modes, modes:] = np.eye(modes)
    m[modes:, :modes] = -np.eye(modes)
    m.setflags(write=False)
    return m


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
    """Moment action d -> X d + delta, V -> X V X^T + Y (V resymmetrized), by `_applied`."""
    if channel.X.shape[0] != state.d.shape[0]:
        raise DimensionError(
            f"channel acts on {channel.modes} modes, state has {state.modes}"
        )
    d, v = _applied(channel.X, channel.Y, channel.delta, state.d, state.V)
    return MomentState(d=d, V=v)


def _applied(x, y, delta, d, v):
    """(X d + delta, X V X^T + Y symmetrized) of one channel's (X, Y, delta)
    on one state's (d, V), or of stacks of them: (n, d, d) matrices and
    (n, d) vectors."""
    return (x @ d[..., None])[..., 0] + delta, _symmetrized(x @ v @ x.swapaxes(-1, -2) + y)


def compose(second, first):
    """Composition second o first: (X2 X1, X2 Y1 X2^T + Y2, X2 delta1 + delta2), by `_composed`."""
    if second.modes != first.modes:
        raise DimensionError(f"mode mismatch: {second.modes} modes vs {first.modes} modes")
    x, y, delta = _composed(second.X, second.Y, second.delta, first.X, first.Y, first.delta)
    return GaussianChannel(X=x, Y=y, delta=delta)


def _composed(x2, y2, delta2, x1, y1, delta1):
    """(X2 X1, X2 Y1 X2^T + Y2 symmetrized, X2 delta1 + delta2) of two
    channels' (X, Y, delta), or of stacks of them: (n, d, d) matrices and
    (n, d) vectors."""
    return (x2 @ x1, _symmetrized(x2 @ y1 @ x2.swapaxes(-1, -2) + y2),
            (x2 @ delta1[..., None])[..., 0] + delta2)


@dataclass(frozen=True)
class CpReport:
    """Complete-positivity verdict with its margin: for one mode
    min(lambda_min(Y), det Y - ((1 - det X)/2)^2), for more modes the least
    eigenvalue of the Hermitian CP matrix Y + (i/2)(Sigma - X Sigma X^T)."""

    passes: bool
    margin: float
    tolerance: float


def cp_check(channel):
    """Check complete positivity of a channel by the margin of its mode count (see `CpReport`)."""
    if channel.modes == 1:
        y11, y12, _, y22 = channel.Y.ravel().tolist()
        margin, tol = cp_margin_entries(*channel.X.ravel().tolist(), y11, y12, y22)
        return CpReport(passes=bool(margin >= -tol), margin=margin, tolerance=tol)
    sigma = symplectic_form(channel.modes)
    return _hermitian_cp_report(channel.Y + 0.5j * (sigma - channel.X @ sigma @ channel.X.T))


def _hermitian_cp_report(z):
    """The verdict on a Hermitian CP matrix z, of a channel or a generator:
    CP iff its least eigenvalue is >= -CP_REL_TOL (1 + max|z|)."""
    tol = CP_REL_TOL * (1.0 + float(abs(z).max()))
    margin = float(np.linalg.eigvalsh(z).min())
    return CpReport(passes=margin >= -tol, margin=margin, tolerance=tol)
