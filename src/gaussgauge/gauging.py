"""Noise gauging: similarity transforms that remove diffusion from channels.

The smoothing map V_S = (I, S, 0) conjugates a channel to
(X, Y + X S X^T - S, delta). With S solving the Stein equation the diffusion
of a single stable channel vanishes; with S solving the Lyapunov equation the
whole semigroup loses its diffusion uniformly in time, which `gauge_semigroup`
checks on a time grid from one stacked pass over all its channels. Both
transforms leave X and delta bitwise unchanged, hence eigenvalues and Jordan
structure of the drift, so exceptional points are unaffected. The inverse
map (I, -S, 0) and the gauged channels are generically not CP.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionError,
    StabilityError,
    _square,
    _symmetric,
    _symmetrized,
    require_finite,
)
from .generators import _semigroup_stack
from .matrix_equations import (
    GaugeCovariance,
    GaugeSource,
    _lyapunov,
    _stein,
    lyapunov_residual,
    stein_residual,
)
from .phase_space import GaussianChannel


@dataclass(frozen=True)
class SmoothingMap:
    """Gaussian smoothing map V_S = (I, S, 0) and its formal inverse.

    S must be a finite symmetric matrix of even dimension: DimensionError or
    NonFiniteInputError otherwise.
    """

    S: np.ndarray

    def __post_init__(self):
        s = np.asarray(self.S, dtype=float)
        _square("smoothing covariance", s, even=True)
        require_finite(S=s)
        object.__setattr__(self, "S", _symmetric("smoothing covariance", s))

    def forward(self):
        n2 = self.S.shape[0]
        return GaussianChannel(np.eye(n2), self.S, np.zeros(n2))

    def inverse(self):
        n2 = self.S.shape[0]
        return GaussianChannel(np.eye(n2), -self.S, np.zeros(n2))

    def conjugate(self, channel):
        """V_S^{-1} o channel o V_S at the parameter level: (X, X S X^T + Y - S, delta)."""
        if self.S.shape != channel.X.shape:
            raise DimensionError(f"smoothing map {self.S.shape} for a channel of {channel.X.shape}")
        return GaussianChannel(X=channel.X, Y=_gauged_y(channel.X, self.S, channel.Y),
                               delta=channel.delta)


def _gauged_y(X, S, Y):
    """The diffusion X S X^T + Y - S of V_S^{-1} o (X, Y, delta) o V_S,
    symmetric, for one channel or stacks of them."""
    return _symmetrized(X @ S @ X.swapaxes(-1, -2) + Y) - S


@dataclass(frozen=True)
class GaugingResult:
    """Gauged channel, the Stein covariance, and the leftover diffusion norm."""

    gauged: GaussianChannel
    S: GaugeCovariance
    residual_Y: float


def gauge_channel(channel):
    """Remove Y from a stable channel by the Stein smoothing similarity.

    Returns the gauged representative (X, 0, delta) with X and delta bitwise
    equal to the input's, and as `residual_Y` the max-norm of the diffusion
    X S X^T + Y - S that the conjugation by V_S leaves.
    """
    X, Y = channel.X, channel.Y
    S = _stein(X, Y)
    return GaugingResult(
        gauged=GaussianChannel(X=X, Y=np.zeros_like(Y), delta=channel.delta),
        S=GaugeCovariance(S=S, source=GaugeSource.STEIN, residual=stein_residual(X, S, Y)),
        residual_Y=float(np.max(np.abs(_gauged_y(X, S, Y)))),
    )


def default_gauge_times(A, count=20):
    """Log-spaced verification times in [1e-3, 10/|max Re lambda(A)|]; for
    an (n, d, d) stack of drifts one row per drift."""
    A = np.asarray(A, dtype=float)
    _square("drift", A, stack=True)
    require_finite(A=A)
    if count < 0:
        raise DimensionError(f"gauge time count must be nonnegative, got {count}")
    decay = -np.linalg.eigvals(A).real.max(axis=-1)
    if np.count_nonzero(decay <= 0):
        raise StabilityError("default gauge times need a Hurwitz drift")
    return np.geomspace(1e-3, 10.0 / decay, count, axis=-1)


@dataclass(frozen=True)
class SemigroupGaugingResult:
    """Single time-independent covariance and the per-time gauging residuals."""

    S: GaugeCovariance
    times: np.ndarray
    residuals: np.ndarray
    max_residual: float


def gauge_semigroup(generator, times=None):
    """Gauge the whole semigroup with the one Lyapunov covariance.

    The channels at all verification times come from one stacked
    `semigroup_arrays` pass, and each residual max|X_t S X_t^T + Y_t - S|,
    the worst leftover diffusion entry of V_S^{-1} o channel o V_S, from
    stacked products (`_semigroup_gauge`); the theorem makes every residual
    vanish identically. Times must be 1-D, finite and nonnegative. A drift
    that is not Hurwitz raises StabilityError from the Lyapunov solve.
    """
    A, D = generator.A, generator.D
    S, times, residuals = _semigroup_gauge(
        A, D, generator.u, None if times is None else np.asarray(times, dtype=float))
    return SemigroupGaugingResult(
        S=GaugeCovariance(S=S, source=GaugeSource.LYAPUNOV, residual=lyapunov_residual(A, S, D)),
        times=times,
        residuals=residuals,
        max_residual=float(residuals.max()) if residuals.size else 0.0,
    )


def _semigroup_gauge(A, D, u, times=None):
    """The Lyapunov covariance S of one checked generator (A, D, u), or of
    (n, d, d), (n, d, d) and (n, d) stacks, its times (`default_gauge_times`
    where None) and the residuals max|X_t S X_t^T + Y_t - S| there, one row
    per generator."""
    S = _lyapunov(A, D)
    times = default_gauge_times(A) if times is None else times
    x, y, _ = _semigroup_stack(A, D, u, times)
    s = S[..., None, :, :]
    return S, times, abs(x @ s @ x.swapaxes(-1, -2) + y - s).max(axis=(-2, -1))
