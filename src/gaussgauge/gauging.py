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
from .generators import semigroup_arrays
from .matrix_equations import GaugeCovariance, GaugeSource, _stein, solve_lyapunov, stein_residual
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
    """The diffusion X S X^T + Y - S of V_S^{-1} o (X, Y, delta) o V_S, symmetric."""
    return _symmetrized(X @ S @ X.T + Y) - S


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
    """Log-spaced verification times in [1e-3, 10/|max Re lambda(A)|]."""
    decay = -float(np.max(np.linalg.eigvals(np.asarray(A, dtype=float)).real))
    if decay <= 0:
        raise StabilityError("default gauge times need a Hurwitz drift")
    return np.geomspace(1e-3, 10.0 / decay, count)


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
    stacked products; the theorem makes every residual vanish identically.
    Times must be 1-D, finite and nonnegative. A drift that is not Hurwitz
    raises StabilityError from the Lyapunov solve.
    """
    cov = solve_lyapunov(generator.A, generator.D)
    times = default_gauge_times(generator.A) if times is None else np.asarray(times, dtype=float)
    x, y, _ = semigroup_arrays(generator, times)
    s = cov.S
    residuals = abs(x @ s @ x.transpose(0, 2, 1) + y - s).max(axis=(1, 2))
    return SemigroupGaugingResult(
        S=cov,
        times=times,
        residuals=residuals,
        max_residual=float(residuals.max()) if residuals.size else 0.0,
    )
