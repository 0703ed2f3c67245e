"""Concrete single-mode families: squeezed reservoir, non-Markovian maps, thermal loss.

The squeezed-reservoir Lindbladian has drift A = [[-k/2, D-e], [-(D+e), -k/2]]
with an exceptional point exactly on D^2 = e^2 (e != 0) and a phase-sensitive
diffusion; its Lyapunov gauge covariance has a closed form on each EP
branch. The EP-branch covariance entries (`squeezed_ep_entries`) and the
drift eigenvalues (`squeezed_eigenvalue_entries`) take floats or whole
grids: the scalar API (`squeezed_ep_gauge`, `squeezed_drift_eigenvalues`)
and the `squeezed-gauge` and `drift-eigs` sweeps share them bit for bit.
They follow the rule of the `onemode` kernels: cosh, sinh, cos and sin are
numpy ufuncs and squares are products, so a float and the matching array
element round alike. The non-Markovian family X_t = kappa(t) e^{tB} with
memory factor kappa(t) = exp(-gamma t + r sin(nu t)) (gamma > 0 and
0 < r < gamma/nu, so kappa(t) < 1) is defective on the lines
lambda = +-omega, where the Stein covariance follows from the Jordan closed
form for three diffusion structures. The thermal attenuator, whose drift is
proportional to the identity, is the standard channel that cannot have an EP.
"""

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import (
    DegenerateModelError,
    DimensionError,
    NumericalOverflowError,
    PhysicalityError,
    StabilityError,
    require_finite,
)
from .generators import GaussianGenerator, LindbladData
from .matrix_equations import (
    GaugeCovariance,
    GaugeSource,
    JordanDrift2x2,
    drift_exponential,
    lyapunov_residual,
    stein_jordan_closed_form,
)
from .phase_space import GaussianChannel, cp_check


class EpBranch(str, Enum):
    PLUS = "plus"
    MINUS = "minus"


# ---------------------------------------------------------------------------
# Squeezed-reservoir Lindbladian
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SqueezedReservoirParams:
    """Damping kappa, detuning delta, parametric drive epsilon, squeezing (r, phi)."""

    kappa: float
    delta: float
    epsilon: float
    r: float = 0.0
    phi: float = 0.0

    def __post_init__(self):
        if self.kappa <= 0:
            raise DimensionError("kappa must be positive")
        if self.r < 0:
            raise DimensionError("squeezing magnitude r must be nonnegative")


def _cosh_sinh(x):
    """(cosh x, sinh x) of a float or array.

    Raises NumericalOverflowError where they leave the float range.
    """
    try:
        with np.errstate(over="raise"):
            return np.cosh(x), np.sinh(x)
    except FloatingPointError:
        raise NumericalOverflowError(
            f"cosh({float(np.max(np.abs(x))):g}) leaves the float range") from None


def squeezed_hamiltonian_matrix(params):
    """Degenerate parametric amplifier: H_S = diag(delta + eps, delta - eps)."""
    return np.diag([params.delta + params.epsilon, params.delta - params.epsilon])


def squeezed_jump_row(params):
    """Coefficients of the Bogoliubov jump L = cosh(r) a + e^{i phi} sinh(r) a^dag."""
    ch, sh = _cosh_sinh(params.r)
    phase = complex(np.cos(params.phi), np.sin(params.phi))
    return np.array([ch + phase * sh, 1j * (ch - phase * sh)]) / math.sqrt(2.0)


def squeezed_lindblad_data(params):
    return LindbladData(
        H=squeezed_hamiltonian_matrix(params),
        jump_rows=(squeezed_jump_row(params),),
        rate=params.kappa,
    )


def squeezed_generator(params):
    """Closed-form drift and diffusion of the squeezed-reservoir model.

    A = [[-k/2, delta-eps], [-(delta+eps), -k/2]],
    D = (k/2) [[c2r - s2r cos phi, -s2r sin phi], [-s2r sin phi, c2r + s2r cos phi]].
    Identical to `from_lindblad(squeezed_lindblad_data(params))`. Raises
    NumericalOverflowError where D leaves the float range.
    """
    k, dlt, eps = params.kappa, params.delta, params.epsilon
    c2, s2 = _cosh_sinh(2 * params.r)
    cp, sp = np.cos(params.phi), np.sin(params.phi)
    a = np.array([[-0.5 * k, dlt - eps], [-(dlt + eps), -0.5 * k]])
    with np.errstate(over="ignore"):
        d = 0.5 * k * np.array([[c2 - s2 * cp, -s2 * sp], [-s2 * sp, c2 + s2 * cp]])
    if np.count_nonzero(np.isfinite(d)) != d.size:
        raise NumericalOverflowError(f"squeezed diffusion leaves the float range at r = {params.r:g}")
    return GaussianGenerator(A=a, D=d, u=np.zeros(2))


def squeezed_drift_eigenvalues(params):
    """lambda_pm = -kappa/2 +- sqrt(eps^2 - delta^2) (complex for delta^2 > eps^2)."""
    return np.array(squeezed_eigenvalue_entries(params.kappa, params.delta, params.epsilon))


def squeezed_eigenvalue_entries(kappa, delta, epsilon):
    """Drift eigenvalues (lambda_minus, lambda_plus) as complex floats or arrays.

    kappa, delta and epsilon are floats or arrays of one shape.
    """
    disc = epsilon * epsilon - delta * delta
    root = np.sqrt(np.asarray(disc, dtype=complex))
    return -0.5 * kappa - root, -0.5 * kappa + root


def squeezed_ep_gauge(params, branch):
    """Closed-form gauge covariance directly on an EP branch delta = +-eps.

    The detuning is pinned to the branch internally (params.delta is ignored).
    """
    branch = EpBranch(branch)
    k, eps = params.kappa, params.epsilon
    s_qq, s_qp, s_pp = squeezed_ep_entries(k, eps, params.r, params.phi, branch)
    s = np.array([[s_qq, s_qp], [s_qp, s_pp]])
    sign = 1.0 if branch is EpBranch.PLUS else -1.0
    gen = squeezed_generator(SqueezedReservoirParams(k, sign * eps, eps, params.r, params.phi))
    return GaugeCovariance(
        S=s, source=GaugeSource.EP_BRANCH_FORMULA, residual=lyapunov_residual(gen.A, s, gen.D)
    )


def squeezed_ep_entries(kappa, epsilon, r, phi, branch):
    """Entries (s_qq, s_qp, s_pp) of the gauge covariance on the EP branch delta = +-eps.

    kappa, epsilon, r and phi are floats or arrays of one shape; an entry that
    does not depend on the arrays is a float. `squeezed_ep_gauge` calls this
    on floats and the `squeezed-gauge` sweep once on a whole grid, and both
    round alike. Each branch substitutes delta = +-eps into the general
    off-manifold solution; a bare eps -> -eps sign flip in the Plus-branch
    expressions does not solve the Minus-branch Lyapunov equation. Raises
    NumericalOverflowError where an entry leaves the float range.
    """
    k, eps = kappa, epsilon
    c2, s2 = _cosh_sinh(2 * r)
    cos_phi = np.cos(phi)
    with np.errstate(over="ignore", invalid="ignore"):
        big = c2 - s2 * cos_phi  # cosh(2r) - sinh(2r) cos(phi)
        small = c2 + s2 * cos_phi
        ss = s2 * np.sin(phi)
        if EpBranch(branch) is EpBranch.PLUS:
            s_qq = 0.5 * big
            s_qp = -0.5 * ss - (eps / k) * big
            s_pp = 0.5 * small + (2.0 * eps / k) * ss + (4.0 * eps * eps / (k * k)) * big
        else:
            s_pp = 0.5 * small
            s_qp = -0.5 * ss - (eps / k) * small
            s_qq = 0.5 * big + (2.0 * eps / k) * ss + (4.0 * eps * eps / (k * k)) * small
    if not all(np.all(np.isfinite(entry)) for entry in (s_qq, s_qp, s_pp)):
        raise NumericalOverflowError("EP-branch gauge covariance leaves the float range")
    return s_qq, s_qp, s_pp


# ---------------------------------------------------------------------------
# Non-Markovian family X_t = kappa(t) exp(t B(lambda, omega))
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IsotropicDiffusion:
    """Y_t = y(t) I with y(t) = |1 - kappa(t)^2|/2 + eps_buffer."""


@dataclass(frozen=True)
class AnisotropicDiffusion:
    """Y_t = diag(g e^s, g e^-s) with det Y_t = g^2 at the near-minimal target.

    NumericalOverflowError where e^|s| leaves the float range (|s| > 709.78).
    """

    s: float = 0.5

    def __post_init__(self):
        try:
            math.exp(abs(self.s))
        except OverflowError:
            raise NumericalOverflowError(f"e^s leaves the float range at s = {self.s}") from None


@dataclass(frozen=True)
class DriftAlignedDiffusion:
    """Y_t = nu (I + alpha B B^T / tr(B B^T)), nu fixed by the determinant target."""

    alpha: float = 1.0

    def __post_init__(self):
        if self.alpha <= 0:
            raise DimensionError("drift-aligned weight alpha must be positive")


@dataclass(frozen=True)
class NmFamilyParams:
    """Drift plane coordinates (lam, omega) plus memory and diffusion settings."""

    lam: float
    omega: float
    gamma: float = 1.0
    r_mem: float = 0.3
    nu: float = 1.0
    diffusion: object = field(default_factory=IsotropicDiffusion)
    eps_buffer: float = 1e-3

    def __post_init__(self):
        if self.eps_buffer <= 0:
            raise DimensionError("CP buffer eps_buffer must be positive")
        # gamma > 0 and 0 < r_mem < gamma/nu give r_mem sin(nu t) < gamma t,
        # so the memory factor kappa(t) decays below 1 for every t > 0
        if self.gamma <= 0:
            raise DimensionError("memory decay rate gamma must be positive")
        if self.nu == 0:
            raise DimensionError("memory frequency nu must be nonzero")
        if not 0 < self.r_mem < self.gamma / self.nu:
            raise DimensionError("memory amplitude must satisfy 0 < r_mem < gamma/nu")


def drift_tensor(lam, omega):
    """Traceless two-parameter drift generator B(lam, omega)."""
    return np.array([[lam, omega], [-omega, -lam]])


def memory_factor(params, t):
    """Non-exponential memory kappa(t) = exp(-gamma t + r_mem sin(nu t))."""
    return math.exp(-params.gamma * t + params.r_mem * math.sin(params.nu * t))


def nm_drift(params, t, lam=None, omega=None):
    lam = params.lam if lam is None else lam
    omega = params.omega if omega is None else omega
    return memory_factor(params, t) * drift_exponential(drift_tensor(lam, omega), t)


def nm_diffusion(params, t, lam=None, omega=None):
    """Near-minimal diffusion matrix of the selected model at time t; raises where undefined."""
    lam = params.lam if lam is None else lam
    omega = params.omega if omega is None else omega
    if isinstance(params.diffusion, DriftAlignedDiffusion) and lam * lam + omega * omega == 0.0:
        raise DegenerateModelError("drift-aligned diffusion undefined at B = 0")
    y11, y12, y22 = nm_diffusion_entries(params, memory_factor(params, t), lam, omega)
    y = np.array([[y11, y12], [y12, y22]])
    require_finite(Y=y)
    return y


def nm_diffusion_entries(params, kt, lam, omega):
    """Entries (y11, y12, y22) of the model's Y_t at memory factor kt = kappa(t).

    lam and omega are floats or arrays of one shape; an entry that does not
    depend on them is a float. Raises PhysicalityError when the determinant
    target is not positive. The drift-aligned model is undefined at B = 0,
    where its array entries are NaN (`nm_diffusion` raises there instead).
    """
    model = params.diffusion
    if isinstance(model, IsotropicDiffusion):
        y = 0.5 * abs(1.0 - kt * kt) + params.eps_buffer
        return y, 0.0, y
    g = 0.5 * (1.0 - kt * kt) + params.eps_buffer
    if g <= 0:
        raise PhysicalityError(
            f"determinant target {g:.3e} not positive (kappa(t) = {kt:.4f} > 1)"
        )
    if isinstance(model, AnisotropicDiffusion):
        return g * math.exp(model.s), 0.0, g * math.exp(-model.s)
    if isinstance(model, DriftAlignedDiffusion):
        # M = I + alpha B B^T / tr(B B^T); (B B^T)_11 = (B B^T)_22 = lam^2 + omega^2
        w11 = lam * lam + omega * omega
        w12 = -2.0 * lam * omega
        tr = w11 + w11
        with np.errstate(divide="ignore", invalid="ignore"):
            m11 = 1.0 + model.alpha * w11 / tr
            m12 = model.alpha * w12 / tr
        scale = g / np.sqrt(m11 * m11 - m12 * m12)
        return scale * m11, scale * m12, scale * m11
    raise DimensionError(f"unknown diffusion model {model!r}")


def nm_channel(params, t, lam=None, omega=None):
    """Fixed-time map (X_t, Y_t, 0) of the non-Markovian family.

    Construction does not require stability (only downstream Stein calls do);
    complete positivity is verified through the one-mode determinant check.
    """
    if t <= 0:
        raise DimensionError("family time must be positive")
    channel = GaussianChannel(
        X=nm_drift(params, t, lam, omega),
        Y=nm_diffusion(params, t, lam, omega),
        delta=np.zeros(2),
    )
    report = cp_check(channel)
    if not report.passes:
        raise _cp_violation(report.margin)
    return channel


def _cp_violation(margin):
    """The error of a non-Markovian map that is not CP, with its CP margin."""
    return PhysicalityError(f"channel violates CP (margin {margin:.3e})")


def nm_ep_gauge(params, t, branch):
    """Jordan closed-form Stein covariance on an EP line lambda = +-omega.

    Uses alpha = kappa(t) and N = B(+-omega, omega); requires kappa(t) < 1 for
    the single channel use to be stable.
    """
    branch = EpBranch(branch)
    if params.omega == 0:
        raise DegenerateModelError("EP branches need omega != 0 (B = 0 is not defective)")
    lam = params.omega if branch is EpBranch.PLUS else -params.omega
    kt = memory_factor(params, t)
    if kt >= 1.0:
        raise StabilityError(f"kappa(t) = {kt:.4f} >= 1: single use unstable")
    drift = JordanDrift2x2(alpha=kt, nilpotent=drift_tensor(lam, params.omega), t=t)
    return stein_jordan_closed_form(drift, nm_diffusion(params, t, lam, params.omega))


# ---------------------------------------------------------------------------
# Thermal attenuator
# ---------------------------------------------------------------------------


def thermal_loss_channel(eta, nbar=0.0):
    """Attenuator (sqrt(eta) I, (1-eta)(2 nbar + 1)/2 I, 0); X ~ I, never defective."""
    if not 0.0 <= eta <= 1.0:
        raise DimensionError("transmissivity eta must lie in [0, 1]")
    if nbar < 0:
        raise DimensionError("occupancy nbar must be nonnegative")
    return GaussianChannel(
        X=math.sqrt(eta) * np.eye(2),
        Y=0.5 * (1.0 - eta) * (2.0 * nbar + 1.0) * np.eye(2),
        delta=np.zeros(2),
    )
