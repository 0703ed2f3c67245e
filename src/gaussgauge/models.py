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
0 < r < gamma/nu, so kappa(t) < 1 up to rounding) is defective on the lines
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
    NonFiniteInputError,
    NumericalOverflowError,
    PhysicalityError,
    StabilityError,
)
from .generators import GaussianGenerator, LindbladData
from .matrix_equations import (
    GaugeCovariance,
    GaugeSource,
    JordanDrift2x2,
    _overflow_error,
    _spectral_radius_error,
    lyapunov_residual,
    stein_jordan_closed_form,
)
from .onemode import cp_margin_entries, expm2_entries, jury_triple
from .phase_space import GaussianChannel


class EpBranch(str, Enum):
    PLUS = "plus"
    MINUS = "minus"


def _require_finite_values(**values):
    """Raise NonFiniteInputError naming the first float value that is NaN or
    infinite; on a float `math.isfinite` takes 16 ns, `np.isfinite` 0.5 us."""
    for name, value in values.items():
        if not math.isfinite(value):
            raise NonFiniteInputError(f"{name} must be finite, got {value}")


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
        _require_finite_values(**vars(self))
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


def squeezed_ep_gauge(params):
    """Closed-form gauge covariance on the EP branch of params.delta: delta = eps
    is the plus branch, delta = -eps the minus branch (both at eps = 0, where
    they agree); any other delta raises DimensionError."""
    k, eps = params.kappa, params.epsilon
    if params.delta not in (eps, -eps):
        raise DimensionError(f"EP branches need delta = +-epsilon, got delta = {params.delta}")
    branch = EpBranch.PLUS if params.delta == eps else EpBranch.MINUS
    s_qq, s_qp, s_pp = squeezed_ep_entries(k, eps, params.r, params.phi, branch)
    s = np.array([[s_qq, s_qp], [s_qp, s_pp]])
    gen = squeezed_generator(params)
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
        _require_finite_values(s=self.s)
        try:
            math.exp(abs(self.s))
        except OverflowError:
            raise NumericalOverflowError(f"e^s leaves the float range at s = {self.s}") from None


@dataclass(frozen=True)
class DriftAlignedDiffusion:
    """Y_t = nu (I + alpha B B^T / tr(B B^T)), nu fixed by the determinant target."""

    alpha: float = 1.0

    def __post_init__(self):
        _require_finite_values(alpha=self.alpha)
        if self.alpha <= 0:
            raise DimensionError("drift-aligned weight alpha must be positive")


@dataclass(frozen=True, kw_only=True)
class NmFamilyParams:
    """Keyword-only memory and diffusion settings of the non-Markovian family,
    which give kappa(t) < 1 for t > 0 up to rounding; the drift-plane point
    (lam, omega) is an argument of each `nm_*` call."""

    gamma: float = 1.0
    r_mem: float = 0.3
    nu: float = 1.0
    diffusion: object = field(default_factory=IsotropicDiffusion)
    eps_buffer: float = 1e-3

    def __post_init__(self):
        _require_finite_values(
            gamma=self.gamma, r_mem=self.r_mem, nu=self.nu, eps_buffer=self.eps_buffer)
        if self.eps_buffer <= 0:
            raise DimensionError("CP buffer eps_buffer must be positive")
        # gamma > 0 and 0 < r_mem < gamma/nu give r_mem sin(nu t) < gamma t,
        # so the memory factor kappa(t) decays below 1 for every t > 0, up to rounding
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
    _require_finite_values(t=t)
    return math.exp(-params.gamma * t + params.r_mem * math.sin(params.nu * t))


def nm_diffusion_entries(params, kt, lam, omega):
    """Entries (y11, y12, y22) of the model's Y_t at memory factor kt = kappa(t).

    lam and omega are floats or arrays of one shape; an entry that does not
    depend on them is a float. Raises PhysicalityError when the determinant
    target is not positive. The drift-aligned entries are NaN at B = 0 and
    NaN or infinite beyond the float range, with numpy's warnings silenced.
    """
    model = params.diffusion
    if isinstance(model, IsotropicDiffusion):
        y = 0.5 * abs(1.0 - kt * kt) + params.eps_buffer
        return y, 0.0, y
    g = _determinant_target(params, kt)
    if isinstance(model, AnisotropicDiffusion):
        return g * math.exp(model.s), 0.0, g * math.exp(-model.s)
    if isinstance(model, DriftAlignedDiffusion):
        # M = I + alpha B B^T / tr(B B^T); (B B^T)_11 = (B B^T)_22 = lam^2 + omega^2
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            w11 = lam * lam + omega * omega
            w12 = -2.0 * lam * omega
            tr = w11 + w11
            # np.divide: on floats too a zero tr gives NaN, not ZeroDivisionError
            m11 = 1.0 + np.divide(model.alpha * w11, tr)
            m12 = np.divide(model.alpha * w12, tr)
            scale = g / np.sqrt(m11 * m11 - m12 * m12)
            return scale * m11, scale * m12, scale * m11
    raise DimensionError(f"unknown diffusion model {model!r}")


def _determinant_target(params, kt):
    """The target g = (1 - kt^2)/2 + eps_buffer of det Y_t = g^2 (anisotropic
    and drift-aligned models); PhysicalityError where it is not positive."""
    g = 0.5 * (1.0 - kt * kt) + params.eps_buffer
    if g <= 0:
        raise PhysicalityError(f"determinant target {g:.3e} not positive (kappa(t) = {kt:.4f} > 1)")
    return g


# Status codes of a non-Markovian point, in the order of its checks (see
# `_nm_points`): EXP_OVERFLOW, exp(t B) beyond the float range; Y_B_ZERO, the
# drift-aligned Y_t at B = 0; Y_TARGET, a determinant target that is not
# positive; Y_NON_FINITE, any other Y_t that is not finite; NOT_CP, a CP margin
# below its tolerance or NaN; NOT_SCHUR_STABLE, a Jury term <= 0
GAUGED, EXP_OVERFLOW, Y_B_ZERO, Y_TARGET, Y_NON_FINITE, NOT_CP, NOT_SCHUR_STABLE = range(7)


def _nm_status(kt, e, y, undefined=Y_NON_FINITE):
    """X = kt exp(t B), the CP margin and the status code of each point, from
    the entries e of exp(t B) and y of Y_t (1-D arrays); kt is a float or an
    array, `undefined` the code, or codes, of a point whose Y_t is not finite."""
    x = tuple(kt * v for v in e)
    # where exp(t B) is finite but large the CP products overflow to a NaN margin
    with np.errstate(over="ignore", invalid="ignore"):
        margin, tol = cp_margin_entries(*x, *y)
    # the checks in reverse order, so that the first one a point fails sets its code
    status = np.where(margin >= -tol, GAUGED, NOT_CP)
    status = np.where(np.isfinite(y).all(axis=0), status, undefined)
    status[~np.isfinite(e).all(axis=0)] = EXP_OVERFLOW
    # Schur stable iff all three Jury terms, so also their product, the Stein
    # denominator, are positive; only the points that pass the checks before it
    cp = np.flatnonzero(status == GAUGED)
    jury = jury_triple(*(v[cp] for v in x))
    status[cp[~np.logical_and.reduce([term > 0.0 for term in jury])]] = NOT_SCHUR_STABLE
    return x, margin, status


def _nm_points(params, t, lam, omega):
    """Entries of X_t and Y_t, CP margin and status code, the first check it
    fails, of each point (lam[i], omega[i]) of 1-D arrays: the one rule of
    `nm_channel` and the non-Markovian tables. DimensionError where t <= 0."""
    if t <= 0:
        raise DimensionError("family time must be positive")
    kt = memory_factor(params, t)
    try:
        y, undefined = nm_diffusion_entries(params, kt, lam, omega), Y_NON_FINITE
    except PhysicalityError:  # the determinant target, the same at every point
        y, undefined = (math.nan,) * 3, Y_TARGET
    if isinstance(params.diffusion, DriftAlignedDiffusion):
        with np.errstate(over="ignore"):
            undefined = np.where(lam * lam + omega * omega == 0.0, Y_B_ZERO, undefined)
    y = tuple(np.broadcast_arrays(*y, lam)[:3])
    # X_t = kappa(t) exp(t B) with B = [[lam, omega], [-omega, -lam]]
    x, margin, status = _nm_status(kt, expm2_entries(lam, omega, -omega, -lam, t), y, undefined)
    return x, y, margin, status


def _raise_nm_error(status, params, t, margin):
    """Raise the error of a non-Markovian point at time t whose status code
    (see `_nm_points`) is not GAUGED; margin is its CP margin."""
    if status == EXP_OVERFLOW:
        raise _overflow_error(t)
    if status == Y_B_ZERO:
        raise DegenerateModelError("drift-aligned diffusion undefined at B = 0")
    if status == Y_TARGET:
        _determinant_target(params, memory_factor(params, t))  # raises PhysicalityError
    if status == Y_NON_FINITE:
        raise NonFiniteInputError("Y has non-finite entries")
    if status == NOT_CP:
        raise PhysicalityError(f"channel violates CP (margin {margin:.3e})")
    raise _spectral_radius_error()


def nm_channel(params, t, lam, omega):
    """Fixed-time map (X_t, Y_t, 0) of the non-Markovian family, `_nm_points`
    at one point. It raises the error of the point's status code unless that
    is GAUGED or NOT_SCHUR_STABLE: construction does not require stability
    (only downstream Stein calls do), and the map it returns is CP."""
    _require_finite_values(lam=lam, omega=omega)
    x, y, margin, status = _nm_points(params, t, np.array([lam], float), np.array([omega], float))
    if status[0] not in (GAUGED, NOT_SCHUR_STABLE):
        _raise_nm_error(status[0], params, t, margin[0])
    (y11,), (y12,), (y22,) = y
    return GaussianChannel(X=np.reshape(x, (2, 2)), Y=[[y11, y12], [y12, y22]], delta=np.zeros(2))


def nm_ep_gauge(params, t, omega, branch):
    """Jordan closed-form Stein covariance on an EP line lambda = +-omega.

    Uses alpha = kappa(t) and N = B(+-omega, omega); requires kappa(t) < 1 for
    the single channel use to be stable.
    """
    branch = EpBranch(branch)
    _require_finite_values(omega=omega)
    if omega == 0:
        raise DegenerateModelError("EP branches need omega != 0 (B = 0 is not defective)")
    lam = omega if branch is EpBranch.PLUS else -omega
    kt = memory_factor(params, t)
    if kt >= 1.0:
        raise StabilityError(f"kappa(t) = {kt:.4f} >= 1: single use unstable")
    y11, y12, y22 = nm_diffusion_entries(params, kt, lam, omega)
    drift = JordanDrift2x2(alpha=kt, nilpotent=drift_tensor(lam, omega), t=t)
    return stein_jordan_closed_form(drift, [[y11, y12], [y12, y22]])


# ---------------------------------------------------------------------------
# Thermal attenuator
# ---------------------------------------------------------------------------


def thermal_loss_channel(eta, nbar=0.0):
    """Attenuator (sqrt(eta) I, (1-eta)(2 nbar + 1)/2 I, 0); X ~ I, never defective."""
    _require_finite_values(eta=eta, nbar=nbar)
    if not 0.0 <= eta <= 1.0:
        raise DimensionError("transmissivity eta must lie in [0, 1]")
    if nbar < 0:
        raise DimensionError("occupancy nbar must be nonnegative")
    return GaussianChannel(
        X=math.sqrt(eta) * np.eye(2),
        Y=0.5 * (1.0 - eta) * (2.0 * nbar + 1.0) * np.eye(2),
        delta=np.zeros(2),
    )
