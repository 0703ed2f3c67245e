"""Self-verification suites: residuals, dual-route agreements, figure trends.

`run_verification` executes every suite with a seeded generator and returns a
machine-readable report; the CLI `verify` command renders it as JSON and maps
the outcome to the exit code. `--fault` deliberately perturbs one computation
so the corresponding suite must fail (a self-test of the checker itself).

A suite only measures: it returns its sample count, a list of
(values, bound) checks and an optional note, and `run_suite` judges every
suite by one rule. The suite passes only if every value is <= its bound, so
a NaN fails it; `worst` is the largest of 0 and all values, and a NaN carries
through (the JSON report prints it as NaN, the stderr line as nan);
`tolerance` is the first bound. A GaussGaugeError raised by the code under
test (or a LinAlgError raised by an oracle on its output) fails that suite,
with `ErrorClass: message` as its note, and the other suites still run.

Every suite that draws random samples, but `noise-independence`, takes all
its draws first, in the order a per-draw loop would take them, groups them
by mode count, and checks each group with stacked arrays. The code under
test runs on the whole group through the private array cores that the
public routes wrap, each taking one input or a stack of one size:
`_lyapunov` and `_stein` (`lyapunov2_entries`, and the Jury triple with
`stein2_entries`, at 2x2; stacked Kronecker solves above), `_gauged_y`
(`gauge_channel`), `_semigroup_gauge` and `_semigroup_stack`
(`gauge_semigroup`, `semigroup_arrays`), `_composed` and `_applied`
(`compose`, `apply_channel`), `_stein_jordan` (`nm_ep_gauge`),
`squeezed_ep_entries`, `expm2_entries` and `cp_margin_entries`.
`noise-independence` keeps its draws one at a time but builds no records:
it calls `_lyapunov` and `_similarity_residual`, the core of
`gauge_similarity_residual`, on each draw. `channel-gauging` also checks
the public `gauge_channel` record on the first draw of each group. The
oracles are stacked LAPACK or scipy calls that share no code with what
they check: a Kronecker `np.linalg.solve` for the one-mode Lyapunov
equations, the Stein series of `stein_series` on a stack (summed by
repeated squaring), `np.linalg.eigvals`, `np.linalg.eigvalsh`,
`scipy.linalg.expm`; the residuals and max-norms are stacked too. The
Stein half of `ep-closed-forms` checks the Jordan closed form against the
whole-array route of the non-Markovian tables (`expm2_entries`,
`nm_diffusion_entries`, the row status of `sweeps._nm_status`,
`stein2_entries`); a draw whose row is not gauged fails the suite.
"""

import math
import time
from dataclasses import asdict, dataclass

import numpy as np

from .errors import GaussGaugeError, _symmetrized, require_finite
from .gauging import (
    _gauged_y,
    _semigroup_gauge,
    default_gauge_times,
    gauge_channel,
)
from .generators import GaussianGenerator, _semigroup_stack
from .matrix_equations import (
    _entries2,
    _lyapunov,
    _stein,
    _stein_jordan,
    stein_series,
)
from .models import (
    EpBranch,
    NmFamilyParams,
    memory_factor,
    nm_diffusion_entries,
    squeezed_ep_entries,
)
from .onemode import CP_REL_TOL, cp_margin_entries, expm2_entries, jury_triple, stein2_entries
from .phase_space import (
    GaussianChannel,
    MomentState,
    _applied,
    _composed,
    symplectic_form,
)
from .spectral import _ou_matrix, jordan_structure, truncated_ou_matrix
from .sweeps import (
    FAULT_CHOICES,
    GAUGED,
    SweepConfig,
    _nm_status,
    _stack2,
    run_nm_branch,
    run_squeezed_gauge,
)


# ---------------------------------------------------------------------------
# Random ensembles (shared with the test suite)
# ---------------------------------------------------------------------------
#
# An ensemble is its draws from the generator (`_*_draws`) and a finish that
# draws nothing (`_hurwitz`, `_rescaled`, `_psd` on one sample or on a stack
# of samples of one size; `_channels`, `_states` on a stack): the stacked
# suites take every draw first and finish each mode-count group with one call.


def _matrix_draw(rng, dim):
    return (rng.standard_normal((dim, dim)),)


def _vector_draw(rng, dim):
    return (rng.standard_normal(dim),)


def _hurwitz_draws(rng, dim):
    return rng.standard_normal((dim, dim)), rng.uniform(0.2, 1.0)


def _schur_draws(rng, dim):
    return rng.standard_normal((dim, dim)), rng.uniform(0.1, 0.95)


def _hurwitz(g, margin):
    """g shifted left of the imaginary axis, its spectral abscissa to -margin."""
    shift = np.linalg.eigvals(g).real.max(axis=-1) + margin
    return g - shift[..., None, None] * np.eye(g.shape[-1])


def _rescaled(g, spr):
    """g rescaled to spectral radius spr (g itself where its spectral radius is 0)."""
    now = abs(np.linalg.eigvals(g)).max(axis=-1)
    return g * np.divide(spr, now, out=np.ones_like(now), where=now > 0)[..., None, None]


def _psd(g):
    """g g^T / dim."""
    return (g @ g.swapaxes(-1, -2)) / g.shape[-1]


def _channel_arrays(g, spr, h):
    """X and Y of the stable channels of stacked `_CHANNEL_DRAWS`: X of
    spectral radius spr, Y = h h^T / dim, as a `GaussianChannel` holds them."""
    return _rescaled(g, spr), _symmetrized(_psd(h))


def _channels(g, spr, h, delta):
    """The stable channels of stacked `_CHANNEL_DRAWS`, with mean shift delta."""
    x, y = _channel_arrays(g, spr, h)
    return [GaussianChannel(X=xi, Y=yi, delta=di) for xi, yi, di in zip(x, y, delta)]


def _state_covariances(h):
    """The covariances of the states of stacked `_STATE_DRAWS`,
    h h^T / dim + I/2, as a `MomentState` holds them."""
    return _symmetrized(_psd(h) + 0.5 * np.eye(h.shape[-1]))


def _states(d, h):
    """The states of stacked `_STATE_DRAWS`, with mean d."""
    return [MomentState(d=di, V=vi) for di, vi in zip(d, _state_covariances(h))]


# the draws of one `random_stable_channel` (X, Y and delta) and of one
# `random_state` (d and V)
_CHANNEL_DRAWS = (_schur_draws, _matrix_draw, _vector_draw)
_STATE_DRAWS = (_vector_draw, _matrix_draw)


def _one(finish, draws, rng, dim):
    """The finish of one sample of the draws, as a stack of one."""
    return finish(*(np.asarray(v)[None] for draw in draws for v in draw(rng, dim)))[0]


def random_hurwitz(rng, dim):
    """Random matrix shifted left of the imaginary axis by a margin in [0.2, 1)."""
    return _hurwitz(*_hurwitz_draws(rng, dim))


def random_psd(rng, dim):
    return _psd(*_matrix_draw(rng, dim))


def random_schur_stable(rng, dim):
    """Random matrix rescaled to a spectral radius in [0.1, 0.95)."""
    return _rescaled(*_schur_draws(rng, dim))


def random_stable_channel(rng, modes):
    return _one(_channels, _CHANNEL_DRAWS, rng, 2 * modes)


def random_ep2_drift(rng, dim):
    """Random Hurwitz drift with an EP2: a 2x2 Jordan block and a random
    Hurwitz rest, under a similarity of condition number at most 4."""
    j = np.zeros((dim, dim))
    lam = -rng.uniform(0.2, 1.0)
    j[:2, :2] = [[lam, 1.0], [0.0, lam]]
    if dim > 2:
        j[2:, 2:] = random_hurwitz(rng, dim - 2)
    v = np.linalg.qr(rng.standard_normal((dim, dim)))[0] * rng.uniform(0.5, 2.0, size=dim)
    return v @ j @ np.linalg.inv(v)


def random_state(rng, modes):
    return _one(_states, _STATE_DRAWS, rng, 2 * modes)


def gauge_similarity_residual(generator, s, max_degree):
    """max|G^-1 L_D G - L_0| / max(|G^-1| |L_D| |G|) on degree <= max_degree.

    L_D is `truncated_ou_matrix(generator)`, L_0 the same with D = 0, and G
    the multiplication by exp(-xi^T S xi / 2): sum_k M^k / k! with M the
    nilpotent multiplication by -xi^T S xi / 2, and G^-1 the sum in -M. For
    A S + S A^T + D = 0 the identity is exact at every truncation, so the
    residual is rounding, bounded by the entrywise-absolute product. S is
    checked as the diffusion of M's generator, and the value comes from
    `_similarity_residual`.
    """
    zero = np.zeros_like(generator.A)
    m_generator = GaussianGenerator(A=zero, D=s, u=np.zeros(len(zero)))
    return _similarity_residual(generator.A, generator.D, generator.u, m_generator.D, max_degree)


def _similarity_residual(a, d, u, s, max_degree):
    """`gauge_similarity_residual` of the generator (a, d, u) and S = s, from
    the arrays; NonFiniteInputError where s is not finite.

    G is real, and L_D and L_0 are complex only through the drive i u^T xi,
    which moves the degree by one, while the drift, the diffusion and M move
    it by even amounts. So the real and imaginary parts of L_D, L_0 and
    G^-1 L_D G sit on entries of opposite degree parity, and each is kept as
    the real matrix of its real plus imaginary part: the products run in
    real arithmetic, and each |entry| is the complex one exactly.
    """
    require_finite(D=s)  # S is the diffusion D of M's generator
    zero = np.zeros_like(a)
    l_d, l_0 = (_ou_matrix(a, diffusion, u, max_degree) for diffusion in (d, zero))
    l_d, l_0 = l_d.real + l_d.imag, l_0.real + l_0.imag
    m = _ou_matrix(zero, s, np.zeros(len(a)), max_degree).real
    eye = np.eye(len(m))
    g, g_inv, term = eye + m, eye - m, m
    for k in range(2, max_degree // 2 + 1):
        term = term @ m / k
        g, g_inv = g + term, g_inv + (-1) ** k * term
    residual = np.max(np.abs(g_inv @ l_d @ g - l_0))
    return float(residual / np.max(np.abs(g_inv) @ np.abs(l_d) @ np.abs(g)))


# ---------------------------------------------------------------------------
# Suites
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SuiteResult:
    name: str
    passed: bool
    worst: float
    tolerance: float
    samples: int
    note: str = ""


def _verdict(name, samples, checks, note=""):
    """The SuiteResult of a suite's measurements under the one verdict rule."""
    values = [np.asarray(v, dtype=float) for v, _ in checks]
    return SuiteResult(
        name,
        passed=all(bool((v <= bound).all()) for v, (_, bound) in zip(values, checks)),
        worst=float(np.max(np.concatenate([v.ravel() for v in values]), initial=0.0)),
        tolerance=float(checks[0][1]),
        samples=int(samples),
        note=note,
    )


def _draw_by_modes(rng, n, *draws, max_modes=3):
    """n samples drawn as a per-draw loop draws them: a mode count in
    {1, ..., max_modes}, then each `draw(rng, 2 * modes)` in turn. Returns,
    for each mode count drawn, in increasing order, the list of the draws'
    outputs, each stacked over the samples of that count."""
    rows = {}
    for _ in range(n):
        modes = int(rng.integers(1, max_modes + 1))
        rows.setdefault(modes, []).append([v for draw in draws for v in draw(rng, 2 * modes)])
    return {modes: [np.array(column) for column in zip(*rows[modes])] for modes in sorted(rows)}


def _max_abs(m):
    """max|m| of each matrix of a stack."""
    return abs(m).max(axis=(-2, -1))


def _lyapunov_kronecker(a, d):
    """S of A S + S A^T + D = 0 for a stack of 2x2 A and D, from one stacked
    solve of the 4x4 Kronecker system (I (x) A + A (x) I) vec S = -vec D."""
    eye = np.eye(2)[None]
    lhs = np.kron(eye, a) + np.kron(a, eye)
    return _symmetrized(np.linalg.solve(lhs, -d.reshape(-1, 4, 1)).reshape(-1, 2, 2))


def _suite_lyapunov(rng, fault):
    residuals, gaps = [], []
    n = 300
    for modes, (g, margin, h) in _draw_by_modes(rng, n, _hurwitz_draws, _matrix_draw).items():
        a, d = _hurwitz(g, margin), _psd(h)
        s = _lyapunov(a, d)
        if fault == "lyapunov":
            s = s + 1e-6
        residuals.append(_max_abs(a @ s + s @ a.transpose(0, 2, 1) + d) / (1.0 + _max_abs(d)))
        if modes == 1:
            gaps.append(_max_abs(s - _lyapunov_kronecker(a, d)))
    return n, [(np.concatenate(residuals), 1e-10), (np.concatenate([[], *gaps]), 1e-11)]


def _suite_stein(rng, fault):
    residuals, gaps = [], []
    n = 300
    for modes, (g, spr, h) in _draw_by_modes(rng, n, _schur_draws, _matrix_draw).items():
        x, y = _rescaled(g, spr), _psd(h)
        s = _stein(x, y)
        if fault == "stein":
            s = s + 1e-6
        residuals.append(_max_abs(s - x @ s @ x.transpose(0, 2, 1) - y) / (1.0 + _max_abs(y)))
        if modes == 1:
            series = np.array([cov.S for cov in stein_series(x, y, tol=1e-13)])
            gaps.append(_max_abs(series - s))
    return n, [(np.concatenate(residuals), 1e-10), (np.concatenate([[], *gaps]), 1e-10)]


def _suite_positivity(rng, fault):
    negativity = []
    n = 200
    for g, spr, h in _draw_by_modes(rng, n, _schur_draws, _matrix_draw).values():
        s = _stein(_rescaled(g, spr), _psd(h))
        if fault == "positivity":
            s = -s  # the solution of S = X S X^T - Y
        negativity.append(-np.linalg.eigvalsh(s).min(axis=1))
    return n, [(np.concatenate(negativity), 1e-10)]


def _suite_jury(rng, fault):
    n = 2000
    x = rng.uniform(-1.6, 1.6, size=(n, 2, 2))  # the values of n draws of one matrix each
    terms = np.array(jury_triple(*_entries2(x)))
    if fault == "jury":
        terms[1] += 0.1
    spr = np.abs(np.linalg.eigvals(x)).max(axis=1)
    triple_stable = (terms > 0).all(axis=0)
    spr_stable = spr < 1.0
    counted = abs(spr - 1.0) >= 1e-10
    mismatches = np.count_nonzero(counted & (triple_stable != spr_stable))
    denom_bad = np.count_nonzero(counted & spr_stable & (np.prod(terms, axis=0) <= 0))
    return n, [(mismatches, 0.0), (denom_bad, 0.0)]


def _suite_expm2_vs_general(rng, fault):
    import scipy.linalg

    n = 300
    # n draws of a uniform B in [-2, 2]^(2x2), then t in [0, 5], in one call
    draws = rng.uniform([-2, -2, -2, -2, 0], [2, 2, 2, 2, 5], size=(n, 5))
    b, t = draws[:, :4].reshape(n, 2, 2), draws[:, 4]
    reference = scipy.linalg.expm(t[:, None, None] * b)
    e11, e12, e21, e22 = expm2_entries(*_entries2(b), t)
    if fault == "expm2":
        e12 = e12 + 1e-8
    err = _max_abs(_stack2(e11, e12, e21, e22) - reference) / (1.0 + _max_abs(reference))
    return n, [(err, 4e-12)]


def _suite_channel_gauging(rng, fault):
    residuals = []
    drift_changed = record_moved = 0
    n = 300
    for g, spr, h, delta in _draw_by_modes(rng, n, *_CHANNEL_DRAWS).values():
        x, y = _channel_arrays(g, spr, h)
        s = _stein(x, y)
        if fault == "gauge":
            s = s + 1e-6
        res = _max_abs(_gauged_y(x, s, y))
        if fault != "gauge":
            # the record of the group's first draw: X and delta unchanged,
            # and residual_Y the stacked value bit for bit
            first = gauge_channel(GaussianChannel(X=x[0], Y=y[0], delta=delta[0]))
            drift_changed += not (np.array_equal(first.gauged.X, x[0])
                                  and np.array_equal(first.gauged.delta, delta[0]))
            record_moved += first.residual_Y != res[0]
        residuals.append(res / (1.0 + _max_abs(y)))
    return n, [(np.concatenate(residuals), 1e-9), (drift_changed, 0), (record_moved, 0)]


def _suite_semigroup_gauging(rng, fault):
    residuals = []
    n = 50
    for g, margin, h in _draw_by_modes(rng, n, _hurwitz_draws, _matrix_draw, max_modes=2).values():
        # the drifts and diffusions of `GaussianGenerator(random_hurwitz,
        # random_psd)`, at ten times each
        a, d = _hurwitz(g, margin), _symmetrized(_psd(h))
        u = np.zeros(a.shape[:-1])
        times = default_gauge_times(a, count=10)
        if fault == "lyapunov":
            s = _lyapunov(a, d)[:, None] + 1e-6
            x, y, _ = _semigroup_stack(a, d, u, times)
            residuals.append(_max_abs(_gauged_y(x, s, y)))
        elif fault == "semigroup":
            # X_t and Y_t of times a relative 1e-6 apart
            s = _lyapunov(a, d)[:, None]
            x = _semigroup_stack(a, d, u, times)[0]
            y = _semigroup_stack(a, d, u, times * (1.0 + 1e-6))[1]
            residuals.append(_max_abs(x @ s @ x.swapaxes(-1, -2) + y - s))
        else:
            residuals.append(_semigroup_gauge(a, d, u, times)[2])
    return n, [(np.concatenate([r.ravel() for r in residuals]), 1e-8)]


def _suite_composition(rng, fault):
    gaps = []
    n = 100
    draws = (*_CHANNEL_DRAWS * 3, *_STATE_DRAWS)  # three channels, then a state
    for columns in _draw_by_modes(rng, n, *draws).values():
        ch0, ch1, ch2 = (_channel_arrays(*columns[k:k + 3]) + (columns[k + 3],) for k in (0, 4, 8))
        d, v = columns[12], _state_covariances(columns[13])
        inner = _composed(*ch1, *ch0)
        if fault == "composition":  # a composite diffusion 1e-9 off
            inner = (inner[0], inner[1] + 1e-9, inner[2])
        left, right = _composed(*ch2, *inner), _composed(*_composed(*ch2, *ch1), *ch0)
        via_compose = _applied(*inner, d, v)
        via_sequence = _applied(*ch1, *_applied(*ch0, d, v))
        gaps += [abs(p - q).reshape(len(p), -1).max(axis=1)
                 for p, q in zip((*left, *via_compose), (*right, *via_sequence))]
    return n, [(np.concatenate(gaps), 1e-12)]


def _suite_one_mode_identities(rng, fault):
    n = 1000
    x, g, shift = np.empty((n, 2, 2)), np.empty((n, 2, 2)), np.empty(n)
    for i in range(n):
        x[i] = rng.uniform(-2, 2, size=(2, 2))
        g[i] = rng.standard_normal((2, 2))
        shift[i] = rng.uniform(-0.3, 1.0)
    y = _symmetrized(g) + shift[:, None, None] * np.eye(2)
    sigma = symplectic_form(1)
    x_sigma_xt = x @ sigma @ x.transpose(0, 2, 1)
    gap = np.abs(x_sigma_xt - np.linalg.det(x)[:, None, None] * sigma).max(axis=(1, 2))
    # the one-mode determinant route against the Hermitian CP matrix's least
    # eigenvalue, each with its own tolerance as `cp_check` sets it
    det_margin, det_tol = cp_margin_entries(*_entries2(x), y[:, 0, 0], y[:, 0, 1], y[:, 1, 1])
    if fault == "one-mode":
        det_margin = det_margin + 0.1
    z = y + 0.5j * (sigma - x_sigma_xt)
    herm_tol = CP_REL_TOL * (1.0 + np.abs(z).max(axis=(1, 2)))
    herm_margin = np.linalg.eigvalsh(z).min(axis=1)
    counted = (abs(det_margin) >= 1e-10) & (abs(herm_margin) >= 1e-10)
    disagreements = np.count_nonzero(
        counted & ((det_margin >= -det_tol) != (herm_margin >= -herm_tol)))
    return n, [(gap, 1e-13), (disagreements, 0)]


def _suite_noise_independence(rng, fault):
    residuals = []
    n = 30
    for k in range(n):
        dim, degree = ((2, 6), (4, 4))[k % 2]
        a = random_ep2_drift(rng, dim) if k % 3 == 0 else random_hurwitz(rng, dim)
        # D and u as `GaussianGenerator(a, random_psd, u)` holds them
        d, u = _symmetrized(random_psd(rng, dim)), rng.standard_normal(dim)
        s = _lyapunov(a, d)
        if fault == "noise":
            s = s * (1.0 + 1e-6)
        residuals.append(_similarity_residual(a, d, u, s, degree))
    return n, [(residuals, 1e-12)]


def _suite_jordan_chain(rng, fault):
    bad = 0
    lam = -0.8
    a = lam * np.eye(2) + np.array([[0.0, 0.0], [1.0, 0.0]])  # A^T = lam I + N
    drift = GaussianGenerator(A=a, D=np.zeros((2, 2)), u=np.zeros(2))
    for ell in range(1, 7):
        m = truncated_ou_matrix(drift, ell)[-(ell + 1):, -(ell + 1):].real  # degree ell
        if fault == "jordan":  # the degree-ell block 1e-6 off on its diagonal
            m = m + 1e-6 * np.eye(ell + 1)
        rep = jordan_structure(m, tol=0.2)
        bad += not (
            rep.defective
            and len(rep.eigenvalues) == 1
            and abs(rep.eigenvalues[0] - ell * lam) < 1e-8
            and rep.block_sizes[0] == (ell + 1,)
        )
    return 6, [(bad, 0.0)]


def _suite_ep_closed_forms(rng, fault):
    n = 200
    # Lyapunov half: squeezed_ep_entries on all draws against one stacked
    # Kronecker solve with the model's drift and diffusion
    kappa, eps, r, phi = rng.uniform(
        [0.3, -2.0, 0.0, 0.0], [5.0, 2.0, 1.5, 2 * math.pi], size=(n, 4)).T
    c2, s2, cos_phi, sin_phi = np.cosh(2 * r), np.sinh(2 * r), np.cos(phi), np.sin(phi)
    d = (0.5 * kappa)[:, None, None] * _stack2(
        c2 - s2 * cos_phi, -s2 * sin_phi, -s2 * sin_phi, c2 + s2 * cos_phi)
    lyapunov_gaps = []
    for branch, sign in ((EpBranch.PLUS, 1.0), (EpBranch.MINUS, -1.0)):
        detuning = sign * eps  # the EP branch delta = +-eps
        a = _stack2(-0.5 * kappa, detuning - eps, -(detuning + eps), -0.5 * kappa)
        s_qq, s_qp, s_pp = squeezed_ep_entries(kappa, eps, r, phi, branch)
        lyapunov_gaps.append(_max_abs(_stack2(s_qq, s_qp, s_qp, s_pp) - _lyapunov_kronecker(a, d)))
    # Stein half: the Jordan closed form of nm_ep_gauge on the arrays of all
    # draws, the two branches of a draw in turn, against the route of the tables
    family = NmFamilyParams(lam=0.0, omega=0.0)  # the default memory and diffusion settings
    omega, t = rng.uniform([0.1, 0.2], [2.0, 3.0], size=(n, 2)).T
    # kappa(t) from the math library, as nm_ep_gauge takes it
    kt = np.repeat([memory_factor(family, ti) for ti in t.tolist()], 2)
    omega, t = np.repeat(omega, 2), np.repeat(t, 2)
    lam = omega * np.tile([1.0, -1.0], n)
    y = np.broadcast_arrays(*nm_diffusion_entries(family, kt, lam, omega), lam)[:3]
    s = _stein_jordan(kt, t, _stack2(lam, omega, -omega, -lam), _stack2(y[0], y[1], y[1], y[2]))
    closed = _symmetrized(s)[:, [0, 0, 1], [0, 1, 1]]
    if fault == "ep-closed-form":
        closed[:, 1] += 1e-6
    # a draw whose row is not gauged (not finite, not CP or not Schur stable) fails the suite
    x, _, status = _nm_status(kt, expm2_entries(lam, omega, -omega, -lam, t), y)
    accepted = status == GAUGED
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        direct = np.column_stack(stein2_entries(*x, *y))
    gap = np.abs(closed - direct).max(axis=1)
    rejected = np.count_nonzero(~accepted)
    note = f"{rejected} draws not CP or not Schur stable" if rejected else ""
    checks = [(np.concatenate(lyapunov_gaps), 1e-10), (gap[accepted], 1e-10), (rejected, 0)]
    return 2 * n, checks, note


def _suite_figure_trends(rng, fault):
    broken = []  # the trends that fail, by name

    def monotone(values, direction):
        diffs = np.diff(np.asarray(values))
        slack = 1e-12 * (1.0 + np.max(np.abs(values)))
        return bool(np.all(direction * diffs >= -slack))

    for branch in ("plus", "minus"):
        cfg = SweepConfig(command="squeezed-gauge")
        table = run_squeezed_gauge(cfg, "kappa", branch)
        if not (monotone(table.column("lambda1"), -1) and monotone(table.column("lambda2"), -1)):
            broken.append(f"kappa trend broken ({branch})")
        table = run_squeezed_gauge(cfg, "r", branch)
        if not (monotone(table.column("lambda1"), +1) and monotone(table.column("lambda2"), +1)):
            broken.append(f"r trend broken ({branch})")
    phi_tables = {
        branch: run_squeezed_gauge(SweepConfig(command="squeezed-gauge"), "phi", branch)
        for branch in ("plus", "minus")
    }
    args = {b: t.column("phi")[np.argmax(t.column("lambda2"))] for b, t in phi_tables.items()}
    step = np.diff(phi_tables["plus"].column("phi"))[0]
    offset = abs(args["plus"] - args["minus"])
    offset = min(offset, 2 * math.pi - offset)
    if abs(offset - math.pi) > 0.5 * step:
        broken.append(f"phi argmax offset {offset:.4f} != pi")

    # the isotropic branches agree, and the drift-aligned branches are isospectral
    branch_gaps = []
    for diffusion in ("iso", "drift-aligned"):
        table = run_nm_branch(SweepConfig(command="nm-branch", diffusion=diffusion))
        plus = np.array(table.select(branch=1.0))
        minus = np.array(table.select(branch=-1.0))
        if fault == "trends":  # the plus branch's eigenvalues 1e-9 off
            plus[:, 2:4] += 1e-9
        branch_gaps.append(np.max(np.abs(plus[:, 2:4] - minus[:, 2:4])))
    # plus and minus are the drift-aligned branches now
    qp_flip = np.max(plus[:, 4] * minus[:, 4])
    qp_floor = np.min(np.abs(plus[:, 4]))
    if not (qp_flip < 0 and qp_floor > 1e-6):
        broken.append("drift-aligned orientation sign flip missing")
    return 6, [(branch_gaps, 1e-12), (len(broken), 0)], "; ".join(broken)


_SUITES = {
    "lyapunov-residual": _suite_lyapunov,
    "stein-residual": _suite_stein,
    "positivity-transfer": _suite_positivity,
    "jury-spectral-agreement": _suite_jury,
    "expm2-vs-general": _suite_expm2_vs_general,
    "channel-gauging": _suite_channel_gauging,
    "semigroup-gauging": _suite_semigroup_gauging,
    "composition-consistency": _suite_composition,
    "one-mode-identities": _suite_one_mode_identities,
    "noise-independence": _suite_noise_independence,
    "jordan-chain": _suite_jordan_chain,
    "ep-closed-forms": _suite_ep_closed_forms,
    "figure-trends": _suite_figure_trends,
}


def run_suite(name, rng, fault=None):
    """Run one suite and judge its measurements by the verdict rule.

    A GaussGaugeError from the code under test, or a LinAlgError from an
    oracle given its output, fails the suite, with the error as its note.
    """
    try:
        return _verdict(name, *_SUITES[name](rng, fault))
    except (GaussGaugeError, np.linalg.LinAlgError) as exc:
        return SuiteResult(name, False, math.nan, math.nan, 0, f"{type(exc).__name__}: {exc}")


@dataclass(frozen=True)
class VerificationReport:
    """Suite results; `seconds` holds each suite's wall time, which `as_dict`
    leaves out so that the report stays deterministic."""

    seed: int
    fault: str
    suites: tuple
    all_passed: bool
    seconds: tuple

    def as_dict(self):
        return {
            "seed": self.seed,
            "fault": self.fault or "",
            "all_passed": self.all_passed,
            "suites": [asdict(s) for s in self.suites],
        }


def run_verification(seed=0, fault=None):
    """Run every suite with a seeded generator; `fault` sabotages one of them."""
    if fault is not None and fault not in FAULT_CHOICES:
        raise ValueError(f"unknown fault {fault!r}; choose from {FAULT_CHOICES}")
    results, seconds = [], []
    for index, name in enumerate(_SUITES):
        start = time.perf_counter()
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(index,)))
        results.append(run_suite(name, rng, fault))
        seconds.append(time.perf_counter() - start)
    return VerificationReport(
        seed=seed,
        fault=fault,
        suites=tuple(results),
        all_passed=all(r.passed for r in results),
        seconds=tuple(seconds),
    )
