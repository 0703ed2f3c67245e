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

Four suites draw all their inputs first, in the order a per-draw loop would
draw them, and then check the stacked draws with whole-array code: the
one-mode kernels of `onemode` that the scalar API runs on floats, against
one stacked LAPACK or scipy call as the oracle.
`jury-spectral-agreement` runs `jury_triple` against `np.linalg.eigvals`,
`expm2-vs-general` `expm2_entries` against `scipy.linalg.expm`, and
`one-mode-identities` `cp_margin_entries` against `np.linalg.eigvalsh` of
the complex CP matrices (and X Sigma X^T = det X Sigma through `matmul` and
`det`). The Stein half of `ep-closed-forms` evaluates `nm_ep_gauge` per
draw, against `expm2_entries`, `nm_diffusion_entries`, `cp_margin_entries`,
`jury_triple` and `stein2_entries`, the route of `nm_channel` and
`solve_stein`; a draw that route would reject fails the suite.
"""

import math
import time
from dataclasses import asdict, dataclass, replace

import numpy as np

from .errors import GaussGaugeError, _symmetrized
from .gauging import SmoothingMap, default_gauge_times, gauge_channel, gauge_semigroup
from .generators import GaussianGenerator, semigroup_channel
from .matrix_equations import (
    lyapunov_residual,
    solve_lyapunov,
    solve_stein,
    stein_residual,
    stein_series,
)
from .models import (
    EpBranch,
    NmFamilyParams,
    SqueezedReservoirParams,
    memory_factor,
    nm_diffusion_entries,
    nm_ep_gauge,
    squeezed_ep_gauge,
    squeezed_generator,
)
from .onemode import CP_REL_TOL, cp_margin_entries, expm2_entries, jury_triple, stein2_entries
from .phase_space import (
    GaussianChannel,
    MomentState,
    apply_channel,
    compose,
    symplectic_form,
)
from .spectral import jordan_structure, truncated_ou_matrix
from .sweeps import SweepConfig, run_nm_branch, run_squeezed_gauge


# ---------------------------------------------------------------------------
# Random ensembles (shared with the test suite)
# ---------------------------------------------------------------------------


def random_hurwitz(rng, dim, margin=(0.2, 1.0)):
    """Random matrix shifted left of the imaginary axis."""
    g = rng.standard_normal((dim, dim))
    shift = float(np.max(np.linalg.eigvals(g).real)) + rng.uniform(*margin)
    return g - shift * np.eye(dim)


def random_psd(rng, dim, scale=1.0):
    g = rng.standard_normal((dim, dim))
    return scale * (g @ g.T) / dim


def random_schur_stable(rng, dim, spr_range=(0.1, 0.95)):
    """Random matrix rescaled to a spectral radius drawn from spr_range."""
    g = rng.standard_normal((dim, dim))
    spr = float(np.max(np.abs(np.linalg.eigvals(g))))
    target = rng.uniform(*spr_range)
    return g * (target / spr) if spr > 0 else g


def random_stable_channel(rng, modes):
    dim = 2 * modes
    return GaussianChannel(
        X=random_schur_stable(rng, dim),
        Y=random_psd(rng, dim),
        delta=rng.standard_normal(dim),
    )


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
    dim = 2 * modes
    return MomentState(d=rng.standard_normal(dim), V=random_psd(rng, dim) + 0.5 * np.eye(dim))


def gauge_similarity_residual(generator, s, max_degree):
    """max|G^-1 L_D G - L_0| / max(|G^-1| |L_D| |G|) on degree <= max_degree.

    L_D is `truncated_ou_matrix(generator)`, L_0 the same with D = 0, and G
    the multiplication by exp(-xi^T S xi / 2): sum_k M^k / k! with M the
    nilpotent multiplication by -xi^T S xi / 2, and G^-1 the sum in -M. For
    A S + S A^T + D = 0 the identity is exact at every truncation, so the
    residual is rounding, bounded by the entrywise-absolute product.
    """
    dim = generator.A.shape[0]
    zero = np.zeros((dim, dim))
    l_d = truncated_ou_matrix(generator, max_degree)
    l_0 = truncated_ou_matrix(GaussianGenerator(A=generator.A, D=zero, u=generator.u), max_degree)
    m = truncated_ou_matrix(GaussianGenerator(A=zero, D=s, u=np.zeros(dim)), max_degree).real
    g = g_inv = term = np.eye(len(m))
    for k in range(1, max_degree // 2 + 1):
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


def _suite_lyapunov(rng, fault):
    residuals, gaps = [], []
    n = 300
    for _ in range(n):
        modes = int(rng.integers(1, 4))
        a = random_hurwitz(rng, 2 * modes)
        d = random_psd(rng, 2 * modes)
        s = solve_lyapunov(a, d).S
        if fault == "lyapunov":
            s = s + 1e-6
        residuals.append(lyapunov_residual(a, s, d) / (1.0 + np.max(np.abs(d))))
        if modes == 1:
            lhs = np.kron(np.eye(2), a) + np.kron(a, np.eye(2))
            s_vec = np.linalg.solve(lhs, -d.reshape(-1)).reshape(2, 2)
            gaps.append(np.max(np.abs(s - _symmetrized(s_vec))))
    return n, [(residuals, 1e-10), (gaps, 1e-11)]


def _suite_stein(rng, fault):
    residuals, gaps = [], []
    n = 300
    for _ in range(n):
        modes = int(rng.integers(1, 4))
        x = random_schur_stable(rng, 2 * modes)
        y = random_psd(rng, 2 * modes)
        s = solve_stein(x, y).S
        if fault == "stein":
            s = s + 1e-6
        residuals.append(stein_residual(x, s, y) / (1.0 + np.max(np.abs(y))))
        if modes == 1:
            gaps.append(np.max(np.abs(stein_series(x, y, tol=1e-13).S - s)))
    return n, [(residuals, 1e-10), (gaps, 1e-10)]


def _suite_positivity(rng, fault):
    negativity = []
    n = 200
    for _ in range(n):
        modes = int(rng.integers(1, 4))
        x = random_schur_stable(rng, 2 * modes)
        y = random_psd(rng, 2 * modes)
        negativity.append(-np.linalg.eigvalsh(solve_stein(x, y).S).min())
    return n, [(negativity, 1e-10)]


def _entries(m):
    """The entry arrays (m11, m12, m21, m22) of an (n, 2, 2) stack."""
    return m[:, 0, 0], m[:, 0, 1], m[:, 1, 0], m[:, 1, 1]


def _suite_jury(rng, fault):
    n = 2000
    x = rng.uniform(-1.6, 1.6, size=(n, 2, 2))  # the values of n draws of one matrix each
    terms = np.array(jury_triple(*_entries(x)))
    if fault == "jury":
        terms[1] += 0.1
    spr = np.abs(np.linalg.eigvals(x)).max(axis=1)
    triple_stable = (terms > 0).all(axis=0)
    spr_stable = spr < 1.0
    counted = abs(spr - 1.0) >= 1e-10
    mismatches = np.count_nonzero(counted & (triple_stable != spr_stable))
    denom_bad = np.count_nonzero(counted & spr_stable & (np.prod(terms, axis=0) <= 0))
    return n, [(mismatches, 0.0), (denom_bad, 0.0)]


def _suite_expm2(rng, fault):
    import scipy.linalg

    n = 300
    b, t = np.empty((n, 2, 2)), np.empty(n)
    for i in range(n):
        b[i] = rng.uniform(-2, 2, size=(2, 2))
        t[i] = rng.uniform(0.0, 5.0)
    reference = scipy.linalg.expm(t[:, None, None] * b)
    e11, e12, e21, e22 = expm2_entries(*_entries(b), t)
    if fault == "expm2":
        e12 = e12 + 1e-8
    got = np.stack([e11, e12, e21, e22], axis=-1).reshape(n, 2, 2)
    err = np.abs(got - reference).max(axis=(1, 2)) / (1.0 + np.abs(reference).max(axis=(1, 2)))
    return n, [(err, 4e-12)]


def _suite_channel_gauging(rng, fault):
    residuals = []
    drift_changed = 0
    n = 300
    for _ in range(n):
        modes = int(rng.integers(1, 4))
        ch = random_stable_channel(rng, modes)
        if fault == "gauge":
            res = np.max(np.abs(SmoothingMap(solve_stein(ch.X, ch.Y).S + 1e-6).conjugate(ch).Y))
        else:
            result = gauge_channel(ch)
            res = result.residual_Y
            drift_changed += not (np.array_equal(ch.X, result.gauged.X)
                                  and np.array_equal(ch.delta, result.gauged.delta))
        residuals.append(res / (1.0 + np.max(np.abs(ch.Y))))
    return n, [(residuals, 1e-9), (drift_changed, 0)]


def _suite_semigroup_gauging(rng, fault):
    residuals = []
    n = 50
    for _ in range(n):
        modes = int(rng.integers(1, 3))
        gen = GaussianGenerator(
            A=random_hurwitz(rng, 2 * modes), D=random_psd(rng, 2 * modes), u=np.zeros(2 * modes)
        )
        times = default_gauge_times(gen.A, count=10)
        if fault == "lyapunov":
            smoothing = SmoothingMap(solve_lyapunov(gen.A, gen.D).S + 1e-6)
            residuals += [np.max(np.abs(smoothing.conjugate(semigroup_channel(gen, t)).Y))
                          for t in times]
        else:
            residuals.append(gauge_semigroup(gen, times).max_residual)
    return n, [(residuals, 1e-8)]


def _suite_composition(rng, fault):
    gaps = []
    n = 100
    for _ in range(n):
        modes = int(rng.integers(1, 4))
        chs = [random_stable_channel(rng, modes) for _ in range(3)]
        left = compose(chs[2], compose(chs[1], chs[0]))
        right = compose(compose(chs[2], chs[1]), chs[0])
        state = random_state(rng, modes)
        via_compose = apply_channel(compose(chs[1], chs[0]), state)
        via_sequence = apply_channel(chs[1], apply_channel(chs[0], state))
        gaps += [np.max(np.abs(p - q)) for p, q in (
            (left.X, right.X), (left.Y, right.Y), (left.delta, right.delta),
            (via_compose.d, via_sequence.d), (via_compose.V, via_sequence.V))]
    return n, [(gaps, 1e-12)]


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
    det_margin, det_tol = cp_margin_entries(*_entries(x), y[:, 0, 0], y[:, 0, 1], y[:, 1, 1])
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
        gen = GaussianGenerator(A=a, D=random_psd(rng, dim), u=rng.standard_normal(dim))
        s = solve_lyapunov(a, gen.D).S
        residuals.append(gauge_similarity_residual(gen, s, degree))
    return n, [(residuals, 1e-12)]


def _suite_jordan_chain(rng, fault):
    bad = 0
    lam = -0.8
    a = lam * np.eye(2) + np.array([[0.0, 0.0], [1.0, 0.0]])  # A^T = lam I + N
    drift = GaussianGenerator(A=a, D=np.zeros((2, 2)), u=np.zeros(2))
    for ell in range(1, 7):
        m = truncated_ou_matrix(drift, ell)[-(ell + 1):, -(ell + 1):].real  # degree ell
        rep = jordan_structure(m, tol=0.2)
        bad += not (
            rep.defective
            and len(rep.eigenvalues) == 1
            and abs(rep.eigenvalues[0] - ell * lam) < 1e-8
            and rep.block_sizes[0] == (ell + 1,)
        )
    return 6, [(bad, 0.0)]


def _suite_ep_closed_forms(rng, fault):
    lyapunov_gaps = []
    n = 200
    for _ in range(n):
        p = SqueezedReservoirParams(
            kappa=rng.uniform(0.3, 5.0),
            delta=0.0,
            epsilon=rng.uniform(-2.0, 2.0),
            r=rng.uniform(0.0, 1.5),
            phi=rng.uniform(0.0, 2 * math.pi),
        )
        for branch in EpBranch:
            closed = squeezed_ep_gauge(p, branch)
            sign = 1.0 if branch is EpBranch.PLUS else -1.0
            gen = squeezed_generator(
                SqueezedReservoirParams(p.kappa, sign * p.epsilon, p.epsilon, p.r, p.phi)
            )
            lyapunov_gaps.append(np.max(np.abs(closed.S - solve_lyapunov(gen.A, gen.D).S)))
    # Stein half: nm_ep_gauge per draw, against the route of nm_channel and
    # solve_stein on the arrays of all draws, the two branches of a draw in turn
    closed = np.empty((n, 2, 3))
    kt, omega, t = np.empty(n), np.empty(n), np.empty(n)
    family = NmFamilyParams(lam=0.0, omega=0.0)  # the default memory and diffusion settings
    for i in range(n):
        params = replace(family, omega=rng.uniform(0.1, 2.0))
        t[i] = ti = rng.uniform(0.2, 3.0)
        omega[i], kt[i] = params.omega, memory_factor(params, ti)
        for j, branch in enumerate(EpBranch):
            closed[i, j] = nm_ep_gauge(params, ti, branch).S[[0, 0, 1], [0, 1, 1]]
    if fault == "ep-closed-form":
        closed[..., 1] += 1e-6
    kt, omega, t = np.repeat(kt, 2), np.repeat(omega, 2), np.repeat(t, 2)
    lam = omega * np.tile([1.0, -1.0], n)
    x = tuple(kt * e for e in expm2_entries(lam, omega, -omega, -lam, t))
    y = np.broadcast_arrays(*nm_diffusion_entries(family, kt, lam, omega), lam)[:3]
    # a draw that nm_channel (finite, CP) or solve_stein (Jury) rejects fails the suite
    margin, tol = cp_margin_entries(*x, *y)
    accepted = np.isfinite(x).all(axis=0) & np.isfinite(y).all(axis=0) & (margin >= -tol)
    accepted &= np.logical_and.reduce([term > 0.0 for term in jury_triple(*x)])
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        direct = np.column_stack(stein2_entries(*x, *y))
    gap = np.abs(closed.reshape(-1, 3) - direct).max(axis=1)
    rejected = np.count_nonzero(~accepted)
    note = f"{rejected} draws not CP or not Schur stable" if rejected else ""
    return 2 * n, [(lyapunov_gaps, 1e-10), (gap[accepted], 1e-10), (rejected, 0)], note


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
    "expm2-vs-general": _suite_expm2,
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


FAULT_CHOICES = ("stein", "lyapunov", "gauge", "jury", "expm2", "one-mode", "ep-closed-form")


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
