"""The stacked verify suites against the per-draw loops they replace.

Every suite that draws random samples, but `semigroup-gauging` and
`noise-independence`, takes all its draws first and checks them on stacked
arrays. The reference loops below draw and check one sample at a time
through the scalar API (`solve_lyapunov`, `solve_stein`, `stein_series`,
`stability`, `drift_exponential`, `cp_check`, `gauge_channel`, `compose`,
`apply_channel`, `nm_channel`); both must give equal results from the same
generator. The suite checks the Lyapunov half of `ep-closed-forms` against a
Kronecker solve and the reference against `solve_lyapunov`, so there the two
agree up to `worst`, which stays within the bound.
"""

import dataclasses
import math

import numpy as np
import pytest
import scipy.linalg

from gaussgauge import verify
from gaussgauge.errors import _symmetrized
from gaussgauge.gauging import SmoothingMap, gauge_channel
from gaussgauge.matrix_equations import (
    drift_exponential,
    lyapunov_residual,
    solve_lyapunov,
    solve_stein,
    stability,
    stein_residual,
    stein_series,
)
from gaussgauge.models import (
    EpBranch,
    NmFamilyParams,
    SqueezedReservoirParams,
    nm_channel,
    nm_ep_gauge,
    squeezed_ep_gauge,
    squeezed_generator,
)
from gaussgauge.phase_space import (
    GaussianChannel,
    apply_channel,
    compose,
    cp_check,
    symplectic_form,
)
from gaussgauge.verify import (
    SuiteResult,
    random_hurwitz,
    random_psd,
    random_schur_stable,
    random_stable_channel,
    random_state,
    run_suite,
    run_verification,
)


def reference_lyapunov(rng, fault=None):
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
    return verify._verdict("lyapunov-residual", n, [(residuals, 1e-10), (gaps, 1e-11)])


def reference_stein(rng, fault=None):
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
    return verify._verdict("stein-residual", n, [(residuals, 1e-10), (gaps, 1e-10)])


def reference_positivity(rng, fault=None):
    negativity = []
    n = 200
    for _ in range(n):
        modes = int(rng.integers(1, 4))
        x = random_schur_stable(rng, 2 * modes)
        y = random_psd(rng, 2 * modes)
        negativity.append(-np.linalg.eigvalsh(solve_stein(x, y).S).min())
    return verify._verdict("positivity-transfer", n, [(negativity, 1e-10)])


def reference_channel_gauging(rng, fault=None):
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
    return verify._verdict("channel-gauging", n, [(residuals, 1e-9), (drift_changed, 0)])


def reference_composition(rng, fault=None):
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
    return verify._verdict("composition-consistency", n, [(gaps, 1e-12)])


def reference_jury(rng):
    n = 2000
    mismatches = 0
    denom_bad = 0
    for _ in range(n):
        x = rng.uniform(-1.6, 1.6, size=(2, 2))
        rep = stability(x)
        triple_stable = all(v > 0 for v in rep.jury_triple)
        spr_stable = rep.spectral_radius < 1.0
        if abs(rep.spectral_radius - 1.0) < 1e-10:
            continue
        if triple_stable != spr_stable:
            mismatches += 1
        if spr_stable and np.prod(rep.jury_triple) <= 0:
            denom_bad += 1
    worst = float(mismatches + denom_bad)
    return SuiteResult("jury-spectral-agreement", worst == 0, worst, 0.0, n)


def reference_expm2(rng):
    worst = 0.0
    n = 300
    for _ in range(n):
        b = rng.uniform(-2, 2, size=(2, 2))
        t = rng.uniform(0.0, 5.0)
        reference = scipy.linalg.expm(t * b)
        err = float(np.max(np.abs(drift_exponential(b, t) - reference)))
        err /= 1.0 + np.abs(reference).max()
        worst = max(worst, err)
    return SuiteResult("expm2-vs-general", worst <= 4e-12, worst, 4e-12, n)


def reference_one_mode_identities(rng):
    sigma = symplectic_form(1)
    worst_id = 0.0
    disagreements = 0
    n = 1000
    for _ in range(n):
        x = rng.uniform(-2, 2, size=(2, 2))
        worst_id = max(
            worst_id,
            float(np.max(np.abs(x @ sigma @ x.T - np.linalg.det(x) * sigma))),
        )
        y = rng.standard_normal((2, 2))
        y = 0.5 * (y + y.T) + rng.uniform(-0.3, 1.0) * np.eye(2)
        det_rep = cp_check(GaussianChannel(X=x, Y=y, delta=np.zeros(2)))
        z = y + 0.5j * (sigma - x @ sigma @ x.T)
        herm_margin = float(np.linalg.eigvalsh(z).min())
        if abs(det_rep.margin) < 1e-10 or abs(herm_margin) < 1e-10:
            continue
        if det_rep.passes != (herm_margin >= -1e-10 * (1.0 + float(abs(z).max()))):
            disagreements += 1
    passed = worst_id <= 1e-13 and disagreements == 0
    return SuiteResult("one-mode-identities", passed, max(worst_id, float(disagreements)), 1e-13, n)


def reference_ep_closed_forms(rng):
    worst = 0.0
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
            direct = solve_lyapunov(gen.A, gen.D).S
            worst = max(worst, float(np.max(np.abs(closed.S - direct))))
    for _ in range(n):
        params = NmFamilyParams(lam=0.0, omega=rng.uniform(0.1, 2.0))
        t = rng.uniform(0.2, 3.0)
        for branch in EpBranch:
            closed = nm_ep_gauge(params, t, branch)
            sign = 1.0 if branch is EpBranch.PLUS else -1.0
            ch = nm_channel(params, t, lam=sign * params.omega, omega=params.omega)
            direct = solve_stein(ch.X, ch.Y).S
            worst = max(worst, float(np.max(np.abs(closed.S - direct))))
    return SuiteResult("ep-closed-forms", worst <= 1e-10, worst, 1e-10, 2 * n)


REFERENCES = {
    "lyapunov-residual": reference_lyapunov,
    "stein-residual": reference_stein,
    "positivity-transfer": reference_positivity,
    "channel-gauging": reference_channel_gauging,
    "composition-consistency": reference_composition,
    "jury-spectral-agreement": reference_jury,
    "expm2-vs-general": reference_expm2,
    "one-mode-identities": reference_one_mode_identities,
    "ep-closed-forms": reference_ep_closed_forms,
}


def suite_rng(seed, name):
    """The generator that `run_verification` hands the named suite."""
    index = list(verify._SUITES).index(name)
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(index,)))


@pytest.mark.parametrize("seed", [0, 1, 7])
def test_array_suites_equal_per_draw_loops(seed):
    report = run_verification(seed)
    got = {s.name: s for s in report.suites}
    for name, reference in REFERENCES.items():
        expected = reference(suite_rng(seed, name))
        if name == "ep-closed-forms":
            # the Lyapunov half's oracle moved from solve_lyapunov to a Kronecker solve
            assert got[name] == dataclasses.replace(expected, worst=got[name].worst), name
            assert got[name].worst <= got[name].tolerance
        else:
            assert got[name] == expected, name


@pytest.mark.parametrize("fault, name", [
    ("lyapunov", "lyapunov-residual"),
    ("stein", "stein-residual"),
    ("gauge", "channel-gauging"),
])
def test_faulted_array_suites_equal_per_draw_loops(fault, name):
    got = run_suite(name, suite_rng(7, name), fault)
    assert not got.passed
    assert got == REFERENCES[name](suite_rng(7, name), fault)


@pytest.mark.parametrize("patch, value", [
    # kappa(t) = 1.2 in the direct route: det X = 1.44, a Jury term below 0
    ("memory_factor", lambda params, t: 1.2),
    # Y = 0: the CP margin is -((1 - det X)/2)^2 < 0
    ("nm_diffusion_entries", lambda params, kt, lam, omega: (0.0, 0.0, 0.0)),
])
def test_draws_the_scalar_route_rejects_fail_ep_closed_forms(patch, value, monkeypatch):
    monkeypatch.setattr(verify, patch, value)
    rng = np.random.default_rng(0)
    result = verify.run_suite("ep-closed-forms", rng)
    assert not result.passed
    assert result.note == "400 draws not CP or not Schur stable"
