"""The stacked verify suites against the per-draw loops they replace.

Every suite that draws random samples, but `noise-independence`, takes all
its draws first and checks them on stacked arrays, through the same private
array cores that the public routes wrap; `noise-independence` runs those
cores one draw at a time. The reference loops below draw and
check one sample at a time through the public API (`solve_lyapunov`,
`solve_stein`, `stein_series`, `drift_exponential`, `cp_check`,
`gauge_channel`, `gauge_semigroup`, `semigroup_channel`, `compose`,
`apply_channel`, `nm_ep_gauge`, `nm_channel`, `GaussianGenerator`,
`gauge_similarity_residual`); both must give equal results
from the same generator, with and without each suite's fault. The suite
checks the Lyapunov half of `ep-closed-forms` against a Kronecker solve and
the reference against `solve_lyapunov`, so there the two agree up to
`worst`, which stays within the bound. Each core is also checked against
its public record, slice by slice and bit for bit.
"""

import dataclasses
import math

import numpy as np
import pytest
import scipy.linalg

from gaussgauge import verify
from gaussgauge.errors import NonFiniteInputError, _symmetrized
from gaussgauge.gauging import (
    SmoothingMap,
    _gauged_y,
    _semigroup_gauge,
    default_gauge_times,
    gauge_channel,
    gauge_semigroup,
)
from gaussgauge.generators import (
    GaussianGenerator,
    _semigroup_stack,
    semigroup_arrays,
    semigroup_channel,
)
from gaussgauge.matrix_equations import (
    JordanDrift2x2,
    _exponentials,
    _stein,
    _stein_jordan,
    drift_exponential,
    lyapunov_residual,
    solve_lyapunov,
    solve_stein,
    stein_jordan_closed_form,
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
from gaussgauge.onemode import jury_triple
from gaussgauge.phase_space import (
    GaussianChannel,
    _applied,
    _composed,
    apply_channel,
    compose,
    cp_check,
    symplectic_form,
)
from gaussgauge.spectral import _ou_matrix, truncated_ou_matrix
from gaussgauge.verify import (
    SuiteResult,
    gauge_similarity_residual,
    random_ep2_drift,
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


def reference_semigroup(rng, fault=None):
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
        elif fault == "semigroup":
            s = gauge_semigroup(gen, times).S.S
            x = semigroup_arrays(gen, times)[0]
            y = semigroup_arrays(gen, times * (1.0 + 1e-6))[1]
            residuals.append(np.max(np.abs(x @ s @ x.transpose(0, 2, 1) + y - s)))
        else:
            residuals.append(gauge_semigroup(gen, times).max_residual)
    return verify._verdict("semigroup-gauging", n, [(residuals, 1e-8)])


def reference_composition(rng, fault=None):
    gaps = []
    n = 100
    for _ in range(n):
        modes = int(rng.integers(1, 4))
        chs = [random_stable_channel(rng, modes) for _ in range(3)]
        state = random_state(rng, modes)
        inner = compose(chs[1], chs[0])
        if fault == "composition":
            inner = GaussianChannel(X=inner.X, Y=inner.Y + 1e-9, delta=inner.delta)
        left = compose(chs[2], inner)
        right = compose(compose(chs[2], chs[1]), chs[0])
        via_compose = apply_channel(inner, state)
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
        triple = jury_triple(*x.ravel().tolist())
        spr = float(np.abs(np.linalg.eigvals(x)).max())
        if abs(spr - 1.0) < 1e-10:
            continue
        if all(v > 0 for v in triple) != (spr < 1.0):
            mismatches += 1
        if spr < 1.0 and np.prod(triple) <= 0:
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


def reference_ep_closed_forms(rng, fault=None):
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
        for sign in (1.0, -1.0):  # the plus and minus branches
            on_branch = dataclasses.replace(p, delta=sign * p.epsilon)
            closed = squeezed_ep_gauge(on_branch)
            gen = squeezed_generator(on_branch)
            direct = solve_lyapunov(gen.A, gen.D).S
            worst = max(worst, float(np.max(np.abs(closed.S - direct))))
    for _ in range(n):
        params = NmFamilyParams()
        omega = rng.uniform(0.1, 2.0)
        t = rng.uniform(0.2, 3.0)
        for branch in EpBranch:
            closed = nm_ep_gauge(params, t, omega, branch).S
            if fault == "ep-closed-form":
                closed = closed + [[0.0, 1e-6], [1e-6, 0.0]]
            sign = 1.0 if branch is EpBranch.PLUS else -1.0
            ch = nm_channel(params, t, sign * omega, omega)
            direct = solve_stein(ch.X, ch.Y).S
            worst = max(worst, float(np.max(np.abs(closed - direct))))
    return SuiteResult("ep-closed-forms", worst <= 1e-10, worst, 1e-10, 2 * n)


def reference_noise_independence(rng, fault=None):
    residuals = []
    n = 30
    for k in range(n):
        dim, degree = ((2, 6), (4, 4))[k % 2]
        a = random_ep2_drift(rng, dim) if k % 3 == 0 else random_hurwitz(rng, dim)
        gen = GaussianGenerator(A=a, D=random_psd(rng, dim), u=rng.standard_normal(dim))
        s = solve_lyapunov(gen.A, gen.D).S
        if fault == "noise":
            s = s * (1.0 + 1e-6)
        residuals.append(gauge_similarity_residual(gen, s, degree))
    return verify._verdict("noise-independence", n, [(residuals, 1e-12)])


REFERENCES = {
    "lyapunov-residual": reference_lyapunov,
    "stein-residual": reference_stein,
    "positivity-transfer": reference_positivity,
    "channel-gauging": reference_channel_gauging,
    "semigroup-gauging": reference_semigroup,
    "composition-consistency": reference_composition,
    "jury-spectral-agreement": reference_jury,
    "expm2-vs-general": reference_expm2,
    "one-mode-identities": reference_one_mode_identities,
    "ep-closed-forms": reference_ep_closed_forms,
    "noise-independence": reference_noise_independence,
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
    ("lyapunov", "semigroup-gauging"),
    ("semigroup", "semigroup-gauging"),
    ("composition", "composition-consistency"),
    ("ep-closed-form", "ep-closed-forms"),
    ("noise", "noise-independence"),
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


def test_channel_gauging_record_check_can_fail(monkeypatch):
    # a gauge_channel whose gauged record moves X: the first draw of each of
    # the three mode groups counts as drift-changed
    def moved(channel):
        result = gauge_channel(channel)
        gauged = GaussianChannel(X=result.gauged.X + 1e-12, Y=result.gauged.Y,
                                 delta=result.gauged.delta)
        return dataclasses.replace(result, gauged=gauged)

    assert run_suite("channel-gauging", suite_rng(7, "channel-gauging")).passed
    monkeypatch.setattr(verify, "gauge_channel", moved)
    got = run_suite("channel-gauging", suite_rng(7, "channel-gauging"))
    assert not got.passed
    assert got.worst == 3.0


# ---------------------------------------------------------------------------
# The array cores against their public records, slice by slice, bit for bit
# ---------------------------------------------------------------------------

MODES = [1, 2, 3]


def equal(a, b):
    """Bitwise equality of two arrays of one shape."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def generators(rng, modes, n=4):
    return [GaussianGenerator(A=random_hurwitz(rng, 2 * modes), D=random_psd(rng, 2 * modes),
                              u=rng.standard_normal(2 * modes)) for _ in range(n)]


def stacked(records, *fields):
    return [np.array([getattr(r, f) for r in records]) for f in fields]


@pytest.mark.parametrize("modes", MODES)
def test_gauged_y_of_a_stack_equals_gauge_channel(modes, rng):
    channels = [random_stable_channel(rng, modes) for _ in range(5)]
    x, y = stacked(channels, "X", "Y")
    s = _stein(x, y)
    left = _gauged_y(x, s, y)
    for ch, si, li in zip(channels, s, left):
        result = gauge_channel(ch)
        assert equal(result.S.S, si)
        assert result.residual_Y == np.abs(li).max()
    assert equal(_gauged_y(x[:1], s[:1], y[:1])[0], _gauged_y(x[0], s[0], y[0]))


@pytest.mark.parametrize("modes", MODES)
def test_default_gauge_times_of_a_stack(modes, rng):
    a = np.array([g.A for g in generators(rng, modes)])
    times = default_gauge_times(a, count=7)
    assert all(equal(row, default_gauge_times(ai, count=7)) for row, ai in zip(times, a))


@pytest.mark.parametrize("modes", MODES)
def test_semigroup_stack_equals_semigroup_arrays(modes, rng):
    gens = generators(rng, modes)
    a, d, u = stacked(gens, "A", "D", "u")
    times = rng.uniform(0.0, 6.0, size=(len(gens), 5))
    times[0, 0] = 0.0
    x_t, y, delta = _semigroup_stack(a, d, u, times)
    assert x_t.shape == y.shape == times.shape + a.shape[-2:]
    for i, gen in enumerate(gens):
        expected = semigroup_arrays(gen, times[i])
        assert all(equal(got[i], want) for got, want in zip((x_t, y, delta), expected))
        assert equal(x_t[i], drift_exponential(gen.A, times[i]))
        assert equal(_exponentials(a[i:i + 1], times[i:i + 1])[0], x_t[i])
    one = _semigroup_stack(a[:1], d[:1], u[:1], times[:1])
    assert all(equal(p[0], q) for p, q in zip(one, _semigroup_stack(a[0], d[0], u[0], times[0])))


@pytest.mark.parametrize("modes", MODES)
def test_semigroup_gauge_equals_gauge_semigroup(modes, rng):
    gens = generators(rng, modes)
    a, d, u = stacked(gens, "A", "D", "u")
    s, times, residuals = _semigroup_gauge(a, d, u)
    for i, gen in enumerate(gens):
        result = gauge_semigroup(gen)
        assert equal(result.S.S, s[i])
        assert equal(result.times, times[i])
        assert equal(result.residuals, residuals[i])
    one = _semigroup_gauge(a[:1], d[:1], u[:1], times[:1])
    assert all(equal(p[0], q) for p, q in zip(one, _semigroup_gauge(a[0], d[0], u[0], times[0])))


@pytest.mark.parametrize("modes", MODES)
def test_composed_and_applied_equal_the_records(modes, rng):
    firsts, seconds = ([random_stable_channel(rng, modes) for _ in range(5)] for _ in range(2))
    states = [random_state(rng, modes) for _ in range(5)]
    ch1, ch2 = (stacked(chs, "X", "Y", "delta") for chs in (firsts, seconds))
    st = stacked(states, "d", "V")
    composed, applied = _composed(*ch2, *ch1), _applied(*ch1, *st)
    for i, (first, second, state) in enumerate(zip(firsts, seconds, states)):
        record = compose(second, first)
        want = (record.X, record.Y, record.delta)
        assert all(equal(got[i], w) for got, w in zip(composed, want))
        record = apply_channel(first, state)
        assert equal(applied[0][i], record.d) and equal(applied[1][i], record.V)
    for core, args in ((_composed, (*ch2, *ch1)), (_applied, (*ch1, *st))):
        one, single = core(*(v[:1] for v in args)), core(*(v[0] for v in args))
        assert all(equal(p[0], q) for p, q in zip(one, single))


def test_stein_jordan_equals_the_closed_form(rng):
    n = 6
    alpha, t = rng.uniform(-0.95, 0.95, n), rng.uniform(0.1, 3.0, n)
    omega = rng.uniform(0.1, 2.0, n)
    lam = omega * rng.choice([-1.0, 1.0], n)
    nil = np.array([[lam, omega], [-omega, -lam]]).transpose(2, 0, 1)
    y = np.array([random_psd(rng, 2) for _ in range(n)])
    s = _stein_jordan(alpha, t, nil, y)
    for i in range(n):
        drift = JordanDrift2x2(alpha=float(alpha[i]), nilpotent=nil[i], t=float(t[i]))
        cov = stein_jordan_closed_form(drift, y[i])
        assert equal(cov.S, _symmetrized(s[i]))
        assert cov.residual == stein_residual(drift.X, s[i], y[i])
        assert equal(_stein_jordan(drift.alpha, drift.t, nil[i], y[i]), s[i])
    assert equal(_stein_jordan(alpha[:1], t[:1], nil[:1], y[:1])[0], s[0])


@pytest.mark.parametrize("modes", MODES)
def test_stein_series_of_a_stack(modes, rng):
    x = np.array([random_schur_stable(rng, 2 * modes) for _ in range(5)])
    y = np.array([random_psd(rng, 2 * modes) for _ in range(5)])
    covs = stein_series(x, y, tol=1e-13)
    assert len(covs) == len(x)
    for cov, xi, yi in zip(covs, x, y):
        # each pair stops at its own first increment below tol
        alone = stein_series(xi, yi, tol=1e-13)
        assert equal(cov.S, alone.S) and cov.residual == alone.residual
    assert equal(stein_series(x[:1], y[:1])[0].S, stein_series(x[0], y[0]).S)


@pytest.mark.parametrize("modes", MODES)
def test_ou_matrix_equals_the_public_matrix(modes, rng):
    for gen in generators(rng, modes, n=2):
        for degree in range(5 - modes):
            assert equal(_ou_matrix(gen.A, gen.D, gen.u, degree),
                         truncated_ou_matrix(gen, degree))


def complex_similarity_residual(gen, s, max_degree):
    """`gauge_similarity_residual` in complex arithmetic, from the public
    matrices and records."""
    zero = np.zeros_like(gen.A)
    l_d = truncated_ou_matrix(gen, max_degree)
    l_0 = truncated_ou_matrix(GaussianGenerator(A=gen.A, D=zero, u=gen.u), max_degree)
    m = truncated_ou_matrix(GaussianGenerator(A=zero, D=s, u=np.zeros(len(zero))), max_degree).real
    g = g_inv = term = np.eye(len(m))
    for k in range(1, max_degree // 2 + 1):
        term = term @ m / k
        g, g_inv = g + term, g_inv + (-1) ** k * term
    residual = np.max(np.abs(g_inv @ l_d @ g - l_0))
    return float(residual / np.max(np.abs(g_inv) @ np.abs(l_d) @ np.abs(g)))


@pytest.mark.parametrize("modes, degree", [(1, 6), (2, 4), (3, 2)])
def test_similarity_residual_equals_complex_arithmetic(modes, degree, rng):
    # the folded real products sum the same nonzero terms as the complex
    # ones; both values are rounding-level ratios, so they must agree to a
    # few ulps of 1 (and stay relative 1e-12 apart under a 1e-6 error in S)
    for gen in generators(rng, modes, n=3):
        s = solve_lyapunov(gen.A, gen.D).S
        for scale in (1.0, 1.0 + 1e-6):
            want = complex_similarity_residual(gen, s * scale, degree)
            got = gauge_similarity_residual(gen, s * scale, degree)
            assert got == pytest.approx(want, rel=1e-12, abs=8 * np.finfo(float).eps)


def test_similarity_residual_raises_on_a_non_finite_s(rng):
    (gen,) = generators(rng, 1, n=1)
    s = solve_lyapunov(gen.A, gen.D).S.copy()
    s[0, 0] = np.nan
    for residual in (gauge_similarity_residual,
                     lambda g, s, k: verify._similarity_residual(g.A, g.D, g.u, s, k)):
        with pytest.raises(NonFiniteInputError, match="D has non-finite entries"):
            residual(gen, s, 4)


def test_expm2_draws_equal_the_per_draw_loop():
    # the suite's one uniform call takes the draws of a per-draw loop of two
    # calls per sample, bit for bit, and leaves the generator in its state
    low, high = [-2, -2, -2, -2, 0], [2, 2, 2, 2, 5]
    for seed in range(200):
        loop, one_call = np.random.default_rng(seed), np.random.default_rng(seed)
        want = [np.append(loop.uniform(-2, 2, size=(2, 2)), loop.uniform(0.0, 5.0))
                for _ in range(300)]
        assert equal(one_call.uniform(low, high, size=(300, 5)), np.array(want))
        assert loop.bit_generator.state == one_call.bit_generator.state
