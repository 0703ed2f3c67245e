import numpy as np
import numpy.testing as npt
import pytest
import scipy.integrate
import scipy.linalg

from gaussgauge import (
    ConvergenceError,
    DimensionError,
    GaugeSource,
    GaussGaugeError,
    GaussianChannel,
    GaussianGenerator,
    JordanDrift2x2,
    MomentState,
    NonFiniteInputError,
    NumericalOverflowError,
    StabilityError,
    StabilityMode,
    expm2,
    jordan_structure,
    solve_lyapunov,
    solve_stein,
    stability,
    stein_jordan_closed_form,
    stein_series,
)
from gaussgauge.verify import random_hurwitz, random_psd, random_schur_stable


class TestStability:
    def test_jury_triple_example(self):
        report = stability(np.array([[0.5, 0.3], [0.0, 0.5]]), StabilityMode.DISCRETE)
        npt.assert_allclose(report.jury_triple, (0.75, 0.25, 2.25), atol=1e-15)
        assert report.spectral_radius == pytest.approx(0.5, abs=1e-12)
        assert report.stable_discrete

    def test_minus_identity_is_hurwitz(self):
        assert stability(-np.eye(3)).hurwitz

    def test_identity_on_discrete_boundary(self):
        report = stability(np.eye(2), StabilityMode.DISCRETE)
        assert report.spectral_radius == pytest.approx(1.0)
        assert not report.stable_discrete
        assert min(report.jury_triple) == pytest.approx(0.0, abs=1e-15)

    def test_jury_agrees_with_spectral_radius(self, rng):
        for _ in range(10_000):
            x = rng.uniform(-1.6, 1.6, size=(2, 2))
            report = stability(x, StabilityMode.DISCRETE)
            if abs(report.spectral_radius - 1.0) < 1e-10:
                continue
            stable = report.spectral_radius < 1.0
            assert stable == all(v > 0 for v in report.jury_triple)
            if stable:
                assert np.prod(report.jury_triple) > 0.0


class TestSolveLyapunov:
    def test_scalar_case(self):
        gamma, d = 0.7, 1.3
        cov = solve_lyapunov(-gamma * np.eye(2), d * np.eye(2))
        npt.assert_allclose(cov.S, (d / (2 * gamma)) * np.eye(2), atol=1e-14)
        assert cov.source is GaugeSource.LYAPUNOV

    def test_squeezed_ep_branch_value(self):
        a = np.array([[-1.0, 0.0], [-2.0, -1.0]])
        cov = solve_lyapunov(a, np.eye(2))
        npt.assert_allclose(cov.S, [[0.5, -0.5], [-0.5, 1.5]], atol=1e-14)

    def test_non_hurwitz_rejected(self):
        with pytest.raises(StabilityError):
            solve_lyapunov(np.eye(2), np.eye(2))

    def test_matches_integral_representation(self, rng):
        # independent oracle: S = int_0^T e^{At} D e^{A^T t} dt with T large
        for _ in range(10):
            dim = 2 * int(rng.integers(1, 3))
            a = random_hurwitz(rng, dim)
            d = random_psd(rng, dim)
            decay = -np.max(np.linalg.eigvals(a).real)
            horizon = 40.0 / decay

            def integrand(t):
                e = scipy.linalg.expm(a * t)
                return e @ d @ e.T

            oracle, _ = scipy.integrate.quad_vec(integrand, 0.0, horizon, epsabs=1e-11)
            npt.assert_allclose(solve_lyapunov(a, d).S, oracle, atol=1e-8)

    def test_residual_bound_random(self, rng):
        for _ in range(300):
            dim = 2 * int(rng.integers(1, 4))
            a = random_hurwitz(rng, dim)
            d = random_psd(rng, dim)
            cov = solve_lyapunov(a, d)
            assert cov.residual <= 1e-10 * (1.0 + np.abs(d).max())

    def test_agrees_with_kronecker_oracle(self, rng):
        for _ in range(300):
            a = random_hurwitz(rng, 2)
            d = random_psd(rng, 2)
            solved = solve_lyapunov(a, d).S
            lhs = np.kron(np.eye(2), a) + np.kron(a, np.eye(2))
            direct = np.linalg.solve(lhs, -d.reshape(-1)).reshape(2, 2)
            npt.assert_allclose(solved, 0.5 * (direct + direct.T), atol=1e-11)

    def test_residual_with_zero_diagonal_drift_entry(self):
        a = np.array([[0.0, 1.0], [-1.0, -0.5]])  # Hurwitz with a11 = 0
        d = np.array([[1.0, 0.2], [0.2, 2.0]])
        cov = solve_lyapunov(a, d)
        assert cov.residual <= 1e-12

    def test_bitwise_deterministic(self, rng):
        a = random_hurwitz(rng, 2)
        d = random_psd(rng, 2)
        first = solve_lyapunov(a, d).S
        perturbed = d + 1e-3
        _ = solve_lyapunov(a, perturbed)
        second = solve_lyapunov(a, d).S
        assert np.array_equal(first, second)

    def test_resonant_spectrum_rejected(self):
        # eigenvalues +-i (lambda_1 + lambda_2 = 0) fail the Hurwitz gate
        with pytest.raises(StabilityError):
            solve_lyapunov(np.array([[0.0, 1.0], [-1.0, 0.0]]), np.eye(2))


class TestSolveStein:
    def test_geometric_series_value(self):
        cov = solve_stein(0.5 * np.eye(2), np.eye(2))
        npt.assert_allclose(cov.S, (4.0 / 3.0) * np.eye(2), atol=1e-14)

    def test_jordan_drift_closed_value(self):
        x = np.array([[0.5, 0.3], [0.0, 0.5]])
        cov = solve_stein(x, np.eye(2))
        npt.assert_allclose(
            cov.S, [[8.0 / 5.0, 4.0 / 15.0], [4.0 / 15.0, 4.0 / 3.0]], atol=1e-14
        )
        npt.assert_allclose(x @ cov.S @ x.T + np.eye(2), cov.S, atol=1e-14)

    def test_zero_drift_returns_diffusion(self, rng):
        y = random_psd(rng, 4)
        npt.assert_allclose(solve_stein(np.zeros((4, 4)), y).S, y, atol=1e-15)

    def test_unstable_rejected(self):
        with pytest.raises(StabilityError):
            solve_stein(np.eye(2), np.eye(2))

    def test_residual_and_positivity(self, rng):
        for _ in range(300):
            dim = 2 * int(rng.integers(1, 4))
            x = random_schur_stable(rng, dim)
            y = random_psd(rng, dim)
            cov = solve_stein(x, y)
            assert cov.residual <= 1e-10 * (1.0 + np.abs(y).max())
            assert np.linalg.eigvalsh(cov.S).min() >= -1e-10

    def test_closed_form_agrees_with_kronecker_route(self, rng):
        for _ in range(300):
            x = random_schur_stable(rng, 2)
            y = random_psd(rng, 2)
            closed = solve_stein(x, y).S
            direct = np.linalg.solve(np.eye(4) - np.kron(x, x), y.reshape(-1)).reshape(2, 2)
            npt.assert_allclose(closed, 0.5 * (direct + direct.T), atol=1e-11)


class TestSteinSeries:
    def test_geometric_value(self):
        cov = stein_series(0.5 * np.eye(2), np.eye(2), tol=1e-13)
        npt.assert_allclose(cov.S, (4.0 / 3.0) * np.eye(2), atol=1e-12)
        assert cov.source is GaugeSource.STEIN_SERIES

    def test_zero_diffusion(self):
        cov = stein_series(0.5 * np.eye(2), np.zeros((2, 2)))
        npt.assert_array_equal(cov.S, np.zeros((2, 2)))

    def test_matches_direct_solver(self, rng):
        for _ in range(1000):
            dim = 2 * int(rng.integers(1, 4))
            x = random_schur_stable(rng, dim)
            y = random_psd(rng, dim)
            npt.assert_allclose(
                stein_series(x, y, tol=1e-13).S, solve_stein(x, y).S, atol=1e-10
            )

    def test_divergence_detected(self):
        with pytest.raises(ConvergenceError):
            stein_series(np.eye(2), np.eye(2), tol=1e-12, max_terms=500)


class TestJordanClosedForm:
    def test_matches_direct_stein_on_example(self):
        drift = JordanDrift2x2(alpha=0.5, nilpotent=np.array([[0.0, 1.0], [0.0, 0.0]]), t=0.6)
        cov = stein_jordan_closed_form(drift, np.eye(2))
        npt.assert_allclose(
            cov.S, [[8.0 / 5.0, 4.0 / 15.0], [4.0 / 15.0, 4.0 / 3.0]], atol=1e-14
        )
        assert cov.source is GaugeSource.JORDAN_CLOSED_FORM

    def test_scalar_drift_limit(self, rng):
        y = random_psd(rng, 2)
        drift = JordanDrift2x2(alpha=0.6, nilpotent=np.array([[0.0, 1.0], [0.0, 0.0]]), t=0.0)
        npt.assert_allclose(stein_jordan_closed_form(drift, y).S, y / (1 - 0.36), atol=1e-13)

    def test_anisotropic_against_series(self, rng):
        nilp = np.array([[0.0, 1.0], [0.0, 0.0]])
        for _ in range(100):
            alpha = rng.uniform(-0.9, 0.9)
            t = rng.uniform(0.0, 3.0)
            y = np.diag(rng.uniform(0.1, 2.0, size=2))
            drift = JordanDrift2x2(alpha=alpha, nilpotent=nilp, t=t)
            series = stein_series(drift.X, y, tol=1e-14)
            npt.assert_allclose(stein_jordan_closed_form(drift, y).S, series.S, atol=1e-10)

    def test_validation(self):
        with pytest.raises(DimensionError):
            JordanDrift2x2(alpha=0.5, nilpotent=np.eye(2), t=1.0)
        drift = JordanDrift2x2(alpha=1.1, nilpotent=np.array([[0.0, 1.0], [0.0, 0.0]]), t=1.0)
        with pytest.raises(StabilityError):
            stein_jordan_closed_form(drift, np.eye(2))


class TestExpm2:
    def test_hyperbolic_branch(self):
        b = np.array([[1.0, 0.0], [0.0, -1.0]])
        for t in (0.3, 1.7):
            npt.assert_allclose(expm2(b, t), np.diag([np.exp(t), np.exp(-t)]), atol=1e-14)

    def test_trigonometric_branch(self):
        b = np.array([[0.0, 1.0], [-1.0, 0.0]])
        t = 0.9
        expected = np.array([[np.cos(t), np.sin(t)], [-np.sin(t), np.cos(t)]])
        npt.assert_allclose(expm2(b, t), expected, atol=1e-14)

    def test_degenerate_branch(self):
        b = np.array([[1.0, 1.0], [-1.0, -1.0]])  # lambda = omega
        t = 1.4
        npt.assert_array_equal(expm2(b, t), np.eye(2) + t * b)

    def test_near_nilpotent_long_time(self):
        # det B0 = 5e-15 and t = 1000: the sin(x)/x series keeps the
        # t^2 det B0 / 2 ~ 2.5e-9 term that a cut to I + t B would drop
        b = np.array([[0.0, 1.0], [-5e-15, 0.0]])
        reference = scipy.linalg.expm(1000.0 * b)
        err = np.abs(expm2(b, 1000.0) - reference).max()
        assert err <= 1e-15 * np.abs(reference).max()

    def test_matches_general_exponential(self, rng):
        # relative to the exponential's own scale; the bound absorbs the
        # scaling-and-squaring route's rounding (~1e-12 relative, measured
        # against a 40-digit reference where the closed form sits at 2e-16)
        worst = 0.0
        for _ in range(500):
            b = rng.uniform(-2, 2, size=(2, 2))
            t = rng.uniform(-5.0, 5.0)
            reference = scipy.linalg.expm(t * b)
            err = np.abs(expm2(b, t) - reference).max() / (1.0 + np.abs(reference).max())
            worst = max(worst, err)
        assert worst <= 4e-12

    def test_high_precision_oracle(self, rng):
        import mpmath

        mpmath.mp.dps = 40
        worst = 0.0
        for _ in range(50):
            b = rng.uniform(-2, 2, size=(2, 2))
            t = rng.uniform(0.0, 5.0)
            exact_mp = mpmath.expm(mpmath.matrix(b.tolist()) * mpmath.mpf(t))
            exact = np.array([[float(exact_mp[i, j]) for j in range(2)] for i in range(2)])
            err = np.abs(expm2(b, t) - exact).max() / (1.0 + np.abs(exact).max())
            worst = max(worst, err)
        assert worst <= 1e-13

    def test_near_branch_boundaries(self, rng):
        for offset in (-1e-6, 0.0, 1e-6):
            lam = 1.0
            omega = lam + offset
            b = np.array([[lam, omega], [-omega, -lam]])
            for t in (0.5, 2.0, 5.0):
                reference = scipy.linalg.expm(t * b)
                tol = 1e-12 * (1.0 + np.abs(reference).max())
                npt.assert_allclose(expm2(b, t), reference, atol=tol)

    def test_scalar_shift_included(self, rng):
        for _ in range(100):
            b = rng.uniform(-2, 2, size=(2, 2))
            b[0, 0] += 1.5  # nonzero trace
            t = rng.uniform(0.0, 3.0)
            reference = scipy.linalg.expm(t * b)
            tol = 1e-12 * (1.0 + np.abs(reference).max())
            npt.assert_allclose(expm2(b, t), reference, atol=tol)

    @pytest.mark.parametrize(
        "b, t",
        [
            ([[800.0, 0.0], [0.0, -800.0]], 1.0),  # cosh and sinh beyond the float range
            ([[0.0, 1.0], [1.0, 0.0]], -720.0),  # the same through t
            ([[710.0, 0.0], [0.0, 710.0]], 1.0),  # exp(t tr/2) beyond it
            ([[1410.0, 0.0], [0.0, 0.0]], 1.0),  # both finite, their product not
        ],
        ids=["hyperbolic", "negative-t", "trace", "product"],
    )
    def test_overflow_raises_toolkit_error(self, b, t):
        assert issubclass(NumericalOverflowError, GaussGaugeError)
        with pytest.raises(NumericalOverflowError, match="float range"):
            expm2(b, t)

    def test_finite_just_below_overflow(self):
        b = np.array([[700.0, 0.0], [0.0, -700.0]])
        reference = np.diag([np.exp(700.0), np.exp(-700.0)])
        npt.assert_allclose(expm2(b), reference, rtol=0, atol=1e-12 * np.exp(700.0))


class TestGuards:
    def test_expm2_at_zero_time(self, rng):
        b = rng.standard_normal((2, 2))
        npt.assert_array_equal(expm2(b, 0.0), np.eye(2))

    def test_large_solves_match_kronecker_oracle(self, rng):
        # no size cap: 2N = 22 against the dense vectorized systems
        dim = 22
        eye = np.eye(dim)
        for _ in range(3):
            a = random_hurwitz(rng, dim)
            x = random_schur_stable(rng, dim)
            d = random_psd(rng, dim)
            lhs = np.kron(eye, a) + np.kron(a, eye)
            lyap = np.linalg.solve(lhs, -d.reshape(-1)).reshape(dim, dim)
            stein = np.linalg.solve(np.eye(dim * dim) - np.kron(x, x), d.reshape(-1))
            stein = stein.reshape(dim, dim)
            for got, want in ((solve_lyapunov(a, d).S, lyap), (solve_stein(x, d).S, stein)):
                want = 0.5 * (want + want.T)
                npt.assert_allclose(got, want, atol=1e-12 * np.abs(want).max())

    def test_stein_eigenvalue_near_minus_one(self, rng):
        # above dimension 10 scipy maps Stein to Lyapunov through (X + I)^-1,
        # which loses accuracy like 1 / (1 + lambda); pin it at lambda = -0.999
        q, _ = np.linalg.qr(rng.standard_normal((12, 12)))
        x = q @ np.diag(np.r_[-0.999, rng.uniform(-0.9, 0.9, 11)]) @ q.T
        cov = solve_stein(x, random_psd(rng, 12))
        assert cov.residual <= 1e-11 * np.abs(cov.S).max()

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("entry", [
        lambda bad: solve_lyapunov(-np.eye(4), bad),
        lambda bad: solve_lyapunov(bad, np.eye(4)),
        lambda bad: solve_stein(bad, np.eye(4)),
        lambda bad: solve_stein(0.5 * np.eye(4), bad),
        lambda bad: stein_series(0.5 * np.eye(4), bad),
        lambda bad: GaussianChannel(X=bad, Y=np.eye(4), delta=np.zeros(4)),
        lambda bad: GaussianChannel(X=np.eye(4), Y=bad, delta=np.zeros(4)),
        lambda bad: GaussianChannel(X=np.eye(4), Y=np.eye(4), delta=bad[0]),
        lambda bad: GaussianGenerator(A=bad, D=np.eye(4), u=np.zeros(4)),
        lambda bad: GaussianGenerator(A=-np.eye(4), D=bad, u=np.zeros(4)),
        lambda bad: GaussianGenerator(A=-np.eye(4), D=np.eye(4), u=bad[0]),
        lambda bad: stability(bad),
        lambda bad: expm2(bad[:2, :2]),
        lambda bad: expm2(-np.eye(2), bad[0, 0]),
        lambda bad: jordan_structure(bad[:2, :2]),
        lambda bad: jordan_structure(bad),
        lambda bad: MomentState(d=np.zeros(4), V=bad),
        lambda bad: MomentState(d=bad[0], V=np.eye(4)),
    ], ids=["lyap-D", "lyap-A", "stein-X", "stein-Y", "series-Y", "channel-X", "channel-Y",
            "channel-delta", "generator-A", "generator-D", "generator-u", "stability",
            "expm2-B", "expm2-t", "jordan-2x2", "jordan-4x4", "state-V", "state-d"])
    def test_non_finite_input_rejected(self, entry, value):
        bad = -0.5 * np.eye(4)
        bad[0, 0] = value
        with pytest.raises(NonFiniteInputError):
            entry(bad)

    def test_shape_validation(self):
        with pytest.raises(DimensionError):
            solve_lyapunov(-np.eye(2), np.eye(3))
        with pytest.raises(DimensionError):
            expm2(np.eye(3))
