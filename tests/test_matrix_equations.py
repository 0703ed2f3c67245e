import warnings
from contextlib import nullcontext

import numpy as np
import numpy.testing as npt
import pytest
import scipy.integrate
import scipy.linalg

from gaussgauge import (
    AnisotropicDiffusion,
    ConvergenceError,
    DimensionError,
    DriftAlignedDiffusion,
    GaugeCovariance,
    GaugeSource,
    GaussGaugeError,
    GaussianChannel,
    GaussianGenerator,
    JordanDrift2x2,
    MomentState,
    NmFamilyParams,
    NonFiniteInputError,
    NumericalOverflowError,
    SqueezedReservoirParams,
    StabilityError,
    additive_spectrum,
    default_gauge_times,
    drift_exponential,
    jordan_structure,
    memory_factor,
    nm_channel,
    nm_ep_gauge,
    solve_lyapunov,
    solve_stein,
    stein_jordan_closed_form,
    stein_series,
    thermal_loss_channel,
)
from gaussgauge.errors import _symmetrized
from gaussgauge.matrix_equations import _entries2, _lyapunov, _stein, _stein2
from gaussgauge.onemode import jury_triple, lyapunov2_entries
from gaussgauge.verify import random_hurwitz, random_psd, random_schur_stable


def spectral_radius(x):
    return float(np.abs(np.linalg.eigvals(x)).max())


def _naming(name, entry):
    """entry, whose NonFiniteInputError must name the argument `name`."""
    def checked(bad):
        try:
            entry(bad)
        except NonFiniteInputError as exc:
            assert str(exc).startswith(f"{name} "), exc
            raise
    return checked


class TestStability:
    """The stability gates of the solvers against the eigenvalues."""

    def test_jury_triple_example(self):
        x = np.array([[0.5, 0.3], [0.0, 0.5]])
        npt.assert_allclose(jury_triple(*x.ravel()), (0.75, 0.25, 2.25), atol=1e-15)
        assert spectral_radius(x) == pytest.approx(0.5, abs=1e-12)

    def test_minus_identity_is_hurwitz(self):
        # the stacked eigvals gate of the 3x3 Lyapunov route
        npt.assert_array_equal(solve_lyapunov(-np.eye(3), np.eye(3)).S, 0.5 * np.eye(3))
        with pytest.raises(StabilityError, match="Hurwitz"):
            solve_lyapunov(np.eye(3), np.eye(3))

    def test_identity_on_discrete_boundary(self):
        assert spectral_radius(np.eye(2)) == pytest.approx(1.0)
        assert min(jury_triple(1.0, 0.0, 0.0, 1.0)) == pytest.approx(0.0, abs=1e-15)
        with pytest.raises(StabilityError, match="spectral radius"):
            solve_stein(np.eye(2), np.eye(2))

    def test_jury_agrees_with_spectral_radius(self, rng):
        for _ in range(10_000):
            x = rng.uniform(-1.6, 1.6, size=(2, 2))
            spr, triple = spectral_radius(x), jury_triple(*x.ravel().tolist())
            if abs(spr - 1.0) < 1e-10:
                continue
            stable = spr < 1.0
            assert stable == all(v > 0 for v in triple)
            if stable:
                assert np.prod(triple) > 0.0


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

    @pytest.mark.parametrize("dim", [2, 4, 6, 8, 12])
    def test_stacked_route_matches_single_pairs(self, rng, dim):
        # verify runs `_lyapunov` on whole stacks of draws: bit for bit the S
        # of the same route on one pair and of one solve_lyapunov call
        a = np.array([random_hurwitz(rng, dim) for _ in range(20)])
        d = np.array([random_psd(rng, dim) for _ in range(20)])
        stacked = _lyapunov(a, d)
        assert stacked.shape == (20, dim, dim)
        for ai, di, si in zip(a, d, stacked):
            assert np.array_equal(_lyapunov(ai, di), si)
            assert np.array_equal(solve_lyapunov(ai, di).S, si)
        a[7] = np.eye(dim)  # one drift that is not Hurwitz rejects the stack
        with pytest.raises(StabilityError, match=r"^Lyapunov gauging requires a Hurwitz drift$"):
            _lyapunov(a, d)

    def test_closed_form_matches_scipy(self, rng):
        # half the drifts non-normal: an off-diagonal entry of up to 100 on a
        # spectral abscissa of -0.2 or less; both solvers keep about 13 digits there
        n = 10_000
        g = rng.standard_normal((n, 2, 2))
        g[::2, 0, 1] *= 10.0 ** rng.uniform(0.0, 2.0, size=n // 2)
        shift = np.linalg.eigvals(g).real.max(axis=1) + rng.uniform(0.2, 1.0, size=n)
        a = g - shift[:, None, None] * np.eye(2)
        d = np.array([random_psd(rng, 2) for _ in range(n)])
        for ai, di, si in zip(a, d, _lyapunov(a, d)):
            want = scipy.linalg.solve_continuous_lyapunov(ai, -di)
            assert np.abs(si - want).max() <= 1e-12 * np.abs(want).max()

    def test_two_by_two_gate_agrees_with_eigenvalues(self, rng):
        x = rng.uniform(-2.0, 2.0, size=(20_000, 2, 2))
        hurwitz = lyapunov2_entries(*_entries2(x), 1.0, 0.0, 1.0)[3]
        abscissa = np.linalg.eigvals(x).real.max(axis=1)
        counted = abs(abscissa) >= 1e-12
        assert np.count_nonzero(counted & hurwitz) > 1000
        assert np.array_equal(hurwitz[counted], abscissa[counted] < 0.0)

    @pytest.mark.parametrize("big", [1e20, 1e50])
    @pytest.mark.parametrize("dim", [2, 4, 6])
    def test_strongly_non_normal_drift(self, dim, big):
        # A = -I/2 + big E_01: S_11 = 1, S_01 = big, S_00 = 1 + 2 big^2; the
        # Kronecker system is ill-conditioned, and scipy says so
        a = -0.5 * np.eye(dim)
        a[0, 1] = big
        warns = pytest.warns(scipy.linalg.LinAlgWarning) if dim > 2 else nullcontext()
        with warns:
            s = solve_lyapunov(a, np.eye(dim)).S
        want = np.eye(dim)
        want[:2, :2] = [[1.0 + 2.0 * big * big, big], [big, 1.0]]
        npt.assert_allclose(s, want, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("solve", [
        # X (x) X overflows at X[0, 1]^2 = 1e400
        lambda: solve_stein(np.diag([0.5] * 4) + np.diag([1e200, 0.0, 0.0], 1), np.eye(4)),
        # S = 2e308 I, by the closed form and by the Kronecker system
        lambda: solve_lyapunov(-0.25 * np.eye(2), 1e308 * np.eye(2)),
        lambda: solve_lyapunov(-0.25 * np.eye(4), 1e308 * np.eye(4)),
        # A_ii + A_kk overflows in the Kronecker system
        lambda: solve_lyapunov(-1e308 * np.eye(4), np.eye(4)),
    ], ids=["stein-kron", "lyapunov-2x2", "lyapunov-kron-S", "lyapunov-kron-system"])
    def test_overflow_raises_toolkit_error(self, solve):
        # no numpy warning (an error under this suite's warning filter) and
        # no raw scipy ValueError on the way
        with pytest.raises(NumericalOverflowError, match="leaves the float range"):
            solve()


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
        with pytest.raises(StabilityError):
            solve_stein(2.0 * np.eye(4), np.eye(4))

    def test_one_mode_decided_by_jury_triple(self, monkeypatch):
        # 2x2 Schur stability is the Jury triple alone, with no eigenvalues
        def no_eigvals(_):
            raise AssertionError("eigvals called")

        monkeypatch.setattr(np.linalg, "eigvals", no_eigvals)
        npt.assert_allclose(solve_stein(0.5 * np.eye(2), np.eye(2)).S, (4.0 / 3.0) * np.eye(2))
        for x in ([[0.5, 0.3], [0.0, 1.0]], [[-1.0, 0.3], [0.0, 0.5]], [[0.9, 2.0], [-2.0, 0.9]]):
            # 1 - tr + det, 1 + tr + det and 1 - det vanish or go negative in turn
            with pytest.raises(StabilityError):
                solve_stein(np.array(x), np.eye(2))

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

    def test_one_mode_route_on_a_stack(self, rng):
        # verify runs the one-mode route of solve_stein on whole stacks of draws
        x = np.array([random_schur_stable(rng, 2) for _ in range(50)])
        y = np.array([random_psd(rng, 2) for _ in range(50)])
        stacked = _stein2(x, y)
        assert stacked.shape == (50, 2, 2)
        assert np.array_equal(stacked, [solve_stein(xi, yi).S for xi, yi in zip(x, y)])
        x[17] = np.eye(2)  # one draw of spectral radius 1 rejects the stack
        with pytest.raises(StabilityError, match="spectral radius < 1"):
            _stein2(x, y)

    @pytest.mark.parametrize("dim", [4, 6, 8, 12])
    def test_stacked_route_matches_scipy_per_pair(self, rng, dim):
        # verify runs `_stein` on whole stacks of draws: bit for bit the S of
        # one solve_stein call and of scipy's own route per pair, symmetric
        # drifts among them
        x = np.array([random_schur_stable(rng, dim) for _ in range(20)])
        x[::5] = 0.5 * (x[::5] + x[::5].transpose(0, 2, 1))
        x[::5] *= 0.9 / abs(np.linalg.eigvals(x[::5])).max(axis=1)[:, None, None]
        y = np.array([random_psd(rng, dim) for _ in range(20)])
        stacked = _stein(x, y)
        assert stacked.shape == (20, dim, dim)
        for xi, yi, si in zip(x, y, stacked):
            want = _symmetrized(scipy.linalg.solve_discrete_lyapunov(xi, yi))
            assert np.array_equal(si, want)
            assert np.array_equal(solve_stein(xi, yi).S, want)
            assert np.array_equal(_stein(xi, yi), want)
        x[7] = np.eye(dim)  # one draw of spectral radius 1 rejects the stack
        with pytest.raises(StabilityError, match=r"^Stein gauging requires spectral radius < 1$"):
            _stein(x, y)


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

    def test_term_cap_counts_terms(self):
        # at spectral radius 1 no increment shrinks; j doublings sum 2^j
        # terms, and only doublings that stay within the cap run
        rotation = np.array([[0.6, -0.8], [0.8, 0.6]])
        for x in (np.eye(2), rotation):
            with pytest.raises(ConvergenceError, match="after 256 terms"):
                stein_series(x, np.eye(2), max_terms=500)
            with pytest.raises(ConvergenceError, match="after 262144 terms"):
                stein_series(x, np.eye(2))
        # nilpotent X: Y + X Y X^T, then a zero increment at the 4th term
        x = np.array([[0.0, 1.0], [0.0, 0.0]])
        npt.assert_array_equal(stein_series(x, np.eye(2), max_terms=4).S, np.diag([2.0, 1.0]))
        with pytest.raises(ConvergenceError, match="after 2 terms"):
            stein_series(x, np.eye(2), max_terms=3)

    @pytest.mark.parametrize("rho", [0.999, 0.9999])
    @pytest.mark.parametrize("b", [None, 1.0, 1e1, 1e2])
    def test_near_unit_spectral_radius(self, rho, b):
        # normal X = rho R, and non-normal X = Q [[rho, b], [0, -rho/2]] Q^T,
        # against scipy's direct solve; both are within the forward error
        # bound eps kappa(I - X (x) X) of a backward-stable solve, and the
        # bound allows 4 of it (the largest seen on such draws is 0.36)
        q = np.array([[0.6, -0.8], [0.8, 0.6]])
        x = rho * q if b is None else q @ np.array([[rho, b], [0.0, -0.5 * rho]]) @ q.T
        y = np.array([[1.0, 0.3], [0.3, 0.5]])
        s = stein_series(x, y, max_terms=2**20).S
        reference = scipy.linalg.solve_discrete_lyapunov(x, y)
        bound = 4 * np.finfo(float).eps * np.linalg.cond(np.eye(4) - np.kron(x, x))
        assert np.max(np.abs(s - reference)) <= bound * np.max(np.abs(reference))

    def test_worst_known_draw(self):
        # the one-mode draw of `verify --seed 357` stein-residual with
        # max|S| = 2.4e5 and cond X = 1.5e3; S rounded from a 50-digit
        # Kronecker solve. The series is 2.8e-13 from it, relative to max|S|
        x = np.array([[5.538126970705809, 0.9189581599894323],
                      [-25.299887661418495, -4.117114008493898]])
        y = np.array([[9.342202931234107, 4.543606247978475],
                      [4.543606247978475, 2.312332925110558]])
        exact = np.array([[9600.400357381615, -47575.8057812017],
                          [-47575.8057812017, 236113.83044961267]])
        s = stein_series(x, y, tol=1e-13).S
        assert np.max(np.abs(s - exact)) <= 1e-12 * np.max(np.abs(exact))


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

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_input_rejected(self, bad):
        nilp = np.array([[0.0, 1.0], [0.0, 0.0]])
        bad_nilp = np.array([[0.0, bad], [0.0, 0.0]])
        for kwargs in ({"alpha": bad}, {"t": bad}, {"nilpotent": bad_nilp}):
            with pytest.raises(NonFiniteInputError):
                JordanDrift2x2(**{"alpha": 0.5, "nilpotent": nilp, "t": 1.0, **kwargs})
        drift = JordanDrift2x2(alpha=0.5, nilpotent=nilp, t=1.0)
        with pytest.raises(NonFiniteInputError):
            stein_jordan_closed_form(drift, [[bad, 0.0], [0.0, 1.0]])

    def test_overflow_raises_toolkit_error(self):
        # t^2 = 1e400 leaves the float range: a NumericalOverflowError, and no
        # RuntimeWarning from the inf * 0 = NaN it leaves in S
        drift = JordanDrift2x2(alpha=0.5, nilpotent=np.array([[0.0, 1.0], [0.0, 0.0]]), t=1e200)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalOverflowError, match="t = 1e\\+200"):
                stein_jordan_closed_form(drift, np.eye(2))


class TestExpm2:
    """The 2x2 route of `drift_exponential`, the closed form of `expm2_entries`."""

    def test_hyperbolic_branch(self):
        b = np.array([[1.0, 0.0], [0.0, -1.0]])
        for t in (0.3, 1.7):
            npt.assert_allclose(drift_exponential(b, t), np.diag([np.exp(t), np.exp(-t)]), atol=1e-14)

    def test_trigonometric_branch(self):
        b = np.array([[0.0, 1.0], [-1.0, 0.0]])
        t = 0.9
        expected = np.array([[np.cos(t), np.sin(t)], [-np.sin(t), np.cos(t)]])
        npt.assert_allclose(drift_exponential(b, t), expected, atol=1e-14)

    def test_degenerate_branch(self):
        b = np.array([[1.0, 1.0], [-1.0, -1.0]])  # lambda = omega
        t = 1.4
        npt.assert_array_equal(drift_exponential(b, t), np.eye(2) + t * b)

    def test_near_nilpotent_long_time(self):
        # det B0 = 5e-15 and t = 1000: the sin(x)/x series keeps the
        # t^2 det B0 / 2 ~ 2.5e-9 term that a cut to I + t B would drop
        b = np.array([[0.0, 1.0], [-5e-15, 0.0]])
        reference = scipy.linalg.expm(1000.0 * b)
        err = np.abs(drift_exponential(b, 1000.0) - reference).max()
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
            err = np.abs(drift_exponential(b, t) - reference).max() / (1.0 + np.abs(reference).max())
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
            err = np.abs(drift_exponential(b, t) - exact).max() / (1.0 + np.abs(exact).max())
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
                npt.assert_allclose(drift_exponential(b, t), reference, atol=tol)

    def test_scalar_shift_included(self, rng):
        for _ in range(100):
            b = rng.uniform(-2, 2, size=(2, 2))
            b[0, 0] += 1.5  # nonzero trace
            t = rng.uniform(0.0, 3.0)
            reference = scipy.linalg.expm(t * b)
            tol = 1e-12 * (1.0 + np.abs(reference).max())
            npt.assert_allclose(drift_exponential(b, t), reference, atol=tol)

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
            drift_exponential(b, t)

    @pytest.mark.parametrize("x", [1.0, 17.0, 19.0, 20.0, 50.0, 300.0])
    def test_hyperbolic_diagonal_entrywise(self, x):
        # cosh x - sinh x cancels: e^-19 = 5.6e-9 once came out -1.5e-8, and 0 at x = 20
        b = np.diag([x, -x])
        reference = scipy.linalg.expm(b)
        npt.assert_array_equal(drift_exponential(b) == 0.0, reference == 0.0)
        npt.assert_allclose(drift_exponential(b), reference, rtol=1e-14, atol=0)
        npt.assert_allclose(drift_exponential(-b), reference[::-1, ::-1], rtol=1e-14, atol=0)

    def test_hyperbolic_small_entries_entrywise(self, rng):
        # a dominant traceless diagonal with small off-diagonal entries: the
        # decaying diagonal entry is tiny next to cosh x and sinh x; scipy's
        # own entrywise error here stays near 6e-12
        worst = 0.0
        for _ in range(200):
            a = rng.uniform(5.0, 40.0) * rng.choice([-1.0, 1.0])
            off = rng.uniform(-1.0, 1.0, size=2) * 10.0 ** rng.uniform(-8.0, 0.0, size=2)
            b = np.array([[a, off[0]], [off[1], -a]]) + rng.uniform(-1.0, 1.0) * np.eye(2)
            t = rng.choice([1.0, -1.0]) * rng.uniform(0.5, 1.0)
            reference = scipy.linalg.expm(t * b)
            worst = max(worst, np.max(np.abs(drift_exponential(b, t) - reference) / np.abs(reference)))
        assert worst <= 1e-10

    def test_finite_just_below_overflow(self):
        b = np.array([[700.0, 0.0], [0.0, -700.0]])
        reference = np.diag([np.exp(700.0), np.exp(-700.0)])
        npt.assert_allclose(drift_exponential(b), reference, rtol=0, atol=1e-12 * np.exp(700.0))


class TestDriftExponential:
    @pytest.mark.parametrize("dim", [2, 4, 10])
    def test_time_array_stacks_single_times_bitwise(self, rng, dim):
        a = rng.standard_normal((dim, dim))
        times = np.r_[0.0, rng.uniform(-3.0, 3.0, 6), 0.37]
        stack = drift_exponential(a, times)
        assert stack.shape == (times.size, dim, dim)
        for t, e in zip(times, stack):
            npt.assert_array_equal(e, drift_exponential(a, t))
        assert drift_exponential(a, []).shape == (0, dim, dim)

    @pytest.mark.parametrize("dim", [2, 4])
    def test_bad_times_rejected(self, dim):
        a = -np.eye(dim)
        with pytest.raises(DimensionError):
            drift_exponential(a, [[0.1, 0.2]])
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(NonFiniteInputError):
                drift_exponential(a, bad)
            with pytest.raises(NonFiniteInputError):
                drift_exponential(a, [0.5, bad])

    @pytest.mark.parametrize("dim", [2, 4])
    def test_overflow_names_the_first_time(self, dim):
        a = np.diag([800.0] + [-1.0] * (dim - 1))
        with pytest.raises(NumericalOverflowError, match=r"exp\(t A\) .* at t = 2.0$"):
            drift_exponential(a, [0.5, 2.0, 1.0])


class TestGuards:
    def test_expm2_at_zero_time(self, rng):
        b = rng.standard_normal((2, 2))
        npt.assert_array_equal(drift_exponential(b, 0.0), np.eye(2))

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
        lambda bad: drift_exponential(bad[:2, :2]),
        lambda bad: drift_exponential(-np.eye(2), bad[0, 0]),
        lambda bad: drift_exponential(bad, 1.0),
        lambda bad: jordan_structure(bad[:2, :2]),
        lambda bad: jordan_structure(bad),
        lambda bad: MomentState(d=np.zeros(4), V=bad),
        lambda bad: MomentState(d=bad[0], V=np.eye(4)),
        lambda bad: GaugeCovariance(S=bad, source=GaugeSource.STEIN, residual=0.0),
        lambda bad: default_gauge_times(bad),
        lambda bad: additive_spectrum(np.diag(bad), 2),
        lambda bad: SqueezedReservoirParams(kappa=bad[0, 0], delta=0.1, epsilon=1.0),
        lambda bad: SqueezedReservoirParams(kappa=1.0, delta=0.1, epsilon=1.0, r=bad[0, 0]),
        lambda bad: SqueezedReservoirParams(kappa=1.0, delta=0.1, epsilon=1.0, phi=bad[0, 0]),
        lambda bad: NmFamilyParams(gamma=bad[0, 0]),
        lambda bad: AnisotropicDiffusion(s=bad[0, 0]),
        lambda bad: DriftAlignedDiffusion(alpha=bad[0, 0]),
        lambda bad: thermal_loss_channel(bad[0, 0]),
        lambda bad: thermal_loss_channel(0.5, bad[0, 0]),
        lambda bad: memory_factor(NmFamilyParams(), bad[0, 0]),
        lambda bad: nm_channel(NmFamilyParams(), bad[0, 0], 0.7, 0.7),
        _naming("lam", lambda bad: nm_channel(NmFamilyParams(), 1.0, bad[0, 0], 0.7)),
        lambda bad: nm_ep_gauge(NmFamilyParams(), bad[0, 0], 0.7, "plus"),
    ], ids=["lyap-D", "lyap-A", "stein-X", "stein-Y", "series-Y", "channel-X", "channel-Y",
            "channel-delta", "generator-A", "generator-D", "generator-u",
            "expm2-B", "expm2-t", "drift-exp-A", "jordan-2x2", "jordan-4x4", "state-V",
            "state-d", "gauge-covariance-S", "gauge-times-A", "additive-spectrum",
            "squeezed-kappa", "squeezed-r", "squeezed-phi", "nm-gamma", "aniso-s",
            "drift-aligned-alpha", "thermal-eta", "thermal-nbar", "memory-t", "nm-channel-t",
            "nm-channel-lam", "nm-ep-gauge-t"])
    def test_non_finite_input_rejected(self, entry, value):
        bad = -0.5 * np.eye(4)
        bad[0, 0] = value
        with pytest.raises(NonFiniteInputError):
            entry(bad)

    def test_shape_validation(self):
        with pytest.raises(DimensionError):
            solve_lyapunov(-np.eye(2), np.eye(3))
