import numpy as np
import numpy.testing as npt
import pytest

from gaussgauge import (
    DimensionError,
    GaugeCovariance,
    GaugeSource,
    GaussianChannel,
    GaussianGenerator,
    LindbladData,
    MomentState,
    apply_channel,
    compose,
    cp_check,
    default_gauge_times,
    drift_exponential,
    identity_channel,
    jordan_structure,
    solve_lyapunov,
    solve_stein,
    stein_series,
    symplectic_form,
    thermal_loss_channel,
)
from gaussgauge.verify import random_stable_channel, random_state


def robertson_margin(state):
    """Least eigenvalue of V + (i/2) Sigma; nonnegative for a physical state."""
    return float(np.linalg.eigvalsh(state.V + 0.5j * symplectic_form(state.modes)).min())


class TestSymplecticForm:
    def test_one_mode_grouped(self):
        npt.assert_array_equal(symplectic_form(1), [[0.0, 1.0], [-1.0, 0.0]])

    def test_two_modes_grouped_block_form(self):
        expected = np.zeros((4, 4))
        expected[:2, 2:] = np.eye(2)
        expected[2:, :2] = -np.eye(2)
        npt.assert_array_equal(symplectic_form(2), expected)

    @pytest.mark.parametrize("modes", [1, 2, 3])
    def test_antisymmetric_and_squares_to_minus_identity(self, modes):
        m = symplectic_form(modes)
        npt.assert_array_equal(m, -m.T)
        npt.assert_array_equal(m @ m, -np.eye(2 * modes))

    def test_zero_modes_rejected(self):
        with pytest.raises(DimensionError):
            symplectic_form(0)

    def test_read_only(self):
        m = symplectic_form(1)
        assert not m.flags.writeable
        with pytest.raises(ValueError):
            m[0, 1] = 2.0


class TestMomentState:
    def test_vacuum_is_physical_with_zero_margin(self):
        state = MomentState(np.zeros(4), 0.5 * np.eye(4))
        assert robertson_margin(state) == pytest.approx(0.0, abs=1e-12)

    def test_asymmetric_covariance_rejected(self):
        with pytest.raises(DimensionError):
            MomentState(d=np.zeros(2), V=np.array([[1.0, 0.5], [0.0, 1.0]]))

    def test_arrays_frozen(self):
        state = MomentState(np.zeros(2), 0.5 * np.eye(2))
        with pytest.raises(ValueError):
            state.V[0, 0] = 3.0


class TestApplyChannel:
    def test_identity_fixes_any_state(self, rng):
        state = random_state(rng, 2)
        out = apply_channel(identity_channel(2), state)
        npt.assert_allclose(out.d, state.d, atol=1e-15)
        npt.assert_allclose(out.V, state.V, atol=1e-15)

    def test_attenuator_fixes_vacuum(self):
        out = apply_channel(thermal_loss_channel(0.5), MomentState(np.zeros(2), 0.5 * np.eye(2)))
        npt.assert_allclose(out.d, np.zeros(2), atol=1e-15)
        npt.assert_allclose(out.V, 0.5 * np.eye(2), atol=1e-15)

    def test_total_contraction(self, rng):
        delta = np.array([0.3, -0.7])
        ch = GaussianChannel(X=np.zeros((2, 2)), Y=np.zeros((2, 2)), delta=delta)
        out = apply_channel(ch, random_state(rng, 1))
        npt.assert_array_equal(out.d, delta)
        npt.assert_array_equal(out.V, np.zeros((2, 2)))

    def test_mode_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            apply_channel(identity_channel(2), MomentState(np.zeros(2), 0.5 * np.eye(2)))


class TestCompose:
    def test_two_attenuators_equal_effective_attenuator(self):
        # eta = 0.25 twice composes to eta = 0.0625
        quarter = thermal_loss_channel(0.25)
        combined = compose(quarter, quarter)
        expected = thermal_loss_channel(0.0625)
        npt.assert_allclose(combined.X, expected.X, atol=1e-15)
        npt.assert_allclose(combined.Y, expected.Y, atol=1e-15)
        npt.assert_allclose(combined.Y, 0.46875 * np.eye(2), atol=1e-15)

    def test_identity_neutral(self, rng):
        ch = random_stable_channel(rng, 2)
        ident = identity_channel(2)
        for result in (compose(ident, ch), compose(ch, ident)):
            npt.assert_allclose(result.X, ch.X, atol=1e-15)
            npt.assert_allclose(result.Y, ch.Y, atol=1e-15)
            npt.assert_allclose(result.delta, ch.delta, atol=1e-15)

    def test_associativity(self, rng):
        for _ in range(50):
            modes = int(rng.integers(1, 4))
            c1, c2, c3 = (random_stable_channel(rng, modes) for _ in range(3))
            left = compose(c3, compose(c2, c1))
            right = compose(compose(c3, c2), c1)
            npt.assert_allclose(left.X, right.X, atol=1e-12)
            npt.assert_allclose(left.Y, right.Y, atol=1e-12)
            npt.assert_allclose(left.delta, right.delta, atol=1e-12)

    def test_composition_matches_sequential_application(self, rng):
        for _ in range(50):
            modes = int(rng.integers(1, 4))
            c1, c2 = (random_stable_channel(rng, modes) for _ in range(2))
            state = random_state(rng, modes)
            combined = apply_channel(compose(c2, c1), state)
            sequential = apply_channel(c2, apply_channel(c1, state))
            npt.assert_allclose(combined.d, sequential.d, atol=1e-12)
            npt.assert_allclose(combined.V, sequential.V, atol=1e-12)

    def test_mode_mismatch_rejected(self):
        with pytest.raises(DimensionError, match="mode mismatch: 1 modes vs 2 modes"):
            compose(identity_channel(1), identity_channel(2))


class TestCpCheck:
    def test_attenuator_saturates_det_condition(self):
        report = cp_check(thermal_loss_channel(0.5))
        assert report.passes
        # det Y = 0.0625 exactly equals ((1 - det X)/2)^2
        assert report.margin == pytest.approx(0.0, abs=1e-15)

    def test_identity_channel_margin_zero(self):
        report = cp_check(identity_channel(1))
        assert report.passes
        assert report.margin == pytest.approx(0.0, abs=1e-15)

    def test_amplifier_without_noise_fails(self):
        ch = GaussianChannel(X=2.0 * np.eye(2), Y=np.zeros((2, 2)), delta=np.zeros(2))
        report = cp_check(ch)
        assert not report.passes
        # det Y - ((1 - det X)/2)^2 = -2.25
        assert report.margin == pytest.approx(-2.25, abs=1e-15)

    def test_one_mode_symplectic_scaling_identity(self, rng):
        sigma = symplectic_form(1)
        for _ in range(1000):
            x = rng.uniform(-2, 2, size=(2, 2))
            lhs = x @ sigma @ x.T
            npt.assert_allclose(lhs, np.linalg.det(x) * sigma, atol=1e-13)

    @staticmethod
    def hermitian_margin(x, y):
        """Least eigenvalue and tolerance of the CP matrix Y + (i/2)(Sigma - X Sigma X^T)."""
        sigma = symplectic_form(x.shape[0] // 2)
        z = y + 0.5j * (sigma - x @ sigma @ x.T)
        return np.linalg.eigvalsh(z)[0], 1e-10 * (1.0 + abs(z).max())

    def test_det_and_hermitian_verdicts_agree(self, rng):
        # one mode takes the determinant route
        band = 1e-10
        for _ in range(1000):
            x = rng.uniform(-1.5, 1.5, size=(2, 2))
            y = rng.standard_normal((2, 2))
            y = 0.5 * (y + y.T) + rng.uniform(-0.3, 1.2) * np.eye(2)
            report = cp_check(GaussianChannel(X=x, Y=y, delta=np.zeros(2)))
            margin, tol = self.hermitian_margin(x, y)
            if abs(report.margin) < band or abs(margin) < band:
                continue
            assert report.passes == (margin >= -tol)

    @pytest.mark.parametrize("modes", [2, 3])
    def test_multi_mode_margin_is_least_hermitian_eigenvalue(self, rng, modes):
        for _ in range(50):
            x = rng.uniform(-1.0, 1.0, size=(2 * modes, 2 * modes))
            g = rng.standard_normal((2 * modes, 2 * modes))
            y = g @ g.T / modes + rng.uniform(-0.3, 1.0) * np.eye(2 * modes)
            report = cp_check(GaussianChannel(X=x, Y=y, delta=np.zeros(2 * modes)))
            margin, tol = self.hermitian_margin(x, y)
            assert report.margin == pytest.approx(margin, rel=1e-12, abs=1e-12)
            assert report.tolerance == pytest.approx(tol, rel=1e-12)
            assert report.passes == (report.margin >= -report.tolerance)


class TestEdgePaths:
    def test_random_states_above_vacuum_floor_are_physical(self, rng):
        for _ in range(50):
            state = random_state(rng, int(rng.integers(1, 4)))
            assert robertson_margin(state) >= -1e-12


BIG = 1e308

# finite solutions with entries near the float max, which a symmetrization
# as 0.5 (S + S^T) turns into inf
NEAR_MAX_CASES = {
    "lyapunov-2x2": lambda: solve_lyapunov(-0.5 * np.eye(2), BIG * np.eye(2)).S,
    "lyapunov-4x4": lambda: solve_lyapunov(-0.5 * np.eye(4), BIG * np.eye(4)).S,
    "stein-4x4": lambda: solve_stein(0.1 * np.eye(4), BIG * np.eye(4)).S,
    "stein-series": lambda: stein_series(0.1 * np.eye(2), BIG * np.eye(2)).S,
    "apply-channel": lambda: apply_channel(
        GaussianChannel(X=np.eye(2), Y=BIG * np.eye(2), delta=np.zeros(2)),
        MomentState(np.zeros(2), 0.5 * np.eye(2))).V,
}

EMPTY = np.zeros((0, 0))

# empty and 0-d input to every record and solver entry point
BAD_SHAPE_CASES = {
    "channel-0d": lambda: GaussianChannel(X=1.0, Y=1.0, delta=0.0),
    "generator-0x0": lambda: GaussianGenerator(A=EMPTY, D=EMPTY, u=np.zeros(0)),
    "lindblad-0x0": lambda: LindbladData(H=EMPTY),
    "gauge-covariance-1d": lambda: GaugeCovariance(
        S=np.ones(2), source=GaugeSource.LYAPUNOV, residual=0.0),
    "jordan-0x0": lambda: jordan_structure(EMPTY),
    "stein-0x0": lambda: solve_stein(EMPTY, EMPTY),
    "stein-series-0x0": lambda: stein_series(EMPTY, EMPTY),
    "lyapunov-0x0": lambda: solve_lyapunov(EMPTY, EMPTY),
    "drift-exponential-0x0": lambda: drift_exponential(EMPTY),
    "gauge-times-1d": lambda: default_gauge_times(-np.ones(2)),
    "gauge-times-0x0": lambda: default_gauge_times(EMPTY),
    "gauge-times-count-negative": lambda: default_gauge_times(-np.eye(2), count=-1),
}


@pytest.mark.parametrize("case", sorted(BAD_SHAPE_CASES))
def test_empty_or_0d_input_raises_dimension_error(case):
    with pytest.raises(DimensionError):
        BAD_SHAPE_CASES[case]()


class TestSymmetrization:
    @pytest.mark.filterwarnings("error")
    def test_huge_finite_entries_stay_finite(self):
        # (y + y.T) / 2 overflows from entries of about 9e307 up
        big = np.full((2, 2), 1e308)
        channel = GaussianChannel(X=np.eye(2), Y=big, delta=np.zeros(2))
        state = MomentState(d=np.zeros(2), V=big)
        npt.assert_array_equal(channel.Y, big)
        npt.assert_array_equal(state.V, big)

    @pytest.mark.filterwarnings("error")
    def test_huge_finite_diffusion_and_gauge_stay_finite(self):
        big = np.full((2, 2), 1e308)
        generator = GaussianGenerator(A=-np.eye(2), D=big, u=np.zeros(2))
        cov = GaugeCovariance(S=big, source=GaugeSource.LYAPUNOV, residual=0.0)
        npt.assert_array_equal(generator.D, big)
        npt.assert_array_equal(cov.S, big)

    def test_lyapunov_at_the_float_max_is_exact(self):
        # the closed form returns 1e308 I; the defect A S + S A^T + D is exactly 0
        cov = solve_lyapunov(-0.5 * np.eye(2), BIG * np.eye(2))
        npt.assert_array_equal(cov.S, BIG * np.eye(2))
        assert cov.residual == 0.0

    @pytest.mark.filterwarnings("error")
    def test_lyapunov_with_products_beyond_the_float_max_is_exact(self):
        # det A D = 4e308 overflows unless A and D are scaled first
        cov = solve_lyapunov(-2.0 * np.eye(2), BIG * np.eye(2))
        npt.assert_array_equal(cov.S, 0.25 * BIG * np.eye(2))
        assert cov.residual == 0.0

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("case", sorted(NEAR_MAX_CASES))
    def test_finite_solutions_near_the_float_max_stay_finite(self, case):
        assert np.isfinite(NEAR_MAX_CASES[case]()).all()

    def test_bitwise_equal_to_halved_sum(self, rng):
        # halving is exact outside the subnormal range, so both forms round alike
        for _ in range(200):
            n = 2 * int(rng.integers(1, 4))
            m = rng.standard_normal((n, n)) * 10.0 ** rng.uniform(-150.0, 150.0)
            y = m + m.T
            y += 1e-14 * np.abs(y).max() * rng.standard_normal((n, n))
            want = (0.5 * (y + y.T)).tobytes()
            assert GaussianChannel(X=np.eye(n), Y=y, delta=np.zeros(n)).Y.tobytes() == want
            assert MomentState(d=np.zeros(n), V=y).V.tobytes() == want
            generator = GaussianGenerator(A=-np.eye(n), D=y, u=np.zeros(n))
            assert generator.D.tobytes() == want
            cov = GaugeCovariance(S=y, source=GaugeSource.STEIN, residual=0.0)
            assert cov.S.tobytes() == want
