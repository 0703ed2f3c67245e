import sys

import numpy as np
import numpy.testing as npt
import pytest
import scipy.linalg

from gaussgauge import gauging
from gaussgauge import (
    DimensionError,
    GaussianChannel,
    GaussianGenerator,
    SmoothingMap,
    StabilityError,
    compose,
    cp_check,
    default_gauge_times,
    gauge_channel,
    gauge_semigroup,
    NonFiniteInputError,
    semigroup_channel,
    squeezed_generator,
    SqueezedReservoirParams,
    thermal_loss_channel,
)
from gaussgauge.verify import random_hurwitz, random_psd, random_stable_channel


class TestSmoothingMap:
    def test_forward_then_inverse_is_identity_exactly(self, rng):
        s = random_psd(rng, 4)
        smoothing = SmoothingMap(s)
        round_trip = compose(smoothing.inverse(), smoothing.forward())
        npt.assert_array_equal(round_trip.X, np.eye(4))
        npt.assert_array_equal(round_trip.Y, np.zeros((4, 4)))
        npt.assert_array_equal(round_trip.delta, np.zeros(4))

    def test_inverse_map_is_generically_not_cp(self, rng):
        for _ in range(100):
            s = random_psd(rng, 2) + 0.05 * np.eye(2)  # strictly positive
            report = cp_check(SmoothingMap(s).inverse())
            assert not report.passes

    def test_conjugate_matches_the_composition(self, rng):
        # V_S^-1 o channel o V_S through compose, against the one record conjugate builds
        for modes in (1, 2, 3):
            channel = random_stable_channel(rng, modes)
            smoothing = SmoothingMap(random_psd(rng, 2 * modes))
            want = compose(smoothing.inverse(), compose(channel, smoothing.forward()))
            got = smoothing.conjugate(channel)
            npt.assert_array_equal(got.X, want.X)
            npt.assert_array_equal(got.Y, want.Y)
            npt.assert_array_equal(got.delta, want.delta)

    def test_conjugate_rejects_a_mode_mismatch(self):
        with pytest.raises(DimensionError):
            SmoothingMap(np.eye(4)).conjugate(thermal_loss_channel(0.5))

    @pytest.mark.parametrize("s, error", [
        (np.array([np.nan, 1.0, 2.0]), DimensionError),  # 1-D
        (np.array([[1.0, np.nan], [np.nan, 1.0]]), NonFiniteInputError),
        (np.array([[1.0, 0.5], [0.0, 1.0]]), DimensionError),  # not symmetric
        (np.eye(3), DimensionError),  # odd dimension
    ])
    def test_invalid_covariance_rejected_at_construction(self, s, error):
        with pytest.raises(error):
            SmoothingMap(s)

    def test_leaves_the_callers_array_writable(self):
        s = np.eye(2)
        smoothing = SmoothingMap(s)
        s[0, 0] = 5.0
        npt.assert_array_equal(smoothing.S, np.eye(2))
        assert not smoothing.S.flags.writeable


class TestGaugeChannel:
    def test_attenuator(self):
        ch = thermal_loss_channel(0.5)
        result = gauge_channel(ch)
        npt.assert_allclose(result.S.S, 0.5 * np.eye(2), atol=1e-14)
        npt.assert_array_equal(result.gauged.X, ch.X)
        npt.assert_array_equal(result.gauged.Y, np.zeros((2, 2)))
        assert result.residual_Y <= 1e-15
        assert not cp_check(result.gauged).passes

    def test_zero_diffusion_unchanged(self):
        ch = GaussianChannel(X=0.5 * np.eye(2), Y=np.zeros((2, 2)), delta=[0.1, 0.2])
        result = gauge_channel(ch)
        npt.assert_array_equal(result.S.S, np.zeros((2, 2)))
        npt.assert_array_equal(result.gauged.X, ch.X)
        npt.assert_array_equal(result.gauged.delta, ch.delta)
        assert result.residual_Y == 0.0

    def test_jordan_channel_cross_module_value(self):
        x = 0.5 * (np.eye(2) + 0.6 * np.array([[0.0, 1.0], [0.0, 0.0]]))
        ch = GaussianChannel(X=x, Y=np.eye(2), delta=np.zeros(2))
        result = gauge_channel(ch)
        npt.assert_allclose(
            result.S.S, [[8.0 / 5.0, 4.0 / 15.0], [4.0 / 15.0, 4.0 / 3.0]], atol=1e-13
        )

    def test_residual_bound_and_bitwise_parameters(self, rng):
        for _ in range(300):
            modes = int(rng.integers(1, 4))
            ch = random_stable_channel(rng, modes)
            result = gauge_channel(ch)
            assert result.residual_Y <= 1e-9 * (1.0 + np.abs(ch.Y).max())
            assert np.array_equal(ch.X, result.gauged.X)
            assert np.array_equal(ch.delta, result.gauged.delta)

    def test_unstable_rejected(self):
        ch = GaussianChannel(X=1.01 * np.eye(2), Y=np.eye(2), delta=np.zeros(2))
        with pytest.raises(StabilityError):
            gauge_channel(ch)


class TestGaugeSemigroup:
    def test_thermal_damping(self):
        kappa, nbar = 1.2, 0.3
        gen = GaussianGenerator(
            A=-0.5 * kappa * np.eye(2),
            D=0.5 * kappa * (2 * nbar + 1) * np.eye(2),
            u=np.zeros(2),
        )
        result = gauge_semigroup(gen, times=[0.0, 0.1, 1.0, 10.0])
        npt.assert_allclose(result.S.S, 0.5 * (2 * nbar + 1) * np.eye(2), atol=1e-13)
        assert result.max_residual <= 1e-10

    def test_zero_diffusion(self, rng):
        gen = GaussianGenerator(A=random_hurwitz(rng, 4), D=np.zeros((4, 4)), u=np.zeros(4))
        result = gauge_semigroup(gen)
        npt.assert_array_equal(result.S.S, np.zeros((4, 4)))
        assert result.max_residual == 0.0

    def test_squeezed_ep_point(self):
        gen = squeezed_generator(SqueezedReservoirParams(kappa=2.0, delta=1.0, epsilon=1.0))
        times = np.geomspace(1e-3, 10.0, 20)
        result = gauge_semigroup(gen, times)
        npt.assert_allclose(result.S.S, [[0.5, -0.5], [-0.5, 1.5]], atol=1e-12)
        assert result.max_residual <= 1e-9

    def test_uniform_in_time_residual(self, rng):
        worst = 0.0
        for _ in range(60):
            modes = int(rng.integers(1, 3))
            gen = GaussianGenerator(
                A=random_hurwitz(rng, 2 * modes),
                D=random_psd(rng, 2 * modes),
                u=rng.standard_normal(2 * modes),
            )
            result = gauge_semigroup(gen, default_gauge_times(gen.A, count=20))
            worst = max(worst, result.max_residual)
        assert worst <= 1e-8

    def test_non_hurwitz_rejected(self):
        gen = GaussianGenerator(A=np.eye(2), D=np.eye(2), u=np.zeros(2))
        with pytest.raises(StabilityError):
            gauge_semigroup(gen)

    def test_one_hurwitz_gate_per_channel(self, rng, monkeypatch):
        # the Lyapunov solve for the covariance is the only Hurwitz gate: at
        # 2x2 its trace and determinant, with no eigenvalues, and one eigvals
        # above; the channels at each time take no eigenvalues
        one_mode = squeezed_generator(SqueezedReservoirParams(kappa=2.0, delta=0.3, epsilon=1.0))
        two_mode = GaussianGenerator(
            A=random_hurwitz(rng, 4), D=random_psd(rng, 4), u=np.zeros(4))
        calls = []
        eigvals = np.linalg.eigvals

        def counted(m):
            calls.append(m.shape)
            return eigvals(m)

        monkeypatch.setattr(np.linalg, "eigvals", counted)
        gauge_semigroup(one_mode, times=[0.5, 1.0])
        assert calls == []
        gauge_semigroup(two_mode, times=[0.5, 1.0])
        assert calls == [(4, 4)]

    @pytest.mark.parametrize("modes", [1, 2, 5])
    def test_residuals_match_single_time_channels(self, rng, modes):
        # the stacked residuals against max|X S X^T + Y - S| of each
        # single-time channel, on a grid through t = 0
        for _ in range(5):
            gen = GaussianGenerator(
                A=random_hurwitz(rng, 2 * modes),
                D=random_psd(rng, 2 * modes),
                u=rng.standard_normal(2 * modes),
            )
            times = np.r_[0.0, default_gauge_times(gen.A, count=12)]
            result = gauge_semigroup(gen, times)
            s = result.S.S
            want = []
            for t in times:
                ch = semigroup_channel(gen, t)
                want.append(np.max(np.abs(ch.X @ s @ ch.X.T + ch.Y - s)))
            tol = 1e-15 * (1.0 + np.abs(s).max())
            npt.assert_allclose(result.residuals, want, rtol=0, atol=tol)
            assert result.max_residual == result.residuals.max()

    @pytest.mark.parametrize("modes", [1, 2])
    def test_one_stacked_pass_over_the_times(self, rng, monkeypatch, modes):
        # 20 times cost two scipy exponentials (X_t above 2x2, and the Van
        # Loan blocks) and the covariance's Hurwitz gate, not one set per time;
        # at 2x2 that gate takes no eigenvalues
        gen = GaussianGenerator(
            A=random_hurwitz(rng, 2 * modes), D=random_psd(rng, 2 * modes), u=np.zeros(2 * modes)
        )
        calls = {"expm": 0, "eigvals": 0}
        expm, eigvals = scipy.linalg.expm, np.linalg.eigvals

        def counted_expm(a):
            calls["expm"] += 1
            return expm(a)

        def counted_eigvals(m):
            calls["eigvals"] += 1
            return eigvals(m)

        monkeypatch.setattr(scipy.linalg, "expm", counted_expm)
        monkeypatch.setattr(np.linalg, "eigvals", counted_eigvals)
        result = gauge_semigroup(gen, np.linspace(0.0, 5.0, 20))
        assert result.residuals.shape == (20,)
        assert calls["expm"] <= 2
        assert calls["eigvals"] == (0 if modes == 1 else 1)

    @pytest.mark.parametrize("modes", [1, 2])
    def test_bad_times_rejected(self, rng, modes):
        gen = GaussianGenerator(
            A=random_hurwitz(rng, 2 * modes), D=random_psd(rng, 2 * modes), u=np.zeros(2 * modes)
        )
        with pytest.raises(DimensionError):
            gauge_semigroup(gen, [[0.1, 0.2]])
        with pytest.raises(DimensionError):
            gauge_semigroup(gen, [0.1, -0.2])
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(NonFiniteInputError):
                gauge_semigroup(gen, [0.1, bad])
        result = gauge_semigroup(gen, [])
        assert result.residuals.shape == (0,)
        assert result.max_residual == 0.0

    def test_wrong_covariance_is_detected(self, monkeypatch):
        # the Lyapunov solver is off by 1e-6 wherever the package binds it;
        # Y_t must not come from it, so the residual shows the error instead
        # of cancelling it
        solve = gauging._lyapunov

        def perturbed(a, d):
            return solve(a, d) + 1e-6

        for name, module in list(sys.modules.items()):
            if name.startswith("gaussgauge") and hasattr(module, "_lyapunov"):
                monkeypatch.setattr(module, "_lyapunov", perturbed)
        gen = squeezed_generator(SqueezedReservoirParams(kappa=2.0, delta=0.3, epsilon=1.0))
        assert gauge_semigroup(gen).max_residual > 1e-8

    def test_diffusion_is_time_derivative_of_y_at_zero(self, rng):
        # finite-difference dY_t/dt at t = 0 recovers D
        gen = GaussianGenerator(
            A=random_hurwitz(rng, 4), D=random_psd(rng, 4), u=np.zeros(4)
        )
        h = 1e-4
        y_h = semigroup_channel(gen, h).Y
        y_2h = semigroup_channel(gen, 2 * h).Y
        derivative = (4.0 * y_h - y_2h) / (2.0 * h)
        npt.assert_allclose(derivative, gen.D, atol=1e-6)
