import math

import numpy as np
import numpy.testing as npt
import pytest
import scipy.integrate
import scipy.linalg

from gaussgauge import (
    DimensionError,
    GaussianGenerator,
    LindbladData,
    MomentState,
    NonFiniteInputError,
    NumericalOverflowError,
    apply_channel,
    compose,
    cp_check_generator,
    from_lindblad,
    propagate_moments,
    semigroup_arrays,
    semigroup_channel,
    solve_lyapunov,
    symplectic_form,
)
from gaussgauge.verify import random_hurwitz, random_psd, random_state

SIGMA = symplectic_form(1)
ROTATION = np.array([[0.0, 1.0], [-1.0, 0.0]])
NILPOTENT = np.array([[0.0, 1.0], [0.0, 0.0]])


def random_physical_generator(rng, modes, jumps=2):
    """Generator from random linear Lindblad data (CP holds by construction).

    Each mode carries a lowering-operator jump at a random rate on top of the
    fully random rows, so a sizable fraction of draws is Hurwitz while strong
    random Hamiltonians still produce unstable ones.
    """
    dim = 2 * modes
    h = rng.standard_normal((dim, dim))
    rows = [rng.standard_normal(dim) + 1j * rng.standard_normal(dim) for _ in range(jumps)]
    for j in range(modes):
        lowering = np.zeros(dim, dtype=complex)
        lowering[j] = 1.0 / np.sqrt(2.0)
        lowering[modes + j] = 1.0j / np.sqrt(2.0)
        rows.append(np.sqrt(rng.uniform(1.0, 4.0)) * lowering)
    data = LindbladData(H=0.5 * (h + h.T), f=rng.standard_normal(dim), jump_rows=tuple(rows))
    return from_lindblad(data)


def relative_error(value, oracle):
    return float(np.max(np.abs(value - oracle))) / float(np.max(np.abs(oracle)))


def thermal_jump_rows(kappa, nbar):
    """Lowering/raising jump pair of a thermal bath at occupation nbar."""
    a_row = np.array([1.0, 1.0j]) / np.sqrt(2.0)
    a_dag_row = np.array([1.0, -1.0j]) / np.sqrt(2.0)
    return (np.sqrt(kappa * (nbar + 1.0)) * a_row, np.sqrt(kappa * nbar) * a_dag_row)


class TestFromLindblad:
    def test_bogoliubov_jump_without_squeezing(self, rng):
        # cosh(0) a + e^{i phi} sinh(0) a^dag = a for any phi
        phi = rng.uniform(0, 2 * np.pi)
        row = np.array([1.0, 1.0j]) / np.sqrt(2.0)
        gen = from_lindblad(LindbladData(H=np.zeros((2, 2)), jump_rows=(row,), rate=1.0))
        npt.assert_allclose(gen.A, -0.5 * np.eye(2), atol=1e-15)
        npt.assert_allclose(gen.D, 0.5 * np.eye(2), atol=1e-15)
        assert phi is not None  # phi drops out at r = 0

    def test_hamiltonian_only_rotation(self):
        omega = 1.3
        gen = from_lindblad(LindbladData(H=omega * np.eye(2)))
        npt.assert_allclose(gen.A, omega * SIGMA, atol=1e-15)
        npt.assert_array_equal(gen.D, np.zeros((2, 2)))

    def test_linear_drive(self):
        gen = from_lindblad(LindbladData(H=np.zeros((2, 2)), f=[0.4, -1.1]))
        npt.assert_allclose(gen.u, [-1.1, -0.4], atol=1e-15)

    def test_always_completely_positive(self, rng):
        for _ in range(200):
            modes = int(rng.integers(1, 4))
            gen = random_physical_generator(rng, modes)
            assert cp_check_generator(gen).passes

    def test_thermal_pair_closed_form(self):
        # damping at rate kappa into a bath at occupation nbar
        kappa, nbar = 0.8, 0.4
        gen = from_lindblad(
            LindbladData(H=np.zeros((2, 2)), jump_rows=thermal_jump_rows(kappa, nbar))
        )
        npt.assert_allclose(gen.A, -0.5 * kappa * np.eye(2), atol=1e-15)
        npt.assert_allclose(gen.D, 0.5 * kappa * (2 * nbar + 1) * np.eye(2), atol=1e-15)

    def test_huge_finite_rates_stay_finite(self):
        # Re(C^dag C) = diag(1e308, 0) is finite; (d + d.T) / 2 would overflow
        gen = from_lindblad(LindbladData(H=np.zeros((2, 2)), jump_rows=(np.array([1e154, 0.0]),)))
        npt.assert_array_equal(gen.D, np.diag([0.0, 1e308]))


class TestGeneratorCp:
    def test_thermal_damping_margin_zero(self):
        gen = GaussianGenerator(A=-0.5 * np.eye(2), D=0.5 * np.eye(2), u=np.zeros(2))
        report = cp_check_generator(gen)
        assert report.passes
        assert report.margin == pytest.approx(0.0, abs=1e-14)

    def test_hamiltonian_flow_margin_zero(self):
        gen = GaussianGenerator(A=1.7 * SIGMA, D=np.zeros((2, 2)), u=np.zeros(2))
        report = cp_check_generator(gen)
        assert report.passes
        assert report.margin == pytest.approx(0.0, abs=1e-14)

    def test_damping_without_noise_fails(self):
        kappa = 0.9
        gen = GaussianGenerator(A=-0.5 * kappa * np.eye(2), D=np.zeros((2, 2)), u=np.zeros(2))
        report = cp_check_generator(gen)
        assert not report.passes
        assert report.margin == pytest.approx(-0.5 * kappa, abs=1e-14)

    def test_critically_damped_drift_margin_zero(self):
        # critically damped oscillator: the defective drift -omega0 I + N with
        # the minimal isotropic diffusion omega0 I sits exactly on the CP boundary
        omega0 = 0.7
        gen = GaussianGenerator(A=-omega0 * np.eye(2) + NILPOTENT, D=omega0 * np.eye(2),
                                u=np.zeros(2))
        report = cp_check_generator(gen)
        assert report.passes
        assert report.margin == pytest.approx(0.0, abs=1e-12)


class TestSemigroupChannel:
    def test_isotropic_closed_form(self):
        gamma, d = 0.6, 1.1
        gen = GaussianGenerator(A=-gamma * np.eye(2), D=d * np.eye(2), u=np.zeros(2))
        for t in (0.2, 1.0, 3.5):
            ch = semigroup_channel(gen, t)
            npt.assert_allclose(ch.X, np.exp(-gamma * t) * np.eye(2), atol=1e-13)
            expected_y = d * (1 - np.exp(-2 * gamma * t)) / (2 * gamma)
            npt.assert_allclose(ch.Y, expected_y * np.eye(2), atol=1e-12)

    def test_zero_time_is_identity(self, rng):
        gen = random_physical_generator(rng, 2)
        ch = semigroup_channel(gen, 0.0)
        npt.assert_array_equal(ch.X, np.eye(4))
        npt.assert_array_equal(ch.Y, np.zeros((4, 4)))
        npt.assert_array_equal(ch.delta, np.zeros(4))

    def test_semigroup_law(self, rng):
        for _ in range(20):
            gen = GaussianGenerator(
                A=random_hurwitz(rng, 4), D=random_psd(rng, 4), u=rng.standard_normal(4)
            )
            t, s = rng.uniform(0.05, 2.0, size=2)
            combined = semigroup_channel(gen, t + s)
            stepwise = compose(semigroup_channel(gen, s), semigroup_channel(gen, t))
            npt.assert_allclose(stepwise.X, combined.X, atol=1e-9)
            npt.assert_allclose(stepwise.Y, combined.Y, atol=1e-9)
            npt.assert_allclose(stepwise.delta, combined.delta, atol=1e-9)

    def test_non_hurwitz_diffusion_against_quadrature(self, rng):
        a = np.array([[0.3, 1.0], [-0.2, -0.1]])  # unstable drift
        assert np.max(np.linalg.eigvals(a).real) > 0
        d = random_psd(rng, 2)
        t = 1.3
        ch = semigroup_channel(GaussianGenerator(A=a, D=d, u=np.zeros(2)), t)

        def integrand(s):
            e = scipy.linalg.expm(a * s)
            return e @ d @ e.T

        oracle, _ = scipy.integrate.quad_vec(integrand, 0.0, t, epsabs=1e-12)
        npt.assert_allclose(ch.Y, oracle, atol=1e-9)

    def test_displacement_closed_form_against_quadrature(self, rng):
        gen = GaussianGenerator(
            A=random_hurwitz(rng, 2), D=np.zeros((2, 2)), u=rng.standard_normal(2)
        )
        t = 1.7
        ch = semigroup_channel(gen, t)

        def integrand(s):
            return scipy.linalg.expm(gen.A * (t - s)) @ gen.u

        oracle, _ = scipy.integrate.quad_vec(integrand, 0.0, t, epsabs=1e-12)
        npt.assert_allclose(ch.delta, oracle, atol=1e-10)

    def test_singular_drift_displacement_quadrature(self):
        a = np.array([[0.0, 0.0], [0.0, -1.0]])  # singular A
        u = np.array([0.5, -0.3])
        t = 2.0
        ch = semigroup_channel(GaussianGenerator(A=a, D=np.zeros((2, 2)), u=u), t)

        def integrand(s):
            return scipy.linalg.expm(a * (t - s)) @ u

        oracle, _ = scipy.integrate.quad_vec(integrand, 0.0, t, epsabs=1e-12)
        npt.assert_allclose(ch.delta, oracle, atol=1e-10)

    def test_zero_drift_closed_form(self, rng):
        # A = 0 is singular and resonant: Y_t = t D, delta_t = t u
        d, u = random_psd(rng, 2), rng.standard_normal(2)
        gen = GaussianGenerator(A=np.zeros((2, 2)), D=d, u=u)
        for t in (0.3, 2.0, 7.5):
            ch = semigroup_channel(gen, t)
            assert relative_error(ch.Y, t * d) <= 1e-14
            assert relative_error(ch.delta, t * u) <= 1e-14

    def test_lossless_rotation_closed_form(self, rng):
        # A = w J, eigenvalues +-iw (resonant); e^{As} rotates by -w s, so with
        # D = a I + b Z + c P (Z = diag(1, -1), P the swap) the Z and P parts
        # turn at 2w and integrate to sines and cosines
        w = 1.7
        d, u = random_psd(rng, 2), rng.standard_normal(2)
        a, b, c = 0.5 * (d[0, 0] + d[1, 1]), 0.5 * (d[0, 0] - d[1, 1]), d[0, 1]
        z, p = np.diag([1.0, -1.0]), np.array([[0.0, 1.0], [1.0, 0.0]])
        gen = GaussianGenerator(A=w * ROTATION, D=d, u=u)
        for t in (0.3, 2.0, 7.5):
            cos_int = np.sin(2 * w * t) / (2 * w)
            sin_int = (1.0 - np.cos(2 * w * t)) / (2 * w)
            y = a * t * np.eye(2) + b * (cos_int * z - sin_int * p) + c * (sin_int * z + cos_int * p)
            delta = np.sin(w * t) / w * u + (1.0 - np.cos(w * t)) / w * (ROTATION @ u)
            ch = semigroup_channel(gen, t)
            assert relative_error(ch.Y, y) <= 1e-13
            assert relative_error(ch.delta, delta) <= 1e-13

    def test_growing_jordan_closed_form(self, rng):
        # A = I/2 + N is defective and not Hurwitz: e^{As} = e^{s/2}(I + s N),
        # so Y_t = I0 D + I1 (N D + D N^T) + I2 N D N^T with
        # I_k = int_0^t e^s s^k ds, and delta_t = J0 u + J1 N u with
        # J_k = int_0^t e^{s/2} s^k ds
        d, u = random_psd(rng, 2), rng.standard_normal(2)
        n = NILPOTENT
        gen = GaussianGenerator(A=0.5 * np.eye(2) + n, D=d, u=u)
        for t in (0.3, 2.0, 7.5):
            e, h = np.exp(t), np.exp(0.5 * t)
            i0, i1, i2 = e - 1.0, e * (t - 1.0) + 1.0, e * (t * t - 2.0 * t + 2.0) - 2.0
            y = i0 * d + i1 * (n @ d + d @ n.T) + i2 * (n @ d @ n.T)
            delta = 2.0 * (h - 1.0) * u + (h * (2.0 * t - 4.0) + 4.0) * (n @ u)
            ch = semigroup_channel(gen, t)
            assert relative_error(ch.Y, y) <= 1e-13
            assert relative_error(ch.delta, delta) <= 1e-13

    def test_stiff_non_hurwitz_against_kronecker(self, rng):
        # planted real spectra spanning +-80 and +-200 under similarities of
        # condition number <= 4; Y_t solves A Y + Y A^T = X D X^T - D, with
        # X = V e^{t Lambda} V^{-1} from the planted eigenbasis, by one
        # Kronecker solve
        def orthogonal():
            q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
            return q

        for span in (80.0, 200.0):
            for _ in range(4):
                lam = np.array([1.0, -0.7, 0.35, -0.15]) * span * rng.uniform(0.8, 1.0)
                v = orthogonal() @ np.diag(rng.uniform(1.0, 4.0, 4)) @ orthogonal()
                v_inv = np.linalg.inv(v)
                a = v @ np.diag(lam) @ v_inv
                d, u = random_psd(rng, 4), rng.standard_normal(4)
                x = v @ np.diag(np.exp(lam)) @ v_inv
                kron = np.kron(np.eye(4), a) + np.kron(a, np.eye(4))
                y = np.linalg.solve(kron, (x @ d @ x.T - d).ravel()).reshape(4, 4)
                delta = np.linalg.solve(a, (x - np.eye(4)) @ u)
                ch = semigroup_channel(GaussianGenerator(A=a, D=d, u=u), 1.0)
                assert relative_error(ch.Y, 0.5 * (y + y.T)) <= 1e-11
                assert relative_error(ch.delta, delta) <= 1e-11

    def test_overflow_raises(self):
        # X_t is finite (e^400), Y_t ~ e^800 / 800 is not
        gen = GaussianGenerator(A=np.diag([400.0, -1.0]), D=np.eye(2), u=np.zeros(2))
        with pytest.raises(NumericalOverflowError, match="Y_t"):
            semigroup_channel(gen, 1.0)
        gen = GaussianGenerator(A=np.diag([400.0, -1.0]), D=np.zeros((2, 2)), u=np.full(2, 1e300))
        with pytest.raises(NumericalOverflowError, match="delta_t"):
            semigroup_channel(gen, 1.0)
        # above 2x2, X_t = e^800 itself from scipy's expm
        gen = GaussianGenerator(A=np.diag([800.0, -1.0, -1.0, -1.0]), D=np.eye(4), u=np.zeros(4))
        with pytest.raises(NumericalOverflowError, match=r"exp\(t A\)"):
            semigroup_channel(gen, 1.0)


class TestSemigroupArrays:
    @pytest.mark.parametrize("modes", [1, 2, 5])
    def test_slices_bitwise_equal_single_time_channels(self, rng, modes):
        # a grid through t = 0, out of order and with a repeat, whose slices
        # take different doubling counts k and so stop doubling at different steps
        for _ in range(8):
            gen = random_physical_generator(rng, modes)
            times = rng.permutation(np.r_[0.0, np.geomspace(1e-3, 9.0, 8), 0.37, 0.37])
            norm = 2.0 * np.abs(gen.A).sum(axis=1).max()
            assert len({max(0, math.frexp(norm * t)[1]) for t in times}) >= 4
            x, y, delta = semigroup_arrays(gen, times)
            assert x.shape == y.shape == (times.size, 2 * modes, 2 * modes)
            assert delta.shape == (times.size, 2 * modes)
            for i, t in enumerate(times):
                ch = semigroup_channel(gen, t)
                npt.assert_array_equal(x[i], ch.X)
                npt.assert_array_equal(y[i], ch.Y)
                npt.assert_array_equal(delta[i], ch.delta)

    @pytest.mark.parametrize("modes", [1, 2])
    def test_bad_times_rejected(self, rng, modes):
        # time grids at the gauge_semigroup boundary are tested there
        gen = random_physical_generator(rng, modes)
        with pytest.raises(DimensionError):
            semigroup_arrays(gen, 0.1)
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(NonFiniteInputError):
                semigroup_channel(gen, bad)

    def test_overflow_names_the_first_time(self):
        gen = GaussianGenerator(A=np.diag([400.0, -1.0]), D=np.eye(2), u=np.zeros(2))
        with pytest.raises(NumericalOverflowError, match="Y_t .* at t = 1.5$"):
            semigroup_arrays(gen, [0.5, 1.5, 1.0])


class TestPropagateMoments:
    def test_rotation_preserves_covariance_determinant(self):
        gen = GaussianGenerator(A=1.1 * SIGMA, D=np.zeros((2, 2)), u=np.zeros(2))
        state = MomentState(d=[1.0, 0.0], V=np.diag([2.0, 0.5]))
        out = propagate_moments(gen, state, 2.4, 4000)
        assert np.linalg.det(out.V) == pytest.approx(1.0, abs=1e-10)

    def test_thermal_relaxation_to_steady_state(self):
        kappa, nbar = 1.0, 0.7
        gen = GaussianGenerator(
            A=-0.5 * kappa * np.eye(2), D=0.5 * kappa * (2 * nbar + 1) * np.eye(2), u=np.zeros(2)
        )
        state = MomentState(d=[2.0, -1.0], V=5.0 * np.eye(2))
        out = propagate_moments(gen, state, 30.0, 20000)
        steady = solve_lyapunov(gen.A, gen.D).S
        npt.assert_allclose(out.V, steady, atol=1e-8)
        npt.assert_allclose(out.V, 0.5 * (2 * nbar + 1) * np.eye(2), atol=1e-8)

    def test_matches_semigroup_channel(self, rng):
        # 200 random physical generators, 10 random times each, one cumulative
        # trajectory per generator at a 1e4-step budget, 1e3 steps per span,
        # integrated in one batch per mode count. Physical generators need
        # not be stable; unstable draws reach moment magnitudes ~1e13 where
        # only a scale-relative comparison is representable, so the absolute
        # bound is asserted on the Hurwitz subset.
        steps_budget = 10_000
        draws = []
        for _ in range(200):
            modes = int(rng.integers(1, 4))
            gen = random_physical_generator(rng, modes)
            state = random_state(rng, modes)
            times = np.sort(rng.uniform(0.05, 2.0, size=10))
            draws.append((modes, gen, state, times))
        worst_relative = 0.0
        worst_stable = 0.0
        stable_cases = 0
        for modes in (1, 2, 3):
            gens = [gen for m, gen, _, _ in draws if m == modes]
            states = [state for m, _, state, _ in draws if m == modes]
            times = np.array([times for m, _, _, times in draws if m == modes])
            hurwitz = [np.max(np.linalg.eigvals(gen.A).real) < 0 for gen in gens]
            spans = np.diff(times, axis=1, prepend=0.0)
            current = states
            for j in range(times.shape[1]):
                current = propagate_moments(
                    gens, current, spans[:, j], steps_budget // times.shape[1])
                for gen, state, now, t, stable in zip(gens, states, current, times[:, j], hurwitz):
                    via_channel = apply_channel(semigroup_channel(gen, t), state)
                    err = max(
                        np.abs(now.d - via_channel.d).max(),
                        np.abs(now.V - via_channel.V).max(),
                    )
                    scale = 1.0 + max(np.abs(via_channel.d).max(), np.abs(via_channel.V).max())
                    worst_relative = max(worst_relative, err / scale)
                    if stable:
                        worst_stable = max(worst_stable, err)
            stable_cases += sum(hurwitz)
        assert stable_cases >= 50
        assert worst_stable <= 1e-9
        assert worst_relative <= 1e-8

    def test_batch_matches_classical_stages(self, rng):
        # the nested step against the four classical stages, one pair at a time
        def classical(gen, state, t, steps):
            a, dmat, u = gen.A, gen.D, gen.u

            def rates(d, v):
                return a @ d + u, a @ v + v @ a.T + dmat

            d, v, h = state.d, state.V, t / steps
            for _ in range(steps):
                k1d, k1v = rates(d, v)
                k2d, k2v = rates(d + 0.5 * h * k1d, v + 0.5 * h * k1v)
                k3d, k3v = rates(d + 0.5 * h * k2d, v + 0.5 * h * k2v)
                k4d, k4v = rates(d + h * k3d, v + h * k3v)
                d = d + (h / 6.0) * (k1d + 2.0 * k2d + 2.0 * k3d + k4d)
                v = v + (h / 6.0) * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
            return d, v

        gens = [random_physical_generator(rng, 2) for _ in range(3)]
        states = [random_state(rng, 2) for _ in range(3)]
        times = [0.3, 1.1, 0.7]
        together = propagate_moments(gens, states, times, 50)
        for gen, state, t, out in zip(gens, states, times, together):
            d, v = classical(gen, state, t, 50)
            scale = 1.0 + max(np.abs(d).max(), np.abs(v).max())
            npt.assert_allclose(out.d, d, rtol=0, atol=1e-13 * scale)
            npt.assert_allclose(out.V, v, rtol=0, atol=1e-13 * scale)
            alone = propagate_moments(gen, state, t, 50)
            npt.assert_allclose(out.V, alone.V, rtol=0, atol=1e-13 * scale)

    def test_batch_shapes_checked(self, rng):
        gens = [random_physical_generator(rng, 1), random_physical_generator(rng, 2)]
        states = [random_state(rng, 1), random_state(rng, 2)]
        with pytest.raises(DimensionError, match="one mode count"):
            propagate_moments(gens, states, 1.0, 10)
        with pytest.raises(DimensionError, match="mode counts differ"):
            propagate_moments(gens, states[::-1], 1.0, 10)
        with pytest.raises(DimensionError, match="2 generators for 1 states"):
            propagate_moments(gens, states[:1], 1.0, 10)

    def test_invalid_steps(self, rng):
        gen = random_physical_generator(rng, 1)
        with pytest.raises(DimensionError):
            propagate_moments(gen, random_state(rng, 1), 1.0, 0)


class TestValidation:
    def test_asymmetric_diffusion_rejected(self):
        with pytest.raises(DimensionError):
            GaussianGenerator(A=-np.eye(2), D=np.array([[1.0, 0.4], [0.0, 1.0]]), u=np.zeros(2))

    def test_jump_row_dimension_checked(self):
        with pytest.raises(DimensionError):
            LindbladData(H=np.zeros((2, 2)), jump_rows=(np.ones(3),))

    @pytest.mark.parametrize("field", ["H", "f", "jump row"])
    def test_lindblad_data_keeps_read_only_copies(self, field):
        h, f, row = np.diag([1.0, 2.0]), np.array([0.5, -0.5]), np.array([1.0, 0.3j])
        data = LindbladData(H=h, f=f, jump_rows=(row,))
        before = from_lindblad(data)
        {"H": h, "f": f, "jump row": row}[field][0] += 3.0
        after = from_lindblad(data)
        for old, new in ((before.A, after.A), (before.D, after.D), (before.u, after.u)):
            npt.assert_array_equal(new, old)
        assert not any(a.flags.writeable for a in (data.H, data.f, *data.jump_rows))

    def test_non_finite_hamiltonian_rejected(self):
        with pytest.raises(NonFiniteInputError, match="^H has non-finite entries$"):
            LindbladData(H=np.diag([math.nan, 1.0]))

    def test_negative_time_rejected(self, rng):
        gen = random_physical_generator(rng, 1)
        with pytest.raises(DimensionError):
            semigroup_channel(gen, -0.5)
