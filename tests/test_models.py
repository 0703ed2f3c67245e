import math
import re
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

from gaussgauge import (
    AnisotropicDiffusion,
    DegenerateModelError,
    DimensionError,
    DriftAlignedDiffusion,
    EpBranch,
    GaugeSource,
    IsotropicDiffusion,
    NmFamilyParams,
    SqueezedReservoirParams,
    compose,
    cp_check,
    cp_check_generator,
    from_lindblad,
    jordan_structure,
    memory_factor,
    nm_channel,
    nm_ep_gauge,
    solve_lyapunov,
    solve_stein,
    squeezed_drift_eigenvalues,
    squeezed_ep_gauge,
    squeezed_generator,
    squeezed_lindblad_data,
    stein_series,
    thermal_loss_channel,
)
from gaussgauge.models import squeezed_ep_entries


def random_squeezed_params(rng):
    return SqueezedReservoirParams(
        kappa=rng.uniform(0.3, 5.0),
        delta=rng.uniform(-2.0, 2.0),
        epsilon=rng.uniform(-2.0, 2.0),
        r=rng.uniform(0.0, 1.5),
        phi=rng.uniform(0.0, 2.0 * math.pi),
    )


class TestSqueezedGenerator:
    def test_closed_form_drift_and_diffusion(self):
        gen = squeezed_generator(SqueezedReservoirParams(kappa=2.0, delta=1.0, epsilon=1.0))
        npt.assert_allclose(gen.A, [[-1.0, 0.0], [-2.0, -1.0]], atol=1e-15)
        npt.assert_allclose(gen.D, np.eye(2), atol=1e-15)

    def test_unsqueezed_bath_is_isotropic(self, rng):
        p = SqueezedReservoirParams(
            kappa=1.7, delta=0.4, epsilon=0.9, r=0.0, phi=rng.uniform(0, 2 * math.pi)
        )
        gen = squeezed_generator(p)
        npt.assert_allclose(gen.D, 0.5 * p.kappa * np.eye(2), atol=1e-15)

    def test_matches_lindblad_construction(self, rng):
        for _ in range(50):
            p = random_squeezed_params(rng)
            closed = squeezed_generator(p)
            built = from_lindblad(squeezed_lindblad_data(p))
            npt.assert_allclose(closed.A, built.A, atol=1e-13)
            npt.assert_allclose(closed.D, built.D, atol=1e-13)

    def test_generator_is_completely_positive(self, rng):
        for _ in range(50):
            assert cp_check_generator(squeezed_generator(random_squeezed_params(rng))).passes

    def test_drift_eigenvalues(self):
        p = SqueezedReservoirParams(kappa=2.0, delta=0.5, epsilon=1.0)
        eigs = sorted(squeezed_drift_eigenvalues(p).real)
        npt.assert_allclose(eigs, [-1.0 - math.sqrt(0.75), -1.0 + math.sqrt(0.75)], atol=1e-14)


class TestSqueezedEpGauge:
    def test_plus_branch_reference_point(self):
        p = SqueezedReservoirParams(kappa=2.0, delta=1.0, epsilon=1.0, r=0.0)
        cov = squeezed_ep_gauge(p)
        npt.assert_allclose(cov.S, [[0.5, -0.5], [-0.5, 1.5]], atol=1e-14)
        assert cov.source is GaugeSource.EP_BRANCH_FORMULA
        assert cov.residual <= 1e-13

    def test_minus_branch_reference_point(self):
        # Lyapunov solution for the delta = -eps drift (the naive eps -> -eps
        # substitution in the plus-branch forms does not solve it)
        p = SqueezedReservoirParams(kappa=2.0, delta=-1.0, epsilon=1.0, r=0.0)
        cov = squeezed_ep_gauge(p)
        npt.assert_allclose(cov.S, [[1.5, -0.5], [-0.5, 0.5]], atol=1e-14)

    def test_branch_read_from_delta(self):
        # delta = eps is the plus branch and delta = -eps the minus branch; at
        # eps = 0, where both hold, the two branches give one S
        p = SqueezedReservoirParams(kappa=2.0, delta=0.0, epsilon=0.0, r=0.3, phi=0.4)
        s_qq, s_qp, s_pp = squeezed_ep_entries(2.0, 0.0, 0.3, 0.4, EpBranch.MINUS)
        npt.assert_array_equal(squeezed_ep_gauge(p).S, [[s_qq, s_qp], [s_qp, s_pp]])
        for delta in (5.0, 0.5, -0.999):  # delta = 5 gave the delta = 1 result
            with pytest.raises(DimensionError, match="delta = "):
                squeezed_ep_gauge(SqueezedReservoirParams(kappa=1.0, delta=delta, epsilon=1.0))

    @pytest.mark.parametrize("branch", list(EpBranch))
    def test_matches_lyapunov_solver(self, rng, branch):
        sign = 1.0 if branch is EpBranch.PLUS else -1.0
        for _ in range(200):
            p = random_squeezed_params(rng)
            p = SqueezedReservoirParams(p.kappa, sign * p.epsilon, p.epsilon, p.r, p.phi)
            closed = squeezed_ep_gauge(p)
            gen = squeezed_generator(p)
            npt.assert_allclose(closed.S, solve_lyapunov(gen.A, gen.D).S, atol=1e-10)


class TestNmChannel:
    def test_memory_factor_window(self):
        with pytest.raises(Exception):
            NmFamilyParams(r_mem=1.5)  # r_mem >= gamma/nu

    def test_fields_are_keyword_only(self):
        # positionally, 0.1 and 0.2 would bind gamma and r_mem
        with pytest.raises(TypeError):
            NmFamilyParams(0.1, 0.2)

    def test_ep_line_defective_for_all_times(self):
        for t in (0.3, 1.0, 2.7):
            ch = nm_channel(NmFamilyParams(), t, 0.8, 0.8)
            assert jordan_structure(ch.X).defective

    def test_off_line_not_defective(self):
        for lam, omega in ((0.3, 0.9), (1.2, 0.4)):
            ch = nm_channel(NmFamilyParams(), 1.0, lam, omega)
            assert not jordan_structure(ch.X).defective

    def test_isotropic_strength_formula(self):
        params = NmFamilyParams()
        t = 1.0
        kt = math.exp(-params.gamma * t + params.r_mem * math.sin(params.nu * t))
        ch = nm_channel(params, t, 0.5, 0.5)
        expected = 0.5 * abs(1.0 - kt * kt) + params.eps_buffer
        npt.assert_allclose(ch.Y, expected * np.eye(2), atol=1e-15)

    def test_cp_margin_strictly_positive(self, rng):
        for _ in range(100):
            kind = rng.integers(0, 3)
            diffusion = (
                IsotropicDiffusion(),
                AnisotropicDiffusion(s=rng.uniform(0.1, 1.0)),
                DriftAlignedDiffusion(alpha=rng.uniform(0.2, 3.0)),
            )[kind]
            lam, omega = rng.uniform(-1.2, 1.2, size=2)
            if lam == 0 and omega == 0:
                continue
            params = NmFamilyParams(diffusion=diffusion)
            ch = nm_channel(params, rng.uniform(0.2, 3.0), lam, omega)
            # det target (alpha + eps)^2 gives slack 2*alpha*eps + eps^2 >= eps^2
            assert cp_check(ch).margin >= params.eps_buffer**2

    def test_memory_breaks_semigroup_property(self):
        params = NmFamilyParams()
        t, s = 0.6, 0.9
        stepwise = compose(nm_channel(params, t, 0.2, 0.7), nm_channel(params, s, 0.2, 0.7))
        combined = nm_channel(params, t + s, 0.2, 0.7)
        assert np.abs(stepwise.X - combined.X).max() > 1e-3
        # and the memory factor is the whole effect
        ratio = memory_factor(params, t) * memory_factor(params, s) / memory_factor(
            params, t + s
        )
        npt.assert_allclose(stepwise.X, combined.X * ratio, atol=1e-12)

    def test_drift_aligned_needs_nonzero_drift(self):
        params = NmFamilyParams(diffusion=DriftAlignedDiffusion())
        with pytest.raises(DegenerateModelError):
            nm_channel(params, 1.0, 0.0, 0.0)


class TestNmEpGauge:
    @pytest.mark.parametrize(
        "diffusion",
        [IsotropicDiffusion(), AnisotropicDiffusion(0.5), DriftAlignedDiffusion(1.0)],
    )
    def test_matches_direct_stein_and_series(self, rng, diffusion):
        for _ in range(60):
            params = NmFamilyParams(diffusion=diffusion)
            omega = rng.uniform(0.1, 2.0)
            t = rng.uniform(0.2, 3.0)
            for branch in EpBranch:
                sign = 1.0 if branch is EpBranch.PLUS else -1.0
                closed = nm_ep_gauge(params, t, omega, branch)
                ch = nm_channel(params, t, sign * omega, omega)
                npt.assert_allclose(closed.S, solve_stein(ch.X, ch.Y).S, atol=1e-10)
                npt.assert_allclose(
                    closed.S, stein_series(ch.X, ch.Y, tol=1e-13).S, atol=1e-9
                )
                assert closed.residual <= 1e-10

    def test_isotropic_branches_share_eigenvalues(self, rng):
        params = NmFamilyParams()
        lam_plus = np.linalg.eigvalsh(nm_ep_gauge(params, 1.0, 1.1, EpBranch.PLUS).S)
        lam_minus = np.linalg.eigvalsh(nm_ep_gauge(params, 1.0, 1.1, EpBranch.MINUS).S)
        npt.assert_allclose(lam_plus, lam_minus, atol=1e-13)

    def test_drift_aligned_branches_differ_in_orientation(self):
        params = NmFamilyParams(diffusion=DriftAlignedDiffusion(1.0))
        s_plus = nm_ep_gauge(params, 1.0, 1.1, EpBranch.PLUS).S
        s_minus = nm_ep_gauge(params, 1.0, 1.1, EpBranch.MINUS).S
        assert s_plus[0, 1] * s_minus[0, 1] < 0  # off-diagonal sign flip
        assert abs(s_plus[0, 1]) > 1e-3
        assert np.abs(s_plus - s_minus).max() > 1e-3

    def test_degenerate_guard(self):
        with pytest.raises(DegenerateModelError):
            nm_ep_gauge(NmFamilyParams(), 1.0, 0.0, EpBranch.PLUS)

    def test_memory_factor_stays_below_one_in_legal_window(self, rng):
        # sin(nu t) <= nu t makes kappa(t) < 1 for every t > 0 whenever
        # 0 < r_mem < gamma/nu, so single channel uses are always Stein-stable
        for _ in range(50):
            gamma = rng.uniform(0.1, 3.0)
            nu = rng.uniform(0.1, 3.0)
            r_mem = rng.uniform(0.01, 0.99) * gamma / nu
            params = NmFamilyParams(gamma=gamma, r_mem=r_mem, nu=nu)
            times = rng.uniform(1e-3, 10.0, size=20)
            assert all(memory_factor(params, t) < 1.0 for t in times)


class TestThermalLossChannel:
    def test_never_defective_and_cp(self):
        ch = thermal_loss_channel(0.5, 0.0)
        assert not jordan_structure(ch.X).defective
        assert cp_check(ch).passes

    def test_parameter_ranges(self):
        with pytest.raises(DimensionError):
            thermal_loss_channel(1.5)
        with pytest.raises(DimensionError):
            thermal_loss_channel(0.5, -0.1)


class TestEpGeometry:
    def test_square_root_coalescence_exponent(self):
        kappa, eps = 2.0, 1.0
        offsets = np.logspace(-6, -2, 25)
        gaps = []
        for h in offsets:
            p = SqueezedReservoirParams(kappa=kappa, delta=math.sqrt(eps**2 + h), epsilon=eps)
            eigs = np.linalg.eigvals(squeezed_generator(p).A)
            gaps.append(abs(eigs[0] - eigs[1]))
        slope = np.polyfit(np.log(offsets), np.log(gaps), 1)[0]
        assert slope == pytest.approx(0.5, abs=0.02)

    def test_defectiveness_band(self):
        # outside the 1e-12-scale tolerance band the verdict is clean; points
        # inside the band are indeterminate by design and not asserted
        kappa, eps = 2.0, 1.0
        for offset in (1e-6, 1e-9, 1e-10):
            delta = math.sqrt(eps**2 + offset)
            gen = squeezed_generator(SqueezedReservoirParams(kappa, delta, eps))
            assert not jordan_structure(gen.A).defective
        for delta in (eps, -eps):
            gen = squeezed_generator(SqueezedReservoirParams(kappa, delta, eps))
            assert jordan_structure(gen.A).defective

    def test_zero_drive_is_scalar_not_defective(self):
        gen = squeezed_generator(SqueezedReservoirParams(kappa=2.0, delta=0.0, epsilon=0.0))
        assert not jordan_structure(gen.A).defective


def test_readme_library_sketch_runs(capsys):
    # the README's python block as written, so a changed signature cannot leave it stale
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    (block,) = re.findall(r"^```python\n(.*?)^```", text, flags=re.S | re.M)
    exec(compile(block, "README.md", "exec"), {})
    assert "True" in capsys.readouterr().out.splitlines()  # the EP line's X is defective
