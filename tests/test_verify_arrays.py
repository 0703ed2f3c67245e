"""The whole-array verify suites against the per-draw loops they replace.

`jury-spectral-agreement`, `expm2-vs-general`, `one-mode-identities` and
`ep-closed-forms` draw all their inputs first and check them on stacked
arrays. The reference loops below draw and check one sample at a time through
the scalar API (`stability`, `expm2`, `cp_check`, `nm_channel` and
`solve_stein`); both must give equal results from the same generator.
"""

import math

import numpy as np
import pytest
import scipy.linalg

from gaussgauge import verify
from gaussgauge.matrix_equations import expm2, solve_lyapunov, solve_stein, stability
from gaussgauge.models import (
    EpBranch,
    NmFamilyParams,
    SqueezedReservoirParams,
    nm_channel,
    nm_ep_gauge,
    squeezed_ep_gauge,
    squeezed_generator,
)
from gaussgauge.phase_space import CpMethod, GaussianChannel, cp_check, symplectic_form
from gaussgauge.verify import SuiteResult, run_verification


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
        err = float(np.max(np.abs(expm2(b, t) - reference))) / (1.0 + np.abs(reference).max())
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
        ch = GaussianChannel(X=x, Y=y, delta=np.zeros(2))
        det_rep = cp_check(ch, method=CpMethod.DET_CONDITION)
        herm_rep = cp_check(ch, method=CpMethod.HERMITIAN_EIG)
        if abs(det_rep.margin) < 1e-10 or abs(herm_rep.margin) < 1e-10:
            continue
        if det_rep.passes != herm_rep.passes:
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
    "jury-spectral-agreement": reference_jury,
    "expm2-vs-general": reference_expm2,
    "one-mode-identities": reference_one_mode_identities,
    "ep-closed-forms": reference_ep_closed_forms,
}


def suite_rng(seed, name, report):
    """The generator that `run_verification` hands the named suite."""
    index = [s.name for s in report.suites].index(name)
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(index,)))


@pytest.mark.parametrize("seed", [0, 1, 7])
def test_array_suites_equal_per_draw_loops(seed):
    report = run_verification(seed)
    got = {s.name: s for s in report.suites}
    for name, reference in REFERENCES.items():
        assert got[name] == reference(suite_rng(seed, name, report)), name


@pytest.mark.parametrize("patch, value", [
    # kappa(t) = 1.2 in the direct route: det X = 1.44, a Jury term below 0
    ("memory_factor", lambda params, t: 1.2),
    # Y = 0: the CP margin is -((1 - det X)/2)^2 < 0
    ("nm_diffusion_entries", lambda params, kt, lam, omega: (0.0, 0.0, 0.0)),
])
def test_draws_the_scalar_route_rejects_fail_ep_closed_forms(patch, value, monkeypatch):
    monkeypatch.setattr(verify, patch, value)
    rng = np.random.default_rng(0)
    result = verify._suite_ep_closed_forms(rng, None)
    assert not result.passed
    assert result.note == "400 draws not CP or not Schur stable"
