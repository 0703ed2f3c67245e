"""The one-mode kernels on grid lines against the scalar API and independent oracles."""

import math

import numpy as np
import numpy.testing as npt
import pytest
import scipy.linalg

from gaussgauge import (
    AnisotropicDiffusion,
    DimensionError,
    DriftAlignedDiffusion,
    GaussGaugeError,
    GaussianChannel,
    IsotropicDiffusion,
    NmFamilyParams,
    NonFiniteInputError,
    NumericalOverflowError,
    PhysicalityError,
    cp_check,
    drift_exponential,
    drift_tensor,
    jordan_structure,
    memory_factor,
    nm_channel,
    solve_stein,
)
from gaussgauge.cli import main
from gaussgauge.errors import DegenerateModelError, StabilityError
from gaussgauge.models import nm_diffusion_entries
from gaussgauge.onemode import (
    cp_margin_entries,
    expm2_entries,
    jordan2_entries,
    jury_triple,
    stein2_entries,
)
from gaussgauge.sweeps import (
    GridSpec,
    SweepConfig,
    run_drift_eigs,
    run_nm_branch,
    run_nm_surface,
    run_squeezed_gauge,
)

DIFFUSIONS = {
    "iso": IsotropicDiffusion(),
    "aniso": AnisotropicDiffusion(s=0.5),
    "drift-aligned": DriftAlignedDiffusion(alpha=1.0),
}


def lambda_lines(rng):
    """(lam, omega) point arrays: random lines through lambda = +-omega and omega = 0,
    plus the line lambda = 0 through the origin, where B = 0."""
    lines = []
    for lam in [0.0, *rng.uniform(-1.6, 1.6, size=4)]:
        omega = np.concatenate([rng.uniform(-1.6, 1.6, size=12), [lam, -lam, 0.0]])
        lines.append((np.full(omega.shape, lam), omega))
    return lines


def test_expm2_matches_scalar_bitwise(rng):
    for lam, omega in lambda_lines(rng):
        for t in (1.0, -0.7, 2.5):
            got = np.stack(expm2_entries(lam, omega, -omega, -lam, t), axis=-1)
            want = [drift_exponential(np.array([[l, w], [-w, -l]]), t).ravel()
                    for l, w in zip(lam, omega)]
            npt.assert_array_equal(got, want)
    # with a trace, and with the determinant of the traceless part near 0
    b = rng.uniform(-2.0, 2.0, size=(4, 40))
    b[3, :10] = -b[0, :10]
    b[2, :10] = -b[0, :10] ** 2 / b[1, :10] * (1.0 + rng.uniform(-1e-9, 1e-9, size=10))
    for t in (1.0, -0.7):
        got = np.stack(expm2_entries(*b, t), axis=-1)
        want = [drift_exponential(col.reshape(2, 2), t).ravel() for col in b.T]
        npt.assert_array_equal(got, want)


@pytest.mark.parametrize("diffusion", sorted(DIFFUSIONS))
def test_channel_kernels_match_scalar_bitwise(rng, diffusion):
    params = NmFamilyParams(diffusion=DIFFUSIONS[diffusion])
    kt = memory_factor(params, 1.0)
    for lam, omega in lambda_lines(rng):
        defined = (lam != 0.0) | (omega != 0.0) | (diffusion != "drift-aligned")
        x = tuple(kt * e for e in expm2_entries(lam, omega, -omega, -lam, 1.0))
        y = np.broadcast_arrays(*nm_diffusion_entries(params, kt, lam, omega), lam)[:3]
        assert np.all(np.isnan(y[0][~defined]))
        margin, tol = cp_margin_entries(*x, *y)
        defective = jordan2_entries(*x)[3]
        s = stein2_entries(*x, *y)
        for i in np.flatnonzero(defined):
            # the scalar routes: exp(t B) of the 2x2 drift, Y_t from floats
            X = kt * drift_exponential(drift_tensor(lam[i], omega[i]), 1.0)
            y11, y12, y22 = nm_diffusion_entries(params, kt, lam[i], omega[i])
            Y = np.array([[y11, y12], [y12, y22]])
            npt.assert_array_equal([v[i] for v in x], X.ravel())
            npt.assert_array_equal([y[0][i], y[1][i], y[2][i]], Y.ravel()[[0, 1, 3]])
            report = cp_check(GaussianChannel(X, Y, np.zeros(2)))
            assert (margin[i], tol[i]) == (report.margin, report.tolerance)
            assert defective[i] == jordan_structure(X).defective
            if abs(lam[i]) == abs(omega[i]) != 0.0:
                assert defective[i]
            if all(term > 0.0 for term in jury_triple(*X.ravel().tolist())):
                S = solve_stein(X, Y).S
                npt.assert_array_equal([v[i] for v in s], S.ravel()[[0, 1, 3]])
        for i in np.flatnonzero(~defined):
            with pytest.raises(DegenerateModelError):
                nm_channel(params, 1.0, lam[i], omega[i])


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid:RuntimeWarning")
def test_cp_margin_nan_when_det_overflows():
    # det X = inf - inf is NaN; the margin must not fall back to lambda_min(Y)
    x = (1e200, 1e200, 1e200, 1e200)
    y = (1.0, 0.0, 1.0)
    assert math.isnan(cp_margin_entries(*x, *y)[0])
    margin = cp_margin_entries(*(np.array([v, 0.5]) for v in x), *y)[0]
    assert math.isnan(margin[0]) and margin[1] == 0.75  # det Y - ((1 - 0)/2)^2


def _reference_row(params, lam, omega, on_branch):
    """One surface row from the scalar API, the way a per-point loop builds it."""
    try:
        channel = nm_channel(params, 1.0, lam, omega)
    except (DegenerateModelError, PhysicalityError):
        return [lam, omega, math.nan, math.nan, math.nan, 0.0, math.nan, 1.0, on_branch]
    defective = 1.0 if jordan_structure(channel.X).defective else 0.0
    margin = cp_check(channel).margin
    try:
        s = solve_stein(channel.X, channel.Y).S
    except StabilityError:
        return [lam, omega, math.nan, math.nan, math.nan, defective, margin, 1.0, on_branch]
    lo, hi = np.linalg.eigvalsh(s)
    return [lam, omega, lo, hi, s[0, 1], defective, margin, 0.0, on_branch]


def _surface(diffusion, count, model=None):
    grids = {"lam": GridSpec(-1.5, 1.5, count), "omega": GridSpec(-1.5, 1.5, count)}
    config = SweepConfig(command="nm-surface", diffusion=diffusion, model=model or {}, grids=grids)
    return run_nm_surface(config)


# slow memory: kappa(1) = 0.988, just below 1, so the channel barely contracts
# and most rows off the elliptic region are unstable
SLOW_MEMORY = {"gamma": 1.0, "nu": 0.1, "r_mem": 9.9}


@pytest.mark.parametrize("model", [{}, SLOW_MEMORY])
@pytest.mark.parametrize("diffusion", sorted(DIFFUSIONS))
def test_surface_rows_match_scalar_api_bitwise(diffusion, model):
    table = _surface(diffusion, 15, model)
    params = NmFamilyParams(diffusion=DIFFUSIONS[diffusion], **model)
    want = [_reference_row(params, row[0], row[1], row[8]) for row in table.rows]
    npt.assert_array_equal(np.array(table.rows), np.array(want))


@pytest.mark.parametrize("diffusion", sorted(DIFFUSIONS))
def test_unstable_flag_at_the_schur_boundary(diffusion):
    # with slow memory spr X = kappa(1) e^r reaches 1 at r = sqrt(lam^2 - omega^2)
    # = 0.012, a strip beside the EP line lam = omega that two fine,
    # incommensurate grids cross at many distances; the table decides
    # stability by the Jury triple, the scalar API by the eigenvalues
    grids = {"lam": GridSpec(0.5, 0.502, 41), "omega": GridSpec(0.4998, 0.5018, 43)}
    table = run_nm_surface(SweepConfig(command="nm-surface", diffusion=diffusion,
                                       model=SLOW_MEMORY, grids=grids))
    params = NmFamilyParams(diffusion=DIFFUSIONS[diffusion], **SLOW_MEMORY)
    assert not np.isnan(table.column("cp_margin")).any()
    near = []
    for lam, omega, _, _, _, _, _, unstable, _ in table.rows:
        X = nm_channel(params, 1.0, lam, omega).X
        spr = float(np.abs(np.linalg.eigvals(X)).max())
        if abs(spr - 1.0) > 1e-12:
            assert unstable == float(spr >= 1.0), (lam, omega, spr)
        if unstable == 0.0:  # so the Stein denominator, the triple's product, is positive
            assert all(term > 0.0 for term in jury_triple(*X.ravel().tolist()))
        if abs(spr - 1.0) < 1e-3:
            near.append(spr >= 1.0)
    assert near.count(True) >= 10 and near.count(False) >= 10


def test_flagged_branch_row_raises_scalar_error(capsys):
    # on the EP lines X = kappa(t)(I + t B) has spr = kappa(t) < 1, but at
    # omega t ~ 1e6 the rounded det X and tr X fail the Jury test; a large
    # CP buffer keeps the rows CP. The sweep exits 2 with the message the
    # scalar path raises at its first flagged row.
    model = {**SLOW_MEMORY, "eps_buffer": 1e3}
    grid = GridSpec(1e6, 1e8, 9)
    params = NmFamilyParams(**model)

    def scalar_error(lam, omega):
        channel = nm_channel(params, 1.0, lam, omega)
        try:
            solve_stein(channel.X, channel.Y)
        except StabilityError as exc:
            return str(exc)

    # rows in table order: lam = +omega, then -omega
    errors = [scalar_error(sign * omega, omega) for omega in grid.points() for sign in (1.0, -1.0)]
    message = next(error for error in errors if error is not None)
    flags = [f"--{name.replace('_', '-')}={value}" for name, value in model.items()]
    capsys.readouterr()
    assert main(["nm-branch", *flags, f"--grid={grid.as_meta()}"]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def _refuse(*args, **kwargs):
    raise AssertionError("per-element, math-library or eigvals path taken")


@pytest.fixture
def whole_array_only(monkeypatch):
    # the tables are whole-array code: no LAPACK eigvals for stability, no
    # element-by-element map (np.fromiter)
    monkeypatch.setattr(np.linalg, "eigvals", _refuse)
    monkeypatch.setattr(np, "fromiter", _refuse)


@pytest.mark.parametrize("diffusion", sorted(DIFFUSIONS))
def test_nm_tables_without_eigvals_or_per_element_calls(whole_array_only, diffusion):
    table = _surface(diffusion, 31)
    assert table.data.shape == (31 * 31 + 2 * 31, 9)
    assert 0.0 < table.column("unstable").mean() < 1.0
    run_nm_branch(SweepConfig(command="nm-branch", diffusion=diffusion))


@pytest.mark.parametrize("axis, branch", [(axis, branch) for axis in ("kappa", "r", "phi")
                                          for branch in ("plus", "minus")]
                         + [pytest.param(None, None, id="drift-eigs")])
def test_squeezed_tables_without_eigvals_or_per_element_calls(
        whole_array_only, monkeypatch, axis, branch):
    # the squeezed closed forms take numpy ufuncs, on floats and arrays alike
    for name in ("cosh", "sinh", "cos", "sin", "pow"):
        monkeypatch.setattr(math, name, _refuse)
    if axis is None:
        table = run_drift_eigs(SweepConfig(command="drift-eigs"))
    else:
        table = run_squeezed_gauge(
            SweepConfig(command="squeezed-gauge", axis=axis, branch=branch))
    assert np.isfinite(table.data).all()


@pytest.mark.parametrize("diffusion", sorted(DIFFUSIONS))
def test_nonsquare_surface_grid_order(diffusion):
    # 7 lambda x 13 omega: a lambda/omega transpose of the grid layout changes
    # the row count per block and the points, which a square grid would hide
    lam_axis, omega_axis = np.linspace(-1.5, 1.5, 7), np.linspace(-1.2, 1.4, 13)
    grids = {"lam": GridSpec(-1.5, 1.5, 7), "omega": GridSpec(-1.2, 1.4, 13)}
    table = run_nm_surface(SweepConfig(command="nm-surface", diffusion=diffusion, grids=grids))
    points = [(lam, omega, 0.0) for lam in lam_axis for omega in omega_axis]
    points += [(sign * omega, omega, sign) for omega in omega_axis for sign in (1.0, -1.0)]
    params = NmFamilyParams(diffusion=DIFFUSIONS[diffusion])
    want = np.array([_reference_row(params, *point) for point in points])
    assert table.data.shape == (7 * 13 + 2 * 13, 9)
    npt.assert_array_equal(table.data, want)
    npt.assert_array_equal(np.signbit(table.data[:, :2]), np.signbit(want[:, :2]))


def kron_stein(X, Y):
    s = np.linalg.solve(np.eye(4) - np.kron(X, X), Y.reshape(-1)).reshape(2, 2)
    return 0.5 * (s + s.T)


@pytest.mark.parametrize("diffusion", sorted(DIFFUSIONS))
def test_surface_rows_match_independent_oracles(diffusion):
    # X from scipy's expm, S from a Kronecker solve, eigenvalues from eigvalsh
    rtol = 1e-10
    table = _surface(diffusion, 41)
    kt = math.exp(-1.0 + 0.3 * math.sin(1.0))
    g = 0.5 * (1.0 - kt * kt) + 1e-3
    checked = 0
    for lam, omega, lo, hi, s_qp, defective, margin, unstable, on_branch in table.rows:
        B = np.array([[lam, omega], [-omega, -lam]])
        X = kt * scipy.linalg.expm(B)
        if diffusion == "iso":
            Y = g * np.eye(2)
        elif diffusion == "aniso":
            Y = np.diag([g * math.exp(0.5), g * math.exp(-0.5)])
        elif lam == omega == 0.0:
            assert unstable == 1.0 and math.isnan(margin)
            continue
        else:
            M = np.eye(2) + B @ B.T / np.trace(B @ B.T)
            Y = g / math.sqrt(np.linalg.det(M)) * M
        alpha = 0.5 * (1.0 - np.linalg.det(X))
        want_margin = min(np.linalg.eigvalsh(Y)[0], np.linalg.det(Y) - alpha * alpha)
        assert margin == pytest.approx(want_margin, rel=rtol, abs=rtol * np.abs(Y).max())
        ep_distance = abs(lam * lam - omega * omega) / (lam * lam + omega * omega + 1e-300)
        on_ep_line = omega != 0.0 and ep_distance <= 1e-10
        assert defective == (1.0 if on_ep_line else 0.0)
        assert unstable == (1.0 if np.abs(np.linalg.eigvals(X)).max() >= 1.0 else 0.0)
        if unstable:
            assert math.isnan(lo) and math.isnan(hi) and math.isnan(s_qp)
            continue
        S = kron_stein(X, Y)
        scale = rtol * np.abs(S).max()
        npt.assert_allclose([lo, hi, s_qp], [*np.linalg.eigvalsh(S), S[0, 1]], rtol=0, atol=scale)
        checked += 1
    assert checked > 1000


@pytest.mark.parametrize(
    "diffusion, model, grid, error, message",
    [
        ("iso", {}, GridSpec(1e200, 1e201, 3), NumericalOverflowError, "leaves the float range"),
        ("aniso", {}, GridSpec(1e150, 1e160, 3), PhysicalityError, "violates CP"),
        ("iso", {}, GridSpec(1e7, 2e7, 3), PhysicalityError, "violates CP"),
        ("drift-aligned", {}, GridSpec(1e100, 1e101, 3), PhysicalityError, "violates CP"),
        ("drift-aligned", {}, GridSpec(1e-170, 1e-169, 3), DegenerateModelError, "B = 0"),
        ("drift-aligned", {"alpha": 1e300}, GridSpec(0.1, 2.0, 3), NonFiniteInputError,
         "non-finite"),
    ],
    ids=["iso-NumericalOverflowError-leaves the float range", "aniso-PhysicalityError-violates CP",
         "iso-1e7-violates CP", "drift-aligned-1e100-violates CP", "drift-aligned-B = 0",
         "drift-aligned-Y non-finite"],
)
def test_branch_errors_match_scalar_path(diffusion, model, grid, error, message):
    # a row's X is not finite (1e200); its det X rounds off kappa(t)^2 and
    # fails the CP check (1e7, 1e100, 1e150); lam^2 + omega^2 underflows to
    # B = 0 (1e-170); or alpha = 1e300 makes Y NaN. The sweep raises what the
    # scalar path raises at its first such row, with the same message.
    family = DIFFUSIONS[diffusion] if not model else DriftAlignedDiffusion(**model)
    params = NmFamilyParams(diffusion=family)

    def scalar_error(lam, omega):
        try:
            channel = nm_channel(params, 1.0, lam, omega)
            solve_stein(channel.X, channel.Y)
        except GaussGaugeError as exc:
            return exc

    # rows in table order: lam = +omega, then -omega
    errors = [scalar_error(sign * omega, omega) for omega in grid.points() for sign in (1, -1)]
    config = SweepConfig(command="nm-branch", diffusion=diffusion, model=model,
                         grids={"omega": grid})
    with pytest.raises(error, match=message) as table:
        run_nm_branch(config)
    first = next(exc for exc in errors if exc is not None)
    assert type(first) is error and str(first) == str(table.value)


# settings that pass validation, yet at T_ABOVE_ONE the rounded kappa(t) is
# 1 + 7e-15, since -gamma t + r_mem sin(nu t) nearly cancels
KAPPA_ABOVE_ONE = {"gamma": 236550.30509014626, "nu": 1.549200509242374e-05,
                   "r_mem": 15269185859.345577, "eps_buffer": 1e-16}
T_ABOVE_ONE = 0.00024800058811992224


def test_rounded_memory_factor_above_one(capsys):
    # the determinant target (1 - kappa(t)^2)/2 + eps_buffer is negative: the
    # scalar path and nm-branch raise, nm-surface flags every row
    params = NmFamilyParams(diffusion=AnisotropicDiffusion(), **KAPPA_ABOVE_ONE)
    assert memory_factor(params, T_ABOVE_ONE) > 1.0
    message = r"determinant target -\S+ not positive \(kappa\(t\) = 1\.0000 > 1\)"
    with pytest.raises(PhysicalityError, match=message) as scalar:
        nm_channel(params, T_ABOVE_ONE, 0.5, 0.7)
    model = dict(KAPPA_ABOVE_ONE, t=T_ABOVE_ONE)
    with pytest.raises(PhysicalityError, match=message):
        run_nm_branch(SweepConfig(command="nm-branch", diffusion="aniso", model=model))
    flags = [f"--{name.replace('_', '-')}={value}" for name, value in model.items()]
    capsys.readouterr()
    assert main(["nm-branch", "--diffusion", "aniso", *flags]) == 2
    assert capsys.readouterr().err == f"error: {scalar.value}\n"
    table = run_nm_surface(SweepConfig(command="nm-surface", diffusion="aniso", model=model))
    assert (table.column("unstable") == 1.0).all() and (table.column("defective") == 0.0).all()
    assert np.isnan(table.data[:, 2:5]).all() and np.isnan(table.column("cp_margin")).all()


@pytest.mark.xfail(strict=True, reason="ROADMAP item 4: det X and tr X of X = kappa (I + t B) "
                   "lose their digits near omega t = 1e7, and a large CP buffer hides it")
def test_large_cp_buffer_hides_no_branch_defect(capsys):
    # exits 0 with lambda_1 = -5.98e15, a covariance that is not positive
    # semidefinite; the command must flag the row (exit 2) or print a
    # positive semidefinite covariance
    code = main(["nm-branch", "--eps-buffer", "1e3", "--grid=1e7:2e7:3"])
    if code != 2:
        header, *rows = [line for line in capsys.readouterr().out.splitlines() if line[0] != "#"]
        lambda1 = [float(row.split(",")[header.split(",").index("lambda1")]) for row in rows]
        assert code == 0 and min(lambda1) >= 0.0, min(lambda1)


@pytest.mark.parametrize(
    "model, message",
    [
        ({"gamma": -1.0, "nu": -1.0, "r_mem": 0.5}, "gamma must be positive"),
        ({"gamma": 0.0}, "gamma must be positive"),
        ({"nu": 0.0}, "nu must be nonzero"),
    ],
)
def test_growing_or_static_memory_rejected(model, message):
    # gamma = nu = -1 passed 0 < r_mem < gamma/nu with kappa(1) = 1.78 > 1,
    # and nu = 0 divided by zero
    with pytest.raises(DimensionError, match=message):
        NmFamilyParams(**model)
    for run, command in ((run_nm_surface, "nm-surface"), (run_nm_branch, "nm-branch")):
        with pytest.raises(DimensionError, match=message):
            run(SweepConfig(command=command, model=model))
