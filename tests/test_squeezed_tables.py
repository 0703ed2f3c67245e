"""The squeezed-reservoir tables against the scalar API, bit for bit.

`squeezed-gauge` and `drift-eigs` evaluate a whole grid in one call of the
closed-form kernels in `models`. Each row must equal what the scalar API
gives at that point, and the scalar API must still take the closed forms by
the operations written out below, in their order.
"""

import math

import numpy as np
import numpy.testing as npt
import pytest

from gaussgauge import (
    DimensionError,
    EpBranch,
    NumericalOverflowError,
    SqueezedReservoirParams,
    jordan_structure,
    squeezed_drift_eigenvalues,
    squeezed_ep_gauge,
    squeezed_generator,
)
from gaussgauge.cli import main
from gaussgauge.models import squeezed_eigenvalue_entries, squeezed_ep_entries
from gaussgauge.sweeps import GridSpec, SweepConfig, run_drift_eigs, run_squeezed_gauge

TWO_PI = 2.0 * math.pi


def written_out_ep_entries(k, eps, r, phi, branch):
    """The EP-branch closed form, one float at a time, in its reference order."""
    c2, s2 = math.cosh(2 * r), math.sinh(2 * r)
    big = c2 - s2 * math.cos(phi)
    small = c2 + s2 * math.cos(phi)
    ss = s2 * math.sin(phi)
    if branch is EpBranch.PLUS:
        s_qq = 0.5 * big
        s_qp = -0.5 * ss - (eps / k) * big
        s_pp = 0.5 * small + (2.0 * eps / k) * ss + (4.0 * eps * eps / (k * k)) * big
    else:
        s_pp = 0.5 * small
        s_qp = -0.5 * ss - (eps / k) * small
        s_qq = 0.5 * big + (2.0 * eps / k) * ss + (4.0 * eps * eps / (k * k)) * small
    return np.array([[s_qq, s_qp], [s_qp, s_pp]])


def written_out_eigenvalues(kappa, delta, eps):
    root = np.sqrt(complex(eps**2 - delta**2))
    return np.array([-0.5 * kappa - root, -0.5 * kappa + root])


# per axis: the default grid, then grids through r = 0, phi in {0, 2 pi},
# small kappa, negative drive and phases beyond one period
GAUGE_CASES = [
    ("kappa", {}, None),
    ("kappa", {"r": 0.0}, GridSpec(0.001, 10.0, 137)),
    ("kappa", {"phi": 0.0, "epsilon": -1.3}, GridSpec(1e-6, 0.3, 59)),
    ("kappa", {"r": 1.7, "phi": TWO_PI, "epsilon": 2.5}, GridSpec(0.3, 7.0, 41)),
    ("r", {}, None),
    ("r", {"phi": 0.0, "kappa": 0.001}, GridSpec(0.0, 3.0, 121)),
    ("r", {"phi": TWO_PI, "epsilon": -0.7}, GridSpec(0.0, 0.5, 33)),
    ("phi", {}, None),
    ("phi", {"r": 0.0}, GridSpec(0.0, TWO_PI, 257)),
    ("phi", {"r": 1.3, "kappa": 0.01}, GridSpec(-3.0, 9.0, 77)),
    ("phi", {"kappa": 1e-5, "epsilon": 0.3}, GridSpec(0.0, TWO_PI, 11)),
]


@pytest.mark.parametrize("branch", list(EpBranch))
@pytest.mark.parametrize("axis, model, grid", GAUGE_CASES)
def test_gauge_rows_match_scalar_api_bitwise(axis, model, grid, branch):
    grids = {} if grid is None else {axis: grid}
    config = SweepConfig(command="squeezed-gauge", model=model, grids=grids)
    table = run_squeezed_gauge(config, axis, branch.value)
    base = {name: config.param(name) for name in ("kappa", "epsilon", "r", "phi")}
    want = []
    for value in config.grid(axis).points():
        vals = dict(base, **{axis: value})
        params = SqueezedReservoirParams(
            vals["kappa"], 0.0, vals["epsilon"], vals["r"], vals["phi"])
        s = squeezed_ep_gauge(params, branch).S
        npt.assert_array_equal(
            s, written_out_ep_entries(vals["kappa"], vals["epsilon"], vals["r"], vals["phi"],
                                      branch))
        lo, hi = np.linalg.eigvalsh(s)
        want.append([value, lo, hi, lo + hi, 1.0 if branch is EpBranch.PLUS else -1.0])
    assert table.columns == (axis, "lambda1", "lambda2", "trace", "branch")
    npt.assert_array_equal(table.data, np.array(want))


DRIFT_CASES = [
    ({}, None),
    ({}, GridSpec(-1.7, 1.3, 31)),  # two rows an ulp off delta = +-eps
    ({"kappa": 0.5, "epsilon": 1.2}, GridSpec(-3.0, 3.0, 1001)),
    ({"epsilon": 0.0}, GridSpec(-1e-3, 1e-3, 41)),  # delta = 0: A = -kappa/2 I, no EP
]


@pytest.mark.parametrize("model, grid", DRIFT_CASES)
def test_drift_eigs_rows_match_scalar_api_bitwise(model, grid):
    grids = {} if grid is None else {"delta": grid}
    config = SweepConfig(command="drift-eigs", model=model, grids=grids)
    table = run_drift_eigs(config)
    kappa, eps = config.param("kappa"), config.param("epsilon")
    want = []
    for delta in config.grid("delta").points():
        params = SqueezedReservoirParams(kappa, delta, eps, config.param("r"),
                                         config.param("phi"))
        lam_minus, lam_plus = squeezed_drift_eigenvalues(params)
        npt.assert_array_equal([lam_minus, lam_plus], written_out_eigenvalues(kappa, delta, eps))
        ep = jordan_structure(squeezed_generator(params).A).defective
        want.append([delta, lam_plus.real, lam_minus.real, lam_plus.imag, lam_minus.imag,
                     abs(lam_plus - lam_minus), 1.0 if ep else 0.0])
    npt.assert_array_equal(table.data, np.array(want))
    npt.assert_array_equal(np.signbit(table.data), np.signbit(np.array(want)))


# a grid reaching kappa <= 0 or r < 0 fails on its first row, which holds the
# minimum of the axis; kappa is checked before r
ERROR_CASES = [
    ("kappa", GridSpec(-1.0, 1.0, 5), {}, "kappa must be positive"),
    ("kappa", GridSpec(0.0, 1.0, 5), {}, "kappa must be positive"),
    ("kappa", GridSpec(0.5, 1.0, 5), {"r": -1.0}, "squeezing magnitude r must be nonnegative"),
    ("r", GridSpec(-0.5, 1.0, 7), {}, "squeezing magnitude r must be nonnegative"),
    ("r", GridSpec(-1.0, 1.0, 5), {"kappa": -1.0}, "kappa must be positive"),
    ("phi", None, {"r": -0.1}, "squeezing magnitude r must be nonnegative"),
    ("phi", None, {"kappa": 0.0}, "kappa must be positive"),
]


@pytest.mark.parametrize("axis, grid, model, message", ERROR_CASES)
def test_gauge_grid_errors(axis, grid, model, message, capsys):
    grids = {} if grid is None else {axis: grid}
    config = SweepConfig(command="squeezed-gauge", model=model, grids=grids)
    with pytest.raises(DimensionError, match=f"^{message}$"):
        run_squeezed_gauge(config, axis, "plus")
    argv = ["squeezed-gauge", "--axis", axis, "--branch", "minus"]
    argv += [] if grid is None else [f"--grid={grid.lo}:{grid.hi}:{grid.count}"]
    for name, value in model.items():
        argv += [f"--{name}", str(value)]
    capsys.readouterr()
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize(
    "flag, value, message",
    [("kappa", 0.0, "kappa must be positive"),
     ("r", -1.0, "squeezing magnitude r must be nonnegative")],
)
def test_drift_eigs_errors(flag, value, message, capsys):
    with pytest.raises(DimensionError, match=f"^{message}$"):
        run_drift_eigs(SweepConfig(command="drift-eigs", model={flag: value}))
    capsys.readouterr()
    assert main(["drift-eigs", f"--{flag}", str(value)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_kernels_match_scalar_api_on_random_points(rng):
    # all parameters varying at once, which no sweep does; 5,000 detunings
    # include a few where pow(x, 2) and x * x round apart
    n = 5000
    kappa, eps = rng.uniform(1e-3, 5.0, n), rng.uniform(-2.0, 2.0, n)
    r, phi = rng.uniform(0.0, 2.0, n), rng.uniform(-TWO_PI, 2 * TWO_PI, n)
    delta = rng.standard_normal(n)
    lam_minus, lam_plus = squeezed_eigenvalue_entries(kappa, delta, eps)
    for branch in EpBranch:
        s_qq, s_qp, s_pp = squeezed_ep_entries(kappa, eps, r, phi, branch)
        for i in range(0, n, 7):
            want = written_out_ep_entries(kappa[i], eps[i], r[i], phi[i], branch)
            npt.assert_array_equal([[s_qq[i], s_qp[i]], [s_qp[i], s_pp[i]]], want)
    want = np.array([written_out_eigenvalues(*p) for p in zip(kappa.tolist(), delta.tolist(),
                                                              eps.tolist())])
    npt.assert_array_equal(np.column_stack([lam_minus, lam_plus]), want)
    assert sum(d**2 != d * d or e**2 != e * e for d, e in zip(delta.tolist(), eps.tolist())) > 0


@pytest.mark.parametrize("r", [354.0, 400.0])
def test_squeezing_beyond_float_range(r, capsys):
    # cosh(2r) overflows past r ~ 355.2; at r = 354 the entries scaled by
    # 4 eps^2 / kappa^2 already do
    params = SqueezedReservoirParams(kappa=0.04, delta=1.0, epsilon=1.0, r=r, phi=math.pi / 2)
    for branch in EpBranch:
        with pytest.raises(NumericalOverflowError):
            squeezed_ep_gauge(params, branch)
    capsys.readouterr()
    assert main(["squeezed-gauge", "--axis", "r", f"--grid=0:{r}:5"]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    if r > 355.5:
        with pytest.raises(NumericalOverflowError, match="cosh"):
            squeezed_generator(params)


def test_squeezed_diffusion_beyond_float_range():
    # cosh(710) ~ 1.1e308 is finite, (kappa / 2) cosh(710) is not
    params = SqueezedReservoirParams(kappa=10.0, delta=1.0, epsilon=1.0, r=355.0)
    with pytest.raises(NumericalOverflowError, match="squeezed diffusion"):
        squeezed_generator(params)
