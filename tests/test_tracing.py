"""The benchmark's tracer (`perfbench/tracing.py`) on the package.

The tracer wraps every public function of the package and reads the
`residual` of each `solve_stein` and `solve_lyapunov` result; `layer_metrics`
reduces the spans of a run to one number per metric. A traced `verify` run
and solver calls at 2x2, 4x4, 6x6 and 12x12, one of each size route, must
reduce to finite scalars, which holds only while every solver's residual is
a Python float; so must traced `nm-branch` runs, one that writes its table
and one that stops at a flagged row, and one default run of each other
sweep command.
"""

import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest

import gaussgauge.cli  # every module the tracer wraps
from gaussgauge import matrix_equations, verify
from gaussgauge.matrix_equations import solve_lyapunov, solve_stein, stein_series
from gaussgauge.verify import random_hurwitz, random_psd, random_schur_stable

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def assert_finite_scalars(metrics):
    for name, value in metrics.items():
        assert isinstance(value, (int, float, np.integer, np.floating)), name
        assert math.isfinite(value), name


def test_traced_verify_and_solvers_reduce_to_finite_scalars():
    tracing = load_tracing()
    rng = np.random.default_rng(0)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        report = verify.run_verification(0)
        for dim in (2, 4, 6, 12):
            matrix_equations.solve_stein(random_schur_stable(rng, dim), random_psd(rng, dim))
            matrix_equations.solve_lyapunov(random_hurwitz(rng, dim), random_psd(rng, dim))
    finally:
        tracer.restore()
    assert report.all_passed
    metrics = tracing.layer_metrics(tracer, tracer.spans(0, len(tracer)), 0)
    assert metrics["matrix_equations.solve_stein_calls"] > 0
    assert metrics["matrix_equations.solve_lyapunov_calls"] > 0
    for dim in (2, 6, 12):
        assert metrics[f"matrix_equations.stein_ms_n{dim}"] > 0
        assert metrics[f"matrix_equations.lyapunov_ms_n{dim}"] > 0
    assert_finite_scalars(metrics)


@pytest.mark.parametrize("argv, code, rows", [
    (["nm-branch"], 0, 80),
    (["nm-branch", "--grid=1e7:2e7:3"], 2, 0),  # a row that is not CP
    # one default run of each other sweep: the dispatch must call the binding
    # the tracer wraps, or the rows vanish from the per-layer metrics
    (["drift-eigs"], 0, 101),
    (["squeezed-gauge"], 0, 101),
    (["nm-surface"], 0, 41 * 41 + 2 * 41),
])
def test_traced_branch_sweeps_reduce_to_finite_scalars(argv, code, rows, capsys):
    tracing = load_tracing()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        exit_code = gaussgauge.cli.main(argv)
    finally:
        tracer.restore()
    assert exit_code == code
    metrics = tracing.layer_metrics(tracer, tracer.spans(0, len(tracer)), 0)
    assert metrics["sweeps.rows"] == rows
    # the flagged row's error comes from its status code, not a rebuilt channel
    assert metrics["models.nm_channel_calls"] == 0
    assert_finite_scalars(metrics)


@pytest.mark.parametrize("dim", [2, 4, 6, 12])
def test_solver_residuals_are_python_floats(dim):
    rng = np.random.default_rng(dim)
    x, y, a = random_schur_stable(rng, dim), random_psd(rng, dim), random_hurwitz(rng, dim)
    for cov in (solve_stein(x, y), solve_lyapunov(a, y), stein_series(x, y)):
        assert type(cov.residual) is float
