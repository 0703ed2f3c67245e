"""The one verdict rule of `verify`: a NaN or a raised error fails the suite.

Every suite returns its measurements, and `run_suite` judges them: passed
only if every value is within its bound, worst the largest value with a NaN
carried through. The tests below inject a NaN solution into the suites,
through the solver each one calls per draw or on a stack of draws, or
through the whole-array kernel it runs on all draws, and raise a
GaussGaugeError inside a suite, through the library and through the CLI.
"""

import json
import math

import numpy as np
import pytest

from gaussgauge import gauging, matrix_equations, verify
from gaussgauge.cli import main
from gaussgauge.errors import StabilityError
from gaussgauge.verify import SuiteResult, run_suite, run_verification


def nan_solution(monkeypatch, module, name, dim):
    """Patch module.name, `_lyapunov` or `_stein`, to return an all-NaN S on
    its first solve at size dim, of one pair or of a stack of pairs."""
    solve = getattr(module, name)
    hits = []

    def patched(a, b):
        out = solve(a, b)
        if a.shape[-1] != dim or hits:
            return out
        hits.append(dim)
        return np.full_like(out, np.nan)

    monkeypatch.setattr(module, name, patched)
    return hits


class TestVerdict:
    def test_nan_fails_and_carries_into_worst(self):
        result = verify._verdict("s", 3, [([1e-12, math.nan], 1e-10), (0, 0)])
        assert result.passed is False
        assert math.isnan(result.worst)

    def test_every_bound_is_checked(self):
        assert verify._verdict("s", 1, [([1e-12], 1e-10), (1e-11, 1e-11)]).passed is True
        result = verify._verdict("s", 1, [([1e-12], 1e-10), (2, 0)], "two bad")
        assert result == SuiteResult("s", False, 2.0, 1e-10, 1, "two bad")

    def test_worst_is_at_least_zero(self):
        # a negative value (e.g. minus a positive least eigenvalue) reads as 0
        result = verify._verdict("s", 2, [([-3.0, -1.0], 1e-10), ([], 1e-11)])
        assert result == SuiteResult("s", True, 0.0, 1e-10, 2)

    def test_report_fields_are_python_scalars(self):
        for suite in run_verification(0).suites:
            assert type(suite.passed) is bool
            assert type(suite.worst) is float
            assert type(suite.tolerance) is float
            assert type(suite.samples) is int


@pytest.mark.parametrize("name, module, solver, dims", [
    # 2x2 draws take the whole-array kernels (test_nan_kernel_fails_the_suite)
    ("lyapunov-residual", verify, "_lyapunov", (4,)),
    ("stein-residual", verify, "_stein", (4,)),
    # eigvalsh raises LinAlgError on a stack of 4x4 NaN matrices
    ("positivity-transfer", verify, "_stein", (4,)),
    ("channel-gauging", gauging, "_stein", (2, 4)),
    ("semigroup-gauging", gauging, "_lyapunov", (2, 4)),
    ("noise-independence", verify, "_lyapunov", (2, 4)),
])
def test_nan_solution_fails_the_suite(name, module, solver, dims, monkeypatch):
    assert run_suite(name, np.random.default_rng(0)).passed
    for dim in dims:
        with monkeypatch.context() as patch:
            hits = nan_solution(patch, module, solver, dim)
            result = run_suite(name, np.random.default_rng(0))
        assert hits == [dim]
        assert not result.passed, (name, dim)
        if name == "noise-independence":  # the gauge operator rejects the NaN S
            assert result.note == "NonFiniteInputError: D has non-finite entries"


def nan_entry(monkeypatch, module, name):
    """Patch module.name, a whole-array kernel, to return NaN as the first
    element of its first output array."""
    kernel = getattr(module, name)
    hits = []

    def patched(*args):
        first, *rest = kernel(*args)
        first = np.array(first, dtype=float)
        first.flat[0] = np.nan
        hits.append(first.size)
        return (first, *rest)

    monkeypatch.setattr(module, name, patched)
    return hits


@pytest.mark.parametrize("name, module, kernel", [
    # the one-mode solve_lyapunov route
    ("lyapunov-residual", matrix_equations, "lyapunov2_entries"),
    # the one-mode solve_stein route, matrix_equations._stein2
    ("stein-residual", matrix_equations, "stein2_entries"),
    # eigvalsh gives NaN on a 2x2 NaN matrix
    ("positivity-transfer", matrix_equations, "stein2_entries"),
    ("ep-closed-forms", verify, "squeezed_ep_entries"),
])
def test_nan_kernel_fails_the_suite(name, module, kernel, monkeypatch):
    assert run_suite(name, np.random.default_rng(0)).passed
    hits = nan_entry(monkeypatch, module, kernel)
    result = run_suite(name, np.random.default_rng(0))
    assert hits and min(hits) > 1  # one NaN among the draws of a stack
    assert not result.passed


def test_raised_error_fails_only_its_suite(monkeypatch):
    def unstable(rng, fault):
        raise StabilityError("drift is not Hurwitz")

    monkeypatch.setitem(verify._SUITES, "jordan-chain", unstable)
    report = run_verification(0)
    assert len(report.suites) == 13
    assert [s.name for s in report.suites if not s.passed] == ["jordan-chain"]
    failed = {s.name: s for s in report.suites}["jordan-chain"]
    assert failed.note == "StabilityError: drift is not Hurwitz"
    assert math.isnan(failed.worst) and failed.samples == 0


def test_cli_reports_a_nan_lyapunov_solution(monkeypatch, tmp_path, capsys):
    # a NaN S for every 4x4 Lyapunov solve, on a stack of draws and per draw:
    # lyapunov-residual reads NaN, and noise-independence raises
    # NonFiniteInputError building its gauge operator
    solve = verify._lyapunov

    def patched(a, d):
        s = solve(a, d)
        return np.full_like(s, np.nan) if a.shape[-1] == 4 else s

    monkeypatch.setattr(verify, "_lyapunov", patched)
    out = tmp_path / "report.json"
    assert main(["verify", "--seed", "0", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == out.read_text()
    assert '"worst": NaN' in captured.out
    suites = {s["name"]: s for s in json.loads(captured.out)["suites"]}
    assert len(suites) == 13
    assert {name for name, s in suites.items() if not s["passed"]} == {
        "lyapunov-residual", "noise-independence"}
    assert suites["noise-independence"]["note"] == (
        "NonFiniteInputError: D has non-finite entries")
    assert "FAIL lyapunov-residual: worst=nan" in captured.err
