"""The one verdict rule of `verify`: a NaN or a raised error fails the suite.

Every suite returns its measurements, and `run_suite` judges them: passed
only if every value is within its bound, worst the largest value with a NaN
carried through. The tests below inject a NaN solution into the per-draw
suites through the solver each one calls, and raise a GaussGaugeError inside
a suite, through the library and through the CLI.
"""

import dataclasses
import json
import math

import numpy as np
import pytest

from gaussgauge import gauging, verify
from gaussgauge.cli import main
from gaussgauge.errors import StabilityError
from gaussgauge.verify import SuiteResult, run_suite, run_verification


def nan_solution(monkeypatch, module, name, dim):
    """Patch module.name to return an all-NaN S on its first solve at size dim."""
    solve = getattr(module, name)
    hits = []

    def patched(a, b, *args, **kwargs):
        cov = solve(a, b, *args, **kwargs)
        if a.shape[0] != dim or hits:
            return cov
        hits.append(dim)
        return dataclasses.replace(cov, S=np.full_like(cov.S, np.nan))

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
    ("lyapunov-residual", verify, "solve_lyapunov", (2, 4)),
    ("stein-residual", verify, "solve_stein", (2, 4)),
    # eigvalsh gives NaN on a 2x2 NaN matrix and raises LinAlgError above
    ("positivity-transfer", verify, "solve_stein", (2, 4)),
    ("channel-gauging", gauging, "solve_stein", (2, 4)),
    ("semigroup-gauging", gauging, "solve_lyapunov", (2, 4)),
    ("noise-independence", verify, "solve_lyapunov", (2, 4)),
    ("ep-closed-forms", verify, "solve_lyapunov", (2,)),
])
def test_nan_solution_fails_the_suite(name, module, solver, dims, monkeypatch):
    assert run_suite(name, np.random.default_rng(0)).passed
    for dim in dims:
        with monkeypatch.context() as patch:
            hits = nan_solution(patch, module, solver, dim)
            result = run_suite(name, np.random.default_rng(0))
        assert hits == [dim]
        assert not result.passed, (name, dim)


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
    # a NaN S for every 4x4 Lyapunov solve: lyapunov-residual reads NaN, and
    # noise-independence raises NonFiniteInputError building its gauge operator
    solve = verify.solve_lyapunov

    def patched(a, d):
        cov = solve(a, d)
        return dataclasses.replace(cov, S=np.full_like(cov.S, np.nan)) if a.shape == (4, 4) else cov

    monkeypatch.setattr(verify, "solve_lyapunov", patched)
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
