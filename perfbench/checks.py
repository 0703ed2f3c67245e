"""Correctness checks that do not use `gaussgauge`.

Sweep rows are recomputed from the documented model definitions with
`scipy.linalg.expm`, a dense Kronecker solve of this module's own and
`numpy.linalg.eigvalsh`. Solver results are checked by their equation
residual and against the same Kronecker solves; Jordan structures against
the planted block sizes.

Every check returns the names of the checks that failed (empty when the
output is correct). A failure is "known" when it is a documented defect of
the package that the benchmark keeps visible instead of dropping the input:
planted Jordan blocks of size >= 3 that `jordan_structure` misses, and EP
rows that `drift-eigs` misses by its fixed eigenvalue-gap threshold.
"""

import json
import math

import numpy as np
import scipy.linalg

# documented figure defaults (README, "Default figure parameters")
DEFAULTS = {
    "kappa": 0.04, "epsilon": 1.0, "r": 0.5, "phi": math.pi / 2.0, "gamma": 1.0,
    "r_mem": 0.3, "nu": 1.0, "t": 1.0, "eps_buffer": 1e-3, "s": 0.5, "alpha": 1.0,
}
# Kronecker and closed-form paths differ by up to ~2e-10 relative near the
# stability edge, where the Stein system is ill-conditioned.
VALUE_RTOL = 1e-8
EIG_TOL = 1e-9
RESIDUAL_TOL = 1e-11
KNOWN = ("jordan-planted-ge3", "ep-missed")


# ---------------------------------------------------------------------------
# Independent solvers
# ---------------------------------------------------------------------------


def kron_stein(X, Y):
    """S = X S X^T + Y by the dense system (I - X (x) X) vec S = vec Y."""
    n = X.shape[0]
    s = np.linalg.solve(np.eye(n * n) - np.kron(X, X), Y.reshape(-1)).reshape(n, n)
    return 0.5 * (s + s.T)


def kron_lyapunov(A, D):
    """A S + S A^T + D = 0 by the dense system (A (x) I + I (x) A) vec S = -vec D."""
    n = A.shape[0]
    eye = np.eye(n)
    s = np.linalg.solve(np.kron(A, eye) + np.kron(eye, A), -D.reshape(-1)).reshape(n, n)
    return 0.5 * (s + s.T)


def close(a, b, scale, rtol=VALUE_RTOL):
    return bool(abs(a - b) <= rtol * scale)


# ---------------------------------------------------------------------------
# Table parsing
# ---------------------------------------------------------------------------


def parse_table(data, fmt):
    """(columns, rows as a float array) of a CSV or JSON sweep table."""
    text = data.decode("utf-8")
    if fmt == "json":
        payload = json.loads(text)
        rows = [[math.nan if v is None else float(v) for v in row] for row in payload["rows"]]
        return tuple(payload["columns"]), np.array(rows, dtype=float)
    lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
    columns = tuple(lines[0].split(","))
    rows = [[float(v) for v in ln.split(",")] for ln in lines[1:]]
    return columns, np.array(rows, dtype=float)


def grid_points(spec):
    lo, hi, n = spec
    return np.linspace(lo, hi, n)


# ---------------------------------------------------------------------------
# Model definitions (from the documented formulas)
# ---------------------------------------------------------------------------


def nm_channel(lam, omega, diffusion):
    """(X, Y) of the non-Markovian family, or None where the model is undefined."""
    p = DEFAULTS
    t = p["t"]
    k = math.exp(-p["gamma"] * t + p["r_mem"] * math.sin(p["nu"] * t))
    B = np.array([[lam, omega], [-omega, -lam]])
    X = k * scipy.linalg.expm(t * B)
    g = 0.5 * (1.0 - k * k) + p["eps_buffer"]
    if diffusion == "iso":
        Y = (0.5 * abs(1.0 - k * k) + p["eps_buffer"]) * np.eye(2)
    elif diffusion == "aniso":
        Y = np.diag([g * math.exp(p["s"]), g * math.exp(-p["s"])])
    else:
        W = B @ B.T
        if np.trace(W) == 0.0:
            return None
        M = np.eye(2) + p["alpha"] * W / np.trace(W)
        Y = g / math.sqrt(np.linalg.det(M)) * M
    return X, Y


def cp_margin(X, Y):
    """One-mode CP margin min(lambda_min(Y), det Y - ((1 - det X)/2)^2)."""
    a = 0.5 * (1.0 - np.linalg.det(X))
    return min(np.linalg.eigvalsh(Y)[0], np.linalg.det(Y) - a * a)


def squeezed(kappa, delta, eps, r, phi):
    """Drift and diffusion of the squeezed-reservoir Lindbladian."""
    c2, s2 = math.cosh(2 * r), math.sinh(2 * r)
    A = np.array([[-0.5 * kappa, delta - eps], [-(delta + eps), -0.5 * kappa]])
    D = 0.5 * kappa * np.array([[c2 - s2 * math.cos(phi), -s2 * math.sin(phi)],
                                [-s2 * math.sin(phi), c2 + s2 * math.cos(phi)]])
    return A, D


# ---------------------------------------------------------------------------
# Row checks, one per sweep command
# ---------------------------------------------------------------------------


def _grid_failed(got, want):
    return not np.all(np.abs(np.asarray(got) - np.asarray(want)) <= 1e-14 * (1.0 + np.abs(want)))


def _stein_values(X, Y):
    S = kron_stein(X, Y)
    lo, hi = np.linalg.eigvalsh(S)
    return lo, hi, S[0, 1], float(np.max(np.abs(S)))


def check_nm_surface(spec, row, i):
    lam_g, om_g = grid_points(spec["lam"]), grid_points(spec["omega"])
    n_main = lam_g.size * om_g.size
    if i < n_main:
        lam, omega, branch = lam_g[i // om_g.size], om_g[i % om_g.size], 0.0
    else:
        omega = om_g[(i - n_main) // 2]
        branch = 1.0 if (i - n_main) % 2 == 0 else -1.0
        lam = branch * omega
    failed = []
    if _grid_failed([row[0], row[1], row[8]], [lam, omega, branch]):
        failed.append("row-grid")
    model = nm_channel(lam, omega, spec["diffusion"])
    margin = math.nan if model is None else cp_margin(*model)
    undefined = model is None or margin < -1e-10
    spr = math.inf if model is None else float(np.max(np.abs(np.linalg.eigvals(model[0]))))
    unstable = undefined or spr >= 1.0
    if row[7] != (1.0 if unstable else 0.0):
        failed.append("row-flag")
    if undefined:
        if not np.all(np.isnan(row[[2, 3, 4, 6]])):
            failed.append("row-value")
        return failed
    if not close(row[6], margin, 1.0 + np.max(np.abs(model[1]))):
        failed.append("row-value")
    # defective exactly on the EP lines lambda = +-omega (omega != 0)
    ep_distance = abs(lam * lam - omega * omega) / (1e-300 + lam * lam + omega * omega)
    if branch != 0.0 or ep_distance > 1e-6:
        want = 1.0 if branch != 0.0 and omega != 0.0 else 0.0
        if row[5] != want:
            failed.append("row-flag")
    if unstable:
        if not np.all(np.isnan(row[[2, 3, 4]])):
            failed.append("row-value")
        return failed
    lo, hi, sqp, scale = _stein_values(*model)
    if not all(close(a, b, scale) for a, b in zip(row[[2, 3, 4]], (lo, hi, sqp))):
        failed.append("row-value")
    return failed


def check_nm_branch(spec, row, i):
    omega = grid_points(spec["omega"])[i // 2]
    branch = 1.0 if i % 2 == 0 else -1.0
    failed = ["row-grid"] if _grid_failed(row[:2], [omega, branch]) else []
    lo, hi, sqp, scale = _stein_values(*nm_channel(branch * omega, omega, spec["diffusion"]))
    if not all(close(a, b, scale) for a, b in zip(row[2:5], (lo, hi, sqp))):
        failed.append("row-value")
    return failed


def check_squeezed_gauge(spec, row, i):
    axis = spec["axis"]
    value = grid_points(spec["grid"])[i]
    p = {name: DEFAULTS[name] for name in ("kappa", "epsilon", "r", "phi")}
    p[axis] = value
    branch = 1.0 if spec["branch"] == "plus" else -1.0
    failed = ["row-grid"] if _grid_failed([row[0], row[4]], [value, branch]) else []
    A, D = squeezed(p["kappa"], branch * p["epsilon"], p["epsilon"], p["r"], p["phi"])
    S = kron_lyapunov(A, D)
    lo, hi = np.linalg.eigvalsh(S)
    scale = float(np.max(np.abs(S)))
    if not all(close(a, b, scale) for a, b in zip(row[1:4], (lo, hi, lo + hi))):
        failed.append("row-value")
    return failed


def check_drift_eigs(spec, row, i):
    delta = grid_points(spec["grid"])[i]
    p = DEFAULTS
    failed = ["row-grid"] if _grid_failed([row[0]], [delta]) else []
    A, _ = squeezed(p["kappa"], delta, p["epsilon"], p["r"], p["phi"])
    minus, plus = sorted(np.linalg.eigvals(A), key=lambda z: (z.real, z.imag))
    want = (plus.real, minus.real, plus.imag, minus.imag, abs(plus - minus))
    scale = 1.0 + float(np.max(np.abs(A)))
    if not all(close(a, b, scale, EIG_TOL) for a, b in zip(row[1:6], want)):
        failed.append("row-value")
    # an EP where the discriminant eps^2 - delta^2 vanishes
    ep = abs(p["epsilon"] ** 2 - delta * delta) <= 1e-12 * (p["epsilon"] ** 2 + delta * delta)
    if row[6] != (1.0 if ep else 0.0):
        failed.append("ep-missed" if ep else "row-flag")
    return failed


ROW_CHECKS = {
    "nm-surface": check_nm_surface,
    "nm-branch": check_nm_branch,
    "squeezed-gauge": check_squeezed_gauge,
    "drift-eigs": check_drift_eigs,
}

COLUMNS = {
    "nm-surface": ("lam", "omega", "lambda_min", "lambda_max", "s_qp", "defective",
                   "cp_margin", "unstable", "on_branch"),
    "nm-branch": ("omega", "branch", "lambda1", "lambda2", "s_qp"),
    "drift-eigs": ("delta", "re_lambda_plus", "re_lambda_minus", "im_lambda_plus",
                   "im_lambda_minus", "gap", "ep"),
}


def expected_rows(spec):
    if spec["command"] == "nm-surface":
        n_lam, n_om = spec["lam"][2], spec["omega"][2]
        return n_lam * n_om + 2 * n_om
    if spec["command"] == "nm-branch":
        return 2 * spec["omega"][2]
    return spec["grid"][2]


def expected_columns(spec):
    if spec["command"] == "squeezed-gauge":
        return (spec["axis"], "lambda1", "lambda2", "trace", "branch")
    return COLUMNS[spec["command"]]


# ---------------------------------------------------------------------------
# Library results
# ---------------------------------------------------------------------------


def solver_output(fn, result):
    """The parts of a library result that the checks read, as plain values."""
    if fn in ("solve_stein", "solve_lyapunov"):
        return {"S": np.array(result.S), "residual": result.residual}
    if fn == "gauge_semigroup":
        return {"S": np.array(result.S.S), "residual": result.S.residual,
                "times": len(result.residuals), "max_residual": result.max_residual}
    if fn == "semigroup_channel":
        return {"X": np.array(result.X), "Y": np.array(result.Y), "delta": np.array(result.delta)}
    return {"blocks": sorted(size for blocks in result.block_sizes for size in blocks),
            "defective": bool(result.defective)}


def perturb_output(out):
    """A wrong copy of a solver output, for the self-test."""
    wrong = {}
    for key, value in out.items():
        if isinstance(value, np.ndarray):
            wrong[key] = value + 1e-6 * (1.0 + np.max(np.abs(value)))
        elif key == "blocks":
            wrong[key] = [1] * sum(value)
        elif isinstance(value, bool):
            wrong[key] = not value
        else:
            wrong[key] = value + 1.0
    return wrong


def _gauge_failures(want, out, residual_eq):
    """Residual bound (claimed and recomputed) and agreement with `want`."""
    scale = float(np.max(np.abs(want)))
    failed = []
    if not (out["residual"] <= RESIDUAL_TOL * scale and residual_eq <= RESIDUAL_TOL * scale):
        failed.append("solver-residual")
    if not float(np.max(np.abs(out["S"] - want))) <= VALUE_RTOL * scale:
        failed.append("solver-kron")
    return failed


def check_solver(spec, out):
    fn = spec["fn"]
    if fn == "solve_stein":
        X, Y, S = spec["X"], spec["Y"], out["S"]
        return _gauge_failures(kron_stein(X, Y), out, float(np.max(np.abs(S - X @ S @ X.T - Y))))
    if fn in ("solve_lyapunov", "gauge_semigroup"):
        A, D, S = spec["A"], spec["D"], out["S"]
        failed = _gauge_failures(kron_lyapunov(A, D), out, float(np.max(np.abs(A @ S + S @ A.T + D))))
        if fn == "gauge_semigroup" and not (
                out["times"] == 20 and out["max_residual"] <= 1e-8 * float(np.max(np.abs(S)))):
            failed.append("semigroup-residual")
        return failed
    if fn == "semigroup_channel":
        return _semigroup_channel_failures(spec, out)
    want = sorted([spec["planted"]] + [1] * (spec["n"] - spec["planted"]))
    if out["blocks"] == want and out["defective"] == (spec["planted"] >= 2):
        return []
    return ["jordan-planted-ge3" if spec["planted"] >= 3 else "jordan-blocks"]


def _semigroup_channel_failures(spec, out):
    """Y_t = S - X_t S X_t^T holds for any A whose spectrum has no pair
    lambda_i + lambda_j = 0, stable or not; delta_t = A^{-1}(X_t - I) u."""
    A, D, u, t = spec["A"], spec["D"], spec["u"], spec["t"]
    X = scipy.linalg.expm(t * A)
    S = kron_lyapunov(A, D)
    want = {"X": (X, 1e-10), "Y": (S - X @ S @ X.T, 1e-7),
            "delta": (np.linalg.solve(A, (X - np.eye(A.shape[0])) @ u), 1e-9)}
    for key, (value, rtol) in want.items():
        if not float(np.max(np.abs(out[key] - value))) <= rtol * (1.0 + float(np.max(np.abs(value)))):
            return ["channel-value"]
    return []


def check_verify(report_text, seed):
    try:
        report = json.loads(report_text)
    except ValueError:
        return ["verify-passed"]
    if report.get("all_passed") is True and report.get("seed") == seed:
        return []
    return ["verify-passed"]


def verify_samples(report_text):
    try:
        return sum(int(s["samples"]) for s in json.loads(report_text)["suites"])
    except (ValueError, KeyError, TypeError):
        return 0
