"""Seeded inputs and the operations of the four workloads.

Each workload is a list of operations run in order as one pass. Operations
reach the package only through public entry points: `gaussgauge.cli.main`
for the sweep and verify commands, the package's library functions for the
solver mix. Entry points are looked up at call time, so the traced run sees
the wrappers it installs. The inputs depend on the seed alone.

Why these workloads:
- surface: ~10^4-row nm-surface per diffusion model; the per-point Python
  path (model build, classification, 2x2 solve, reduction, CSV writing).
- figure-lines: every 1-D figure dataset at its default size, CSV and JSON;
  fixed per-command cost (parsing, config merge, metadata) and the writers.
- solvers: seeded library calls at 2N in {2, 6, 12, 20}, semigroup gauging,
  adaptive quadrature on non-Hurwitz drifts and planted Jordan blocks.
- verify: the oracle paths of `gaussgauge verify`.
"""

import contextlib
import io
import math
import os
from dataclasses import dataclass, field

import numpy as np

NAMES = ("surface", "figure-lines", "solvers", "verify")
_STREAMS = {name: i for i, name in enumerate(NAMES)}
SAMPLE_STREAM = len(NAMES)

SURFACE_COUNT = 101
DIFFUSIONS = ("iso", "aniso", "drift-aligned")
# default 1-D grids (lo, hi, count, lower end pinned to its domain)
FIGURE_GRIDS = {
    "delta": (-2.0, 2.0, 101, False),
    "kappa": (0.04, 5.0, 101, True),
    "r": (0.0, 2.0, 81, True),
    "phi": (0.0, 2.0 * math.pi, 101, False),
    "branch_omega": (0.1, 2.0, 40, True),
}
# The mix has 39 calls. Its median then falls on the costliest of the 18
# Jordan analyses and 2N = 6 solves, and its 90th percentile in the middle of
# the nine N = 5 semigroup gaugings: each lies among calls of similar cost
# rather than at a boundary between kinds whose order changes with the seed.
STEIN_SIZES = (2, 6, 12, 20)
SEMIGROUP_MODES = (1, 1, 3, 3) + (5,) * 9
QUADRATURE_MODES = (2, 3)
# (n, planted block size, condition number of the similarity); block size 1
# is a control without an EP
JORDAN_PLANTS = tuple((n, k, c) for c in (1.0, 1e2) for n in (4, 8) for k in (1, 2, 3, 4))


@dataclass
class Op:
    """One timed call. `spec` carries what the checks need about its inputs."""

    label: str
    kind: str  # "table", "verify" or "solver"
    call: object
    spec: dict = field(default_factory=dict)
    out: str = None


def rng_for(seed, stream):
    return np.random.default_rng([stream, seed])


def run_cli(argv):
    """`gaussgauge.cli.main(argv)` with stdout and stderr captured."""
    import gaussgauge.cli

    captured = io.StringIO()
    with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(io.StringIO()):
        code = gaussgauge.cli.main(argv)
    return code, captured.getvalue()


def _jitter(rng, lo, hi, count, pinned):
    """Endpoints moved by up to 1% of the span; a pinned lower end only moves up."""
    width = 0.01 * (hi - lo)
    shift = rng.uniform(-1.0, 1.0, size=2) * width
    return (float(lo + (abs(shift[0]) if pinned else shift[0])), float(hi + shift[1]), count)


def _grid_flag(flag, grid):
    lo, hi, count = grid
    # the '=' form keeps argparse from reading a negative bound as an option
    return f"--{flag}={lo!r}:{hi!r}:{count}"


def _table_op(label, argv, spec, tmpdir, fmt="csv"):
    out = os.path.join(tmpdir, label.replace("/", "-") + "." + fmt)
    argv = argv + ["--format", fmt, "--out", out]
    return Op(label, "table", lambda: run_cli(argv), dict(spec, fmt=fmt), out)


def surface(seed, tmpdir):
    rng = rng_for(seed, _STREAMS["surface"])
    lam = _jitter(rng, -1.5, 1.5, SURFACE_COUNT, False)
    omega = _jitter(rng, -1.5, 1.5, SURFACE_COUNT, False)
    return [
        _table_op(f"nm-surface/{d}",
                  ["nm-surface", "--diffusion", d, _grid_flag("grid", lam), _grid_flag("grid2", omega)],
                  {"command": "nm-surface", "diffusion": d, "lam": lam, "omega": omega}, tmpdir)
        for d in DIFFUSIONS
    ]


def figure_lines(seed, tmpdir):
    rng = rng_for(seed, _STREAMS["figure-lines"])
    grids = {name: _jitter(rng, lo, hi, n, pinned) for name, (lo, hi, n, pinned) in FIGURE_GRIDS.items()}
    commands = [("drift-eigs", ["drift-eigs", _grid_flag("grid", grids["delta"])],
                 {"command": "drift-eigs", "grid": grids["delta"]})]
    for axis in ("kappa", "r", "phi"):
        for branch in ("plus", "minus"):
            commands.append((
                f"squeezed-gauge/{axis}/{branch}",
                ["squeezed-gauge", "--axis", axis, "--branch", branch, _grid_flag("grid", grids[axis])],
                {"command": "squeezed-gauge", "axis": axis, "branch": branch, "grid": grids[axis]},
            ))
    for d in DIFFUSIONS:
        commands.append((f"nm-branch/{d}",
                         ["nm-branch", "--diffusion", d, _grid_flag("grid", grids["branch_omega"])],
                         {"command": "nm-branch", "diffusion": d, "omega": grids["branch_omega"]}))
    return [_table_op(f"{label}/{fmt}", argv, spec, tmpdir, fmt)
            for fmt in ("csv", "json") for label, argv, spec in commands]


# ---------------------------------------------------------------------------
# solvers
# ---------------------------------------------------------------------------


# Solver inputs are Q (T + N) Q^T: T holds 2x2 blocks with eigenvalues drawn
# from a fixed region, N is a small coupling strictly above the blocks and Q
# a random orthogonal matrix. The seed changes every matrix, while the
# spectra, and with them the cost of each call, stay in a narrow range.


def _orthogonal(rng, n):
    return np.linalg.qr(rng.standard_normal((n, n)))[0]


def _spd(rng, n):
    Q = _orthogonal(rng, n)
    return Q @ np.diag(rng.uniform(0.5, 1.5, size=n)) @ Q.T


def _drift(rng, n, re, im, first_re=None):
    """Q (T + N) Q^T with eigenvalues a +- ib, a ~ U(re), b ~ U(im) (the first
    pair's real part pinned to `first_re` when given)."""
    T = np.zeros((n, n))
    for k in range(0, n, 2):
        a = first_re if k == 0 and first_re is not None else rng.uniform(*re)
        b = rng.uniform(*im)
        T[k:k + 2, k:k + 2] = [[a, b], [-b, a]]
    N = np.triu(rng.standard_normal((n, n)), k=2) * 0.3 / np.sqrt(n)
    Q = _orthogonal(rng, n)
    return Q @ (T + N) @ Q.T


def _hurwitz(rng, n):
    # slowest decay pinned, so the default gauge times span the same range
    return _drift(rng, n, (-1.0, -0.5), (0.0, 1.0), first_re=-0.5)


def _schur_stable(rng, n):
    return _drift(rng, n, (-0.6, 0.6), (0.0, 0.6))  # spectral radius < 0.85


def _antistable(rng, n):
    # every eigenvalue in the right half-plane: quadrature path, and no pair
    # lambda_i + lambda_j near 0 to spoil the Kronecker oracle
    return _drift(rng, n, (0.1, 0.3), (0.0, 1.0))


def _planted_jordan(rng, n, size, cond):
    """P J P^-1 with one Jordan block of `size`, simple eigenvalues elsewhere
    (at least 0.3 from each other and from the block), and a similarity P of
    condition number `cond`."""
    mu = rng.uniform(-1.0, 1.0)
    others = mu + np.cumsum(rng.uniform(0.3, 0.6, size=n - size)) * rng.choice([-1.0, 1.0])
    J = np.diag(np.concatenate([np.full(size, mu), others]))
    J[np.arange(size - 1), np.arange(1, size)] = 1.0
    P = _orthogonal(rng, n) @ np.diag(np.geomspace(1.0, cond, n)) @ _orthogonal(rng, n)
    return P @ J @ np.linalg.inv(P)


def _library(name):
    import gaussgauge

    return getattr(gaussgauge, name)


def solvers(seed, tmpdir):
    rng = rng_for(seed, _STREAMS["solvers"])
    import gaussgauge

    ops = []
    for n in STEIN_SIZES:
        X, Y = _schur_stable(rng, n), _spd(rng, n)
        ops.append(Op(f"solve_stein/n{n}", "solver",
                      lambda X=X, Y=Y: _library("solve_stein")(X, Y),
                      {"fn": "solve_stein", "X": X, "Y": Y}))
        A, D = _hurwitz(rng, n), _spd(rng, n)
        ops.append(Op(f"solve_lyapunov/n{n}", "solver",
                      lambda A=A, D=D: _library("solve_lyapunov")(A, D),
                      {"fn": "solve_lyapunov", "A": A, "D": D}))
    for modes in SEMIGROUP_MODES:
        A, D = _hurwitz(rng, 2 * modes), _spd(rng, 2 * modes)
        gen = gaussgauge.GaussianGenerator(A=A, D=D, u=np.zeros(2 * modes))
        ops.append(Op(f"gauge_semigroup/N{modes}/{len(ops)}", "solver",
                      lambda gen=gen: _library("gauge_semigroup")(gen),
                      {"fn": "gauge_semigroup", "A": A, "D": D}))
    for modes in QUADRATURE_MODES:
        A, D = _antistable(rng, 2 * modes), _spd(rng, 2 * modes)
        u = rng.standard_normal(2 * modes)
        gen = gaussgauge.GaussianGenerator(A=A, D=D, u=u)
        ops.append(Op(f"semigroup_channel/N{modes}", "solver",
                      lambda gen=gen: _library("semigroup_channel")(gen, 1.0),
                      {"fn": "semigroup_channel", "A": A, "D": D, "u": u, "t": 1.0}))
    for n, size, cond in JORDAN_PLANTS:
        M = _planted_jordan(rng, n, size, cond)
        ops.append(Op(f"jordan_structure/n{n}/k{size}/c{cond:g}", "solver",
                      lambda M=M: _library("jordan_structure")(M),
                      {"fn": "jordan_structure", "n": n, "planted": size}))
    return ops


def verify(seed, tmpdir):
    argv = ["verify", "--seed", str(seed)]
    return [Op("verify", "verify", lambda: run_cli(argv), {"seed": seed})]


BUILDERS = {"surface": surface, "figure-lines": figure_lines, "solvers": solvers, "verify": verify}


def warmup(name, seed, tmpdir):
    """Untimed operations run before timing, so that lazily imported modules
    are loaded and the allocator holds memory for a full-size table: the
    workload itself, or for surface its first command."""
    ops = BUILDERS[name](seed, os.path.join(tmpdir, "warmup"))
    return ops[:1] if name == "surface" else ops
