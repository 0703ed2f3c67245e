"""Parameter sweeps over the model families, emitted as figure-ready tables.

Each command produces a SweepTable: numeric rows in grid order, a fixed
column list, and a metadata block with the fully resolved configuration so
that a run is reproducible from its own output. Rows are evaluated one after
another in grid order. Stable numeric formatting (17 significant digits in
CSV, shortest-roundtrip repr in JSON) makes identical configurations
byte-identical.
"""

import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .errors import DegenerateModelError, DimensionError, PhysicalityError
from .matrix_equations import StabilityMode, solve_stein, stability
from .models import (
    AnisotropicDiffusion,
    DriftAlignedDiffusion,
    EpBranch,
    IsotropicDiffusion,
    NmFamilyParams,
    SqueezedReservoirParams,
    nm_channel,
    squeezed_drift_eigenvalues,
    squeezed_ep_gauge,
)
from .phase_space import CpMethod, cp_check
from .spectral import jordan_structure

# Documented sweep defaults: the strong-drive/weak-damping regime, where the
# sweep trends are clean on the default grids (gauge eigenvalues monotone in
# kappa and r, half-period phase offset between the EP branches).
MODEL_DEFAULTS = {
    "kappa": 0.04,
    "delta": 0.0,
    "epsilon": 1.0,
    "r": 0.5,
    "phi": math.pi / 2.0,
    "gamma": 1.0,
    "r_mem": 0.3,
    "nu": 1.0,
    "t": 1.0,
    "eps_buffer": 1e-3,
    "s": 0.5,
    "alpha": 1.0,
}

GRID_DEFAULTS = {
    "delta": (-2.0, 2.0, 101),
    "kappa": (0.04, 5.0, 101),
    "r": (0.0, 2.0, 81),
    "phi": (0.0, 2.0 * math.pi, 101),
    "lam": (-1.5, 1.5, 41),
    "omega": (-1.5, 1.5, 41),
    "branch_omega": (0.1, 2.0, 40),
}

EP_GAP_TOL = 1e-8

DIFFUSION_CHOICES = ("iso", "aniso", "drift-aligned")


@dataclass(frozen=True)
class GridSpec:
    lo: float
    hi: float
    count: int

    def __post_init__(self):
        if self.count < 2:
            raise DimensionError("grid count must be >= 2")
        if not self.lo < self.hi:
            raise DimensionError("grid needs lo < hi")

    def points(self):
        return np.linspace(self.lo, self.hi, self.count)

    def as_meta(self):
        return f"{self.lo}:{self.hi}:{self.count}"


@dataclass
class SweepConfig:
    command: str
    model: dict = field(default_factory=dict)
    grids: dict = field(default_factory=dict)
    axis: str = None
    branch: str = "plus"
    diffusion: str = "iso"
    fmt: str = "csv"
    out: str = None
    seed: int = 0
    fault: str = None
    ep_gap_tol: float = EP_GAP_TOL

    def param(self, name):
        return float(self.model.get(name, MODEL_DEFAULTS[name]))

    def grid(self, name, default_key=None):
        key = default_key or name
        if name in self.grids:
            return self.grids[name]
        lo, hi, count = GRID_DEFAULTS[key]
        return GridSpec(lo, hi, count)


@dataclass(frozen=True)
class SweepTable:
    columns: tuple
    rows: tuple
    meta: dict

    def column(self, name):
        return np.array([row[self.columns.index(name)] for row in self.rows])

    def select(self, **flags):
        """Rows whose flag columns take the given values."""
        idx = [self.columns.index(k) for k in flags]
        want = list(flags.values())
        return [r for r in self.rows if all(r[i] == w for i, w in zip(idx, want))]


def _diffusion_model(config):
    if config.diffusion == "iso":
        return IsotropicDiffusion()
    if config.diffusion == "aniso":
        return AnisotropicDiffusion(s=config.param("s"))
    if config.diffusion == "drift-aligned":
        return DriftAlignedDiffusion(alpha=config.param("alpha"))
    raise DimensionError(f"unknown diffusion model {config.diffusion!r}")


def _nm_params(config, lam, omega):
    return NmFamilyParams(
        lam=lam,
        omega=omega,
        gamma=config.param("gamma"),
        r_mem=config.param("r_mem"),
        nu=config.param("nu"),
        diffusion=_diffusion_model(config),
        eps_buffer=config.param("eps_buffer"),
    )


def _base_meta(config, **extra):
    meta = {
        "command": config.command,
        "version": __version__,
        "seed": config.seed,
        "format": config.fmt,
        "ep_gap_tol": config.ep_gap_tol,
    }
    for key in sorted(MODEL_DEFAULTS):
        meta[f"param.{key}"] = config.param(key)
    meta.update(extra)
    return meta


def run_drift_eigs(config):
    """Real/imaginary drift eigenvalue branches against detuning, EP rows marked."""
    grid = config.grid("delta")
    kappa, eps = config.param("kappa"), config.param("epsilon")
    r, phi = config.param("r"), config.param("phi")

    def row(delta):
        p = SqueezedReservoirParams(kappa, delta, eps, r, phi)
        lam_minus, lam_plus = squeezed_drift_eigenvalues(p)
        gap = abs(lam_plus - lam_minus)
        return [
            delta,
            lam_plus.real,
            lam_minus.real,
            lam_plus.imag,
            lam_minus.imag,
            gap,
            1.0 if gap < config.ep_gap_tol else 0.0,
        ]

    rows = [row(value) for value in grid.points()]
    return SweepTable(
        columns=("delta", "re_lambda_plus", "re_lambda_minus", "im_lambda_plus",
                 "im_lambda_minus", "gap", "ep"),
        rows=tuple(tuple(r) for r in rows),
        meta=_base_meta(config, grid=grid.as_meta(), axis="delta"),
    )


def run_squeezed_gauge(config, axis, branch):
    """Eigenvalues of the EP-branch gauge covariance along kappa, r, or phi."""
    if axis not in ("kappa", "r", "phi"):
        raise DimensionError("axis must be one of kappa, r, phi")
    branch = EpBranch(branch)
    grid = config.grid(axis)
    base = {name: config.param(name) for name in ("kappa", "epsilon", "r", "phi")}

    def row(value):
        vals = dict(base)
        vals[axis] = value
        p = SqueezedReservoirParams(
            kappa=vals["kappa"], delta=0.0, epsilon=vals["epsilon"], r=vals["r"], phi=vals["phi"]
        )
        cov = squeezed_ep_gauge(p, branch)
        lo, hi = np.linalg.eigvalsh(cov.S)
        return [value, lo, hi, lo + hi, 1.0 if branch is EpBranch.PLUS else -1.0]

    rows = [row(value) for value in grid.points()]
    return SweepTable(
        columns=(axis, "lambda1", "lambda2", "trace", "branch"),
        rows=tuple(tuple(r) for r in rows),
        meta=_base_meta(config, grid=grid.as_meta(), axis=axis, branch=branch.value),
    )


def _nm_point_row(config, lam, omega, on_branch):
    t = config.param("t")
    try:
        channel = nm_channel(_nm_params(config, lam, omega), t)
    except (DegenerateModelError, PhysicalityError):
        # model undefined at this point (B = 0 drift alignment, CP violation)
        return [lam, omega, math.nan, math.nan, math.nan, 0.0, math.nan, 1.0, on_branch]
    report = stability(channel.X, StabilityMode.DISCRETE)
    defective = 1.0 if jordan_structure(channel.X).defective else 0.0
    cp_margin = cp_check(channel, method=CpMethod.DET_CONDITION).margin
    if report.spectral_radius >= 1.0:
        return [lam, omega, math.nan, math.nan, math.nan, defective, cp_margin, 1.0, on_branch]
    s = solve_stein(channel.X, channel.Y).S
    lo, hi = np.linalg.eigvalsh(s)
    return [lam, omega, lo, hi, s[0, 1], defective, cp_margin, 0.0, on_branch]


def run_nm_surface(config):
    """Gauge-covariance eigenvalues over the drift plane with EP overlay rows."""
    lam_grid = config.grid("lam")
    omega_grid = config.grid("omega")
    points = [(lam, omega, 0.0) for lam in lam_grid.points() for omega in omega_grid.points()]
    # exact EP overlay rows lambda = +-omega
    for omega in omega_grid.points():
        points.append((omega, omega, 1.0))
        points.append((-omega, omega, -1.0))

    rows = [_nm_point_row(config, *p) for p in points]
    return SweepTable(
        columns=("lam", "omega", "lambda_min", "lambda_max", "s_qp", "defective",
                 "cp_margin", "unstable", "on_branch"),
        rows=tuple(tuple(r) for r in rows),
        meta=_base_meta(
            config,
            grid=lam_grid.as_meta(),
            grid2=omega_grid.as_meta(),
            diffusion=config.diffusion,
        ),
    )


def run_nm_branch(config):
    """Gauge eigenvalues along the two EP branches lambda = +-omega."""
    grid = config.grid("omega", default_key="branch_omega")
    if grid.lo <= 0.0:
        raise DimensionError("branch sweeps need omega > 0 (B = 0 at omega = 0)")
    t = config.param("t")

    def row(point):
        omega, sign = point
        lam = sign * omega
        params = _nm_params(config, lam, omega)
        channel = nm_channel(params, t)
        s = solve_stein(channel.X, channel.Y).S
        lo, hi = np.linalg.eigvalsh(s)
        return [omega, sign, lo, hi, s[0, 1]]

    points = [(omega, sign) for omega in grid.points() for sign in (1.0, -1.0)]
    rows = [row(p) for p in points]
    return SweepTable(
        columns=("omega", "branch", "lambda1", "lambda2", "s_qp"),
        rows=tuple(tuple(r) for r in rows),
        meta=_base_meta(config, grid=grid.as_meta(), diffusion=config.diffusion),
    )


# ---------------------------------------------------------------------------
# Writers
# ---------------------------------------------------------------------------


def _fmt(value):
    if isinstance(value, float) and math.isnan(value):
        return "nan"
    return f"{value:.17g}"


def write_csv(table, fh):
    for key in sorted(table.meta):
        fh.write(f"# {key} = {table.meta[key]}\n")
    fh.write(",".join(table.columns) + "\n")
    for row in table.rows:
        fh.write(",".join(_fmt(v) for v in row) + "\n")


def write_json(table, fh):
    rows = [[None if (isinstance(v, float) and math.isnan(v)) else v for v in row]
            for row in table.rows]
    payload = {"meta": table.meta, "columns": list(table.columns), "rows": rows}
    json.dump(payload, fh, sort_keys=True, indent=1, allow_nan=False)
    fh.write("\n")


def write_table(table, path, fmt):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        if fmt == "csv":
            write_csv(table, fh)
        elif fmt == "json":
            write_json(table, fh)
        else:
            raise DimensionError(f"unknown output format {fmt!r}")
