"""Parameter sweeps over the model families, emitted as figure-ready tables.

Each command produces a SweepTable: one float array of rows in grid order, a
fixed column list, and a metadata block with the fully resolved configuration
so that a run is reproducible from its own output. Every table is evaluated
in one pass over all its points through array-valued kernels that give the
scalar API's values bit for bit: the squeezed-reservoir closed forms of
`models` for `drift-eigs` and `squeezed-gauge`, the point rule of
`nm_channel` (`models._nm_points`) and the `onemode` kernels for
`nm-surface`, `nm-branch` and the `ep` column of `drift-eigs` (the 2x2
Jordan rule on the squeezed drift). All these kernels are whole-array
numpy code, transcendentals included, and the non-Markovian tables decide
Schur stability by the Jury triple, so their only LAPACK call is the
stacked `eigvalsh` of the Stein solutions. Stable numeric formatting (17
significant digits in CSV, shortest-roundtrip repr in JSON) makes
identical configurations byte-identical.
"""

import itertools
import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .errors import DimensionError, NonFiniteInputError
from .models import (
    GAUGED,
    NOT_SCHUR_STABLE,
    AnisotropicDiffusion,
    DriftAlignedDiffusion,
    EpBranch,
    IsotropicDiffusion,
    NmFamilyParams,
    SqueezedReservoirParams,
    _nm_points,
    _raise_nm_error,
    squeezed_eigenvalue_entries,
    squeezed_ep_entries,
)
from .onemode import jordan2_entries, stein2_entries

# Documented sweep defaults: the strong-drive/weak-damping regime, where the
# sweep trends are clean on the default grids (gauge eigenvalues monotone in
# kappa and r, half-period phase offset between the EP branches).
MODEL_DEFAULTS = {
    "kappa": 0.04,
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

DIFFUSION_CHOICES = ("iso", "aniso", "drift-aligned")

# the computations `verify --fault` sabotages, one suite each (see verify.py)
FAULT_CHOICES = (
    "stein", "lyapunov", "gauge", "jury", "expm2", "one-mode", "ep-closed-form",
    "positivity", "semigroup", "composition", "noise", "jordan", "trends",
)


@dataclass(frozen=True)
class GridSpec:
    lo: float
    hi: float
    count: int

    def __post_init__(self):
        if self.count < 2:
            raise DimensionError("grid count must be >= 2")
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise NonFiniteInputError(f"grid bounds must be finite, got {self.as_meta()}")
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
    axis: str = "kappa"
    branch: str = "plus"
    diffusion: str = "iso"
    fmt: str = "csv"
    out: str = None

    def __post_init__(self):
        # one check for flags and config-file lines alike, before any table is built
        for name, value in self.model.items():
            if not math.isfinite(float(value)):
                raise NonFiniteInputError(f"{name} must be finite, got {value}")
        if self.fmt not in _TEXT:
            raise DimensionError(f"unknown output format {self.fmt!r}")

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
    """A table of float rows; `data` is a read-only (n_rows, n_columns) float
    view of the given rows, which leaves the caller's own array writable."""

    columns: tuple
    data: np.ndarray
    meta: dict

    def __post_init__(self):
        data = np.asarray(self.data, dtype=float).view()
        if data.ndim != 2 or data.shape[1] != len(self.columns):
            raise DimensionError(
                f"table data of shape {data.shape} for {len(self.columns)} columns")
        data.flags.writeable = False
        object.__setattr__(self, "data", data)

    @property
    def rows(self):
        """The rows as tuples of Python floats."""
        return tuple(map(tuple, self.data.tolist()))

    def column(self, name):
        return self.data[:, self.columns.index(name)]

    def select(self, **flags):
        """Rows, as tuples, whose flag columns take the given values."""
        mask = np.ones(len(self.data), dtype=bool)
        for name, value in flags.items():
            mask &= self.column(name) == value
        return list(map(tuple, self.data[mask].tolist()))


def _diffusion_model(config):
    if config.diffusion == "iso":
        return IsotropicDiffusion()
    if config.diffusion == "aniso":
        return AnisotropicDiffusion(s=config.param("s"))
    if config.diffusion == "drift-aligned":
        return DriftAlignedDiffusion(alpha=config.param("alpha"))
    raise DimensionError(f"unknown diffusion model {config.diffusion!r}")


def _base_meta(config, **extra):
    meta = {
        "command": config.command,
        "version": __version__,
        "format": config.fmt,
    }
    for key in sorted(MODEL_DEFAULTS):
        meta[f"param.{key}"] = config.param(key)
    meta.update(extra)
    return meta


def run_drift_eigs(config):
    """Real/imaginary drift eigenvalue branches against detuning, EP rows marked.

    `ep` is the 2x2 Jordan rule of `jordan_structure` on the drift
    [[-kappa/2, delta - eps], [-(delta + eps), -kappa/2]] of
    `squeezed_generator`, entry for entry.
    """
    grid = config.grid("delta")
    kappa, eps = config.param("kappa"), config.param("epsilon")
    r, phi = config.param("r"), config.param("phi")
    SqueezedReservoirParams(kappa, grid.lo, eps, r, phi)  # delta is unchecked: one row checks all
    delta = grid.points()
    lam_minus, lam_plus = squeezed_eigenvalue_entries(kappa, delta, eps)
    ep = jordan2_entries(-0.5 * kappa, delta - eps, -(delta + eps), -0.5 * kappa)[3]
    return SweepTable(
        columns=("delta", "re_lambda_plus", "re_lambda_minus", "im_lambda_plus",
                 "im_lambda_minus", "gap", "ep"),
        data=np.column_stack([delta, lam_plus.real, lam_minus.real, lam_plus.imag,
                              lam_minus.imag, np.abs(lam_plus - lam_minus), ep]),
        meta=_base_meta(config, grid=grid.as_meta(), axis="delta"),
    )


def run_squeezed_gauge(config):
    """Eigenvalues of the EP-branch gauge covariance along kappa, r, or phi."""
    axis = config.axis
    if axis not in ("kappa", "r", "phi"):
        raise DimensionError("axis must be one of kappa, r, phi")
    branch = EpBranch(config.branch)
    grid = config.grid(axis)
    values = {name: config.param(name) for name in ("kappa", "epsilon", "r", "phi")}
    points = values[axis] = grid.points()
    # the grid ascends, so its first row holds every minimum and fails first
    SqueezedReservoirParams(delta=0.0, **{name: np.min(v) for name, v in values.items()})
    entries = squeezed_ep_entries(**values, branch=branch)
    s_qq, s_qp, s_pp = np.broadcast_arrays(*entries, points)[:3]
    lo, hi = np.linalg.eigvalsh(_stack2(s_qq, s_qp, s_qp, s_pp)).T
    sign = 1.0 if branch is EpBranch.PLUS else -1.0
    return SweepTable(
        columns=(axis, "lambda1", "lambda2", "trace", "branch"),
        data=np.column_stack([points, lo, hi, lo + hi, np.full(points.shape, sign)]),
        meta=_base_meta(config, grid=grid.as_meta(), axis=axis, branch=branch.value),
    )


def _nm_setup(config):
    """The family parameters and time of a non-Markovian table, the parameters
    validated once; every point of the table passes its own (lam, omega)."""
    params = NmFamilyParams(
        gamma=config.param("gamma"),
        r_mem=config.param("r_mem"),
        nu=config.param("nu"),
        diffusion=_diffusion_model(config),
        eps_buffer=config.param("eps_buffer"),
    )
    return params, config.param("t")


def _stack2(m11, m12, m21, m22):
    """The (n, 2, 2) stack of matrices with the given 1-D entry arrays; `_entries2` undone."""
    return np.stack([m11, m12, m21, m22], axis=-1).reshape(-1, 2, 2)


def _nm_rows(params, t, lam, omega):
    """The columns lambda_min, lambda_max, s_qp and defective, and the CP
    margin and status code of `models._nm_points`, at all points of a table
    (1-D arrays lam and omega). Rows not gauged carry NaN values, rows whose
    channel is undefined (neither GAUGED nor NOT_SCHUR_STABLE) defective 0.
    One stacked `eigvalsh` reduces the Stein solutions.
    """
    x, y, margin, status = _nm_points(params, t, lam, omega)
    gauged = status == GAUGED
    values = np.full((lam.size, 3), math.nan)
    if gauged.any():
        s11, s12, s22 = stein2_entries(*(v[gauged] for v in x), *(v[gauged] for v in y))
        values[gauged, :2] = np.linalg.eigvalsh(_stack2(s11, s12, s12, s22))
        values[gauged, 2] = s12
    defined = gauged | (status == NOT_SCHUR_STABLE)
    defective = np.zeros(lam.shape, dtype=bool)
    defective[defined] = jordan2_entries(*(v[defined] for v in x))[3]
    return (*values.T, defective.astype(float), margin, status)


def run_nm_surface(config):
    """Gauge-covariance eigenvalues over the drift plane with EP overlay rows."""
    lam_grid = config.grid("lam")
    omega_grid = config.grid("omega")
    params, t = _nm_setup(config)
    lam_axis, omega_axis = lam_grid.points(), omega_grid.points()
    # the grid rows lambda-major, then the exact EP overlay rows lambda = +-omega
    # in pairs per omega
    lam = np.concatenate([np.repeat(lam_axis, omega_axis.size),
                          np.column_stack([omega_axis, -omega_axis]).ravel()])
    omega = np.concatenate([np.tile(omega_axis, lam_axis.size), np.repeat(omega_axis, 2)])
    on_branch = np.concatenate([np.zeros(lam_axis.size * omega_axis.size),
                                np.tile([1.0, -1.0], omega_axis.size)])
    *values, margin, status = _nm_rows(params, t, lam, omega)
    # the margin of a row whose channel is defined
    margin[(status != GAUGED) & (status != NOT_SCHUR_STABLE)] = math.nan
    return SweepTable(
        columns=("lam", "omega", "lambda_min", "lambda_max", "s_qp", "defective",
                 "cp_margin", "unstable", "on_branch"),
        data=np.column_stack([lam, omega, *values, margin, status != GAUGED, on_branch]),
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
    params, t = _nm_setup(config)
    omega = np.repeat(grid.points(), 2)
    branch = np.tile([1.0, -1.0], grid.count)
    lam = branch * omega
    lo, hi, s_qp, _, margin, status = _nm_rows(params, t, lam, omega)
    # the error nm_channel, then solve_stein, raises at the first flagged row
    i = int(np.argmax(status != GAUGED))
    if status[i] != GAUGED:
        _raise_nm_error(status[i], params, t, margin[i])
    return SweepTable(
        columns=("omega", "branch", "lambda1", "lambda2", "s_qp"),
        data=np.column_stack([omega, branch, lo, hi, s_qp]),
        meta=_base_meta(config, grid=grid.as_meta(), diffusion=config.diffusion),
    )


# ---------------------------------------------------------------------------
# Writers
# ---------------------------------------------------------------------------

# CSV writes 17 significant digits; JSON writes float.__repr__, as `json` does
_CSV = "%.17g".__mod__


def _column_text(column, fmt, nan, end=""):
    """Strings fmt(v) + end, or nan + end for a NaN, for the values v of a float column.

    Each distinct bit pattern is formatted once. Bit patterns, not values,
    are the keys: -0.0 and 0.0 print differently.
    """
    bits, index = np.unique(column.view(np.int64), return_inverse=True)
    values = bits.view(np.float64)
    text = np.array(list(map(fmt, values.tolist())), dtype=object)
    text[np.isnan(values)] = nan
    return (text + end)[index].tolist()


def _csv_text(table):
    """The CSV text as an iterable of strings; every value is formatted
    before it returns, only the joining into lines is left to the writer."""
    head = [f"# {key} = {table.meta[key]}\n" for key in sorted(table.meta)]
    head.append(",".join(table.columns) + "\n")
    *first, last = table.data.T
    # the strings of the last column carry the line ends
    columns = [_column_text(c, _CSV, "nan") for c in first] + [_column_text(last, _CSV, "nan", "\n")]
    return itertools.chain(head, map(",".join, zip(*columns)))


def _json_text(table):
    """The text of `json.dump` with sort_keys=True, indent=1, allow_nan=False,
    as an iterable of strings.

    `json` lays out the small columns/meta head; the rows block is laid out
    here from per-column strings. An infinite value, in the meta or the rows,
    raises json's ValueError before it returns.
    """
    head = json.dumps({"columns": list(table.columns), "meta": table.meta},
                      sort_keys=True, indent=1, allow_nan=False)
    inf = np.isinf(table.data)
    if inf.any():  # the first in row order, as json.dump meets it
        value = float(table.data.flat[np.argmax(inf)])
        raise ValueError(f"Out of range float values are not JSON compliant: {value!r}")
    # head ends in the object's closing "\n}"; rows go on one indent level deeper
    head = head[:-2] + ',\n "rows": ['
    if not len(table.data):
        return [head, "]\n}\n"]
    *first, last = table.data.T
    columns = ([_column_text(c, float.__repr__, "null", ",\n   ") for c in first]
               + [_column_text(last, float.__repr__, "null", "\n  ]")])
    starts = itertools.chain(["\n  [\n   "], itertools.repeat(",\n  [\n   "))
    return itertools.chain([head], map("".join, zip(starts, *columns)), ["\n ]\n}\n"])


_TEXT = {"csv": _csv_text, "json": _json_text}


def write_table(table, path, fmt):
    """Write the table to `path` as CSV or JSON. Every value is formatted,
    and a table the format cannot hold rejected, before the file is opened,
    so a rejected table leaves an existing file as it was and creates none."""
    if fmt not in _TEXT:
        raise DimensionError(f"unknown output format {fmt!r}")
    text = _TEXT[fmt](table)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(text)
