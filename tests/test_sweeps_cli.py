import json
import math
import re
import subprocess
import sys

import numpy as np
import numpy.testing as npt
import pytest

from gaussgauge import (
    EpBranch,
    NmFamilyParams,
    memory_factor,
    nm_ep_gauge,
    solve_stein,
    squeezed_ep_gauge,
    SqueezedReservoirParams,
)
from gaussgauge.cli import main
from gaussgauge.sweeps import (
    SweepConfig,
    run_drift_eigs,
    run_nm_branch,
    run_nm_surface,
    run_squeezed_gauge,
)
from gaussgauge.verify import FAULT_CHOICES


def cfg(command, **kwargs):
    return SweepConfig(command=command, **kwargs)


def test_grid_spec_validation():
    from gaussgauge import DimensionError, NonFiniteInputError
    from gaussgauge.sweeps import GridSpec

    with pytest.raises(DimensionError):
        GridSpec(0.0, 1.0, 1)  # count < 2
    with pytest.raises(DimensionError):
        GridSpec(2.0, 1.0, 5)  # lo >= hi
    for lo, hi in ((0.0, math.inf), (-math.inf, 1.0), (math.nan, 1.0)):
        with pytest.raises(NonFiniteInputError):
            GridSpec(lo, hi, 3)


@pytest.mark.parametrize(
    "config, message",
    [(dict(command="bogus"),
      "command must be one of drift-eigs, squeezed-gauge, nm-surface, nm-branch"),
     (dict(command="verify"), "command must be one of "),
     (dict(command="drift-eigs", grids={"kappa": (0.0, 1.0, 3)}),
      "grid axis 'kappa' is not one of delta"),
     (dict(command="nm-branch", grids={"lam": (0.0, 1.0, 3)}),
      "grid axis 'lam' is not one of omega"),
     (dict(command="squeezed-gauge", grids={"delta": (0.0, 1.0, 3)}),
      "grid axis 'delta' is not one of kappa, r, phi")],
    ids=["bogus", "verify", "drift-eigs-kappa", "nm-branch-lam", "squeezed-gauge-delta"],
)
def test_config_outside_the_sweep_table_rejected(config, message):
    from gaussgauge import DimensionError

    with pytest.raises(DimensionError, match=f"^{re.escape(message)}"):
        SweepConfig(**config)


@pytest.mark.parametrize(
    "run, command",
    [(run_drift_eigs, "squeezed-gauge"),
     (run_squeezed_gauge, "drift-eigs"),
     (run_nm_surface, "nm-branch"),
     (run_nm_branch, "nm-surface"),
     (run_nm_branch, "drift-eigs")],
)
def test_config_of_another_command_not_run(run, command):
    # a run_* given another command's config used to build its own table
    # under the other command's name in the meta
    from gaussgauge import DimensionError

    with pytest.raises(DimensionError, match=f"cannot run a {command} config"):
        run(cfg(command))


class TestDriftEigs:
    def test_real_parts_and_ep_markers(self):
        table = run_drift_eigs(
            cfg("drift-eigs", model={"kappa": 2.0, "epsilon": 1.0})
        )
        delta = table.column("delta")
        re_plus = table.column("re_lambda_plus")
        re_minus = table.column("re_lambda_minus")
        outside = np.abs(delta) >= 1.0
        npt.assert_allclose(re_plus[outside], -1.0, atol=1e-12)
        npt.assert_allclose(re_minus[outside], -1.0, atol=1e-12)
        inside = ~outside
        npt.assert_allclose(
            re_plus[inside], -1.0 + np.sqrt(1.0 - delta[inside] ** 2), atol=1e-12
        )
        ep_rows = table.column("ep").astype(bool)
        npt.assert_array_equal(delta[ep_rows], [-1.0, 1.0])

    def test_ep_rows_an_ulp_off_the_branch(self):
        # on this grid linspace lands delta one ulp off +-1, where the
        # eigenvalue gap is already ~3e-8: a gap threshold of 1e-8 would miss
        # these rows, the distance to a double eigenvalue does not
        from gaussgauge.sweeps import GridSpec

        table = run_drift_eigs(cfg("drift-eigs", grids={"delta": GridSpec(-1.7, 1.3, 31)}))
        delta = table.column("delta")
        ep_rows = table.column("ep").astype(bool)
        npt.assert_allclose(delta[ep_rows], [-1.0, 1.0], rtol=0, atol=1e-15)
        assert np.all(table.column("gap")[ep_rows] > 1e-8)

    @pytest.mark.parametrize("epsilon", [0.0, 1e-9, 1e-7])
    def test_no_ep_without_a_double_eigenvalue(self, epsilon):
        # at delta = 0 the drift is -kappa/2 I (epsilon = 0) or has the
        # distinct eigenvalues -kappa/2 +- epsilon: no row is an EP
        table = run_drift_eigs(cfg("drift-eigs", model={"epsilon": epsilon}))
        assert 0.0 in table.column("delta")
        assert not table.column("ep").any()

    def test_pure_rotation_gap_from_imaginary_parts(self):
        table = run_drift_eigs(cfg("drift-eigs", model={"kappa": 2.0, "epsilon": 0.0}))
        npt.assert_allclose(table.column("re_lambda_plus"), -1.0, atol=1e-14)
        npt.assert_allclose(table.column("re_lambda_minus"), -1.0, atol=1e-14)
        npt.assert_allclose(table.column("gap"), 2.0 * np.abs(table.column("delta")), atol=1e-12)


class TestSqueezedGaugeSweep:
    def test_unsqueezed_closed_form_along_kappa(self):
        config = cfg("squeezed-gauge", model={"epsilon": 1.0, "r": 0.0})
        table = run_squeezed_gauge(config)
        kappa = table.column("kappa")
        lam2 = table.column("lambda2")
        # S = [[1/2, -eps/kappa], [-eps/kappa, 1/2 + 4 eps^2/kappa^2]]
        for k, observed in zip(kappa, lam2):
            s = np.array([[0.5, -1.0 / k], [-1.0 / k, 0.5 + 4.0 / k**2]])
            assert observed == pytest.approx(np.linalg.eigvalsh(s)[1], abs=1e-12)
        assert np.all(np.diff(lam2) < 0)

    def test_rows_revalidate_against_library(self):
        config = cfg("squeezed-gauge", axis="r", branch="minus")
        table = run_squeezed_gauge(config)
        for row in table.rows[::17]:
            value = row[table.columns.index("r")]
            p = SqueezedReservoirParams(
                kappa=config.param("kappa"),
                delta=-config.param("epsilon"),  # the minus branch
                epsilon=config.param("epsilon"),
                r=value,
                phi=config.param("phi"),
            )
            lo, hi = np.linalg.eigvalsh(squeezed_ep_gauge(p).S)
            assert row[table.columns.index("lambda1")] == pytest.approx(lo, abs=1e-13)
            assert row[table.columns.index("lambda2")] == pytest.approx(hi, abs=1e-13)

    def test_monotone_trends_on_default_grids(self):
        for branch in ("plus", "minus"):
            kappa_table = run_squeezed_gauge(cfg("squeezed-gauge", branch=branch))
            for col in ("lambda1", "lambda2"):
                assert np.all(np.diff(kappa_table.column(col)) <= 1e-12)
            r_table = run_squeezed_gauge(cfg("squeezed-gauge", axis="r", branch=branch))
            for col in ("lambda1", "lambda2"):
                assert np.all(np.diff(r_table.column(col)) >= -1e-12)

    def test_phi_argmax_offset_is_pi(self):
        tables = {
            branch: run_squeezed_gauge(cfg("squeezed-gauge", axis="phi", branch=branch))
            for branch in ("plus", "minus")
        }
        args = {}
        for branch, table in tables.items():
            phi = table.column("phi")
            args[branch] = phi[int(np.argmax(table.column("lambda2")))]
        step = 2.0 * math.pi / 100
        offset = abs(args["plus"] - args["minus"])
        offset = min(offset, 2.0 * math.pi - offset)
        assert abs(offset - math.pi) <= 0.5 * step


class TestNmSurface:
    def test_branch_overlay_rows_match_jordan_closed_form(self):
        table = run_nm_surface(cfg("nm-surface", diffusion="aniso"))
        on_plus = table.select(on_branch=1.0, unstable=0.0)
        assert on_plus
        checked = 0
        for row in on_plus:
            omega = row[table.columns.index("omega")]
            if abs(omega) < 1e-9:
                continue
            params = NmFamilyParams(diffusion=_aniso_default())
            closed = nm_ep_gauge(params, 1.0, omega, EpBranch.PLUS)
            lo, hi = np.linalg.eigvalsh(closed.S)
            assert row[table.columns.index("lambda_min")] == pytest.approx(lo, abs=1e-10)
            assert row[table.columns.index("lambda_max")] == pytest.approx(hi, abs=1e-10)
            assert row[table.columns.index("defective")] == 1.0
            checked += 1
        assert checked >= 10

    def test_origin_point_scalar_stein(self):
        table = run_nm_surface(cfg("nm-surface"))
        rows = [
            r
            for r in table.select(on_branch=0.0)
            if r[0] == 0.0 and r[1] == 0.0
        ]
        assert len(rows) == 1
        params = NmFamilyParams()
        kt = memory_factor(params, 1.0)
        y = 0.5 * abs(1.0 - kt * kt) + params.eps_buffer
        expected = y / (1.0 - kt * kt)
        assert rows[0][table.columns.index("lambda_min")] == pytest.approx(expected, abs=1e-12)
        assert rows[0][table.columns.index("lambda_max")] == pytest.approx(expected, abs=1e-12)

    def test_unstable_rows_flagged_with_nan(self):
        table = run_nm_surface(cfg("nm-surface"))
        unstable = table.select(unstable=1.0)
        assert unstable  # large |lambda| corner of the default grid
        for row in unstable:
            assert math.isnan(row[table.columns.index("lambda_min")])
        for row in table.select(unstable=0.0):
            assert not math.isnan(row[table.columns.index("lambda_min")])

    def test_drift_aligned_mirror_flips_orientation_only(self):
        table = run_nm_surface(cfg("nm-surface", diffusion="drift-aligned"))
        idx_lam = table.columns.index("lam")
        idx_omega = table.columns.index("omega")
        by_point = {
            (row[idx_lam], row[idx_omega]): row
            for row in table.select(on_branch=0.0, unstable=0.0)
        }
        compared = 0
        for (lam, omega), row in by_point.items():
            if lam <= 0.0 or lam == 0.0 or omega == 0.0:
                continue
            mirror = by_point.get((-lam, omega))
            if mirror is None or math.isnan(mirror[table.columns.index("lambda_min")]):
                continue
            for col in ("lambda_min", "lambda_max"):
                assert row[table.columns.index(col)] == pytest.approx(
                    mirror[table.columns.index(col)], abs=1e-10
                )
            s_qp = row[table.columns.index("s_qp")]
            if abs(s_qp) > 1e-8:
                assert s_qp * mirror[table.columns.index("s_qp")] < 0
                compared += 1
        assert compared >= 20


def _aniso_default():
    from gaussgauge import AnisotropicDiffusion

    return AnisotropicDiffusion(s=0.5)


class TestNmBranch:
    def test_isotropic_branches_identical(self):
        table = run_nm_branch(cfg("nm-branch", diffusion="iso"))
        plus = np.array(table.select(branch=1.0))
        minus = np.array(table.select(branch=-1.0))
        idx = [table.columns.index(c) for c in ("lambda1", "lambda2")]
        assert np.abs(plus[:, idx] - minus[:, idx]).max() <= 1e-12

    def test_anisotropic_branches_displaced(self):
        table = run_nm_branch(cfg("nm-branch", diffusion="aniso"))
        plus = np.array(table.select(branch=1.0))
        minus = np.array(table.select(branch=-1.0))
        idx = [table.columns.index(c) for c in ("lambda1", "lambda2")]
        assert np.abs(plus[:, idx] - minus[:, idx]).max() > 1e-3

    def test_drift_aligned_spectrum_symmetric_orientation_flipped(self):
        table = run_nm_branch(cfg("nm-branch", diffusion="drift-aligned"))
        plus = np.array(table.select(branch=1.0))
        minus = np.array(table.select(branch=-1.0))
        idx = [table.columns.index(c) for c in ("lambda1", "lambda2")]
        assert np.abs(plus[:, idx] - minus[:, idx]).max() <= 1e-12
        qp = table.columns.index("s_qp")
        assert np.all(plus[:, qp] * minus[:, qp] < 0)
        assert np.abs(plus[:, qp]).min() > 1e-6

    def test_rows_revalidate(self):
        table = run_nm_branch(cfg("nm-branch", diffusion="iso"))
        from gaussgauge import nm_channel

        for row in table.rows[::13]:
            omega = row[table.columns.index("omega")]
            sign = row[table.columns.index("branch")]
            ch = nm_channel(NmFamilyParams(), 1.0, sign * omega, omega)
            s = solve_stein(ch.X, ch.Y).S
            lo, hi = np.linalg.eigvalsh(s)
            assert row[table.columns.index("lambda1")] == pytest.approx(lo, abs=1e-12)
            assert row[table.columns.index("lambda2")] == pytest.approx(hi, abs=1e-12)


class TestCli:
    def run_cli(self, args):
        return main(list(args))

    def test_csv_output_and_determinism(self, tmp_path):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        argv = ["drift-eigs", "--grid=-1:1:21", "--kappa", "2.0"]
        assert self.run_cli(argv + ["--out", str(out1)]) == 0
        assert self.run_cli(argv + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        text = out1.read_text()
        assert text.startswith("# ")
        header = [l for l in text.splitlines() if not l.startswith("#")][0]
        assert header.split(",")[0] == "delta"

    def test_json_output_structure(self, tmp_path):
        out = tmp_path / "t.json"
        assert (
            self.run_cli(
                ["nm-branch", "--diffusion", "iso", "--format", "json", "--out", str(out),
                 "--grid", "0.2:1.0:5"]
            )
            == 0
        )
        payload = json.loads(out.read_text())
        assert set(payload) == {"meta", "columns", "rows"}
        assert payload["meta"]["command"] == "nm-branch"
        assert all(len(r) == len(payload["columns"]) for r in payload["rows"])

    def test_json_nan_becomes_null(self, tmp_path):
        out = tmp_path / "s.json"
        assert (
            self.run_cli(
                ["nm-surface", "--grid=-1.5:1.5:7", "--grid2=-1.5:1.5:7",
                 "--format", "json", "--out", str(out)]
            )
            == 0
        )
        payload = json.loads(out.read_text())
        flat = [v for row in payload["rows"] for v in row]
        assert any(v is None for v in flat)

    @pytest.mark.filterwarnings("error")
    def test_overflowing_exponential_rows_flagged(self, tmp_path):
        # at |lam| = 800, sqrt(lam^2 - omega^2) t passes the float range of cosh
        out = tmp_path / "far.csv"
        argv = ["nm-surface", "--grid=-800:800:3", "--grid2=-1:1:3", "--out", str(out)]
        assert self.run_cli(argv) == 0
        lines = [l.split(",") for l in out.read_text().splitlines() if not l.startswith("#")]
        header, rows = lines[0], lines[1:]
        assert len(rows) == 9 + 6
        far = [dict(zip(header, row)) for row in rows if abs(float(row[0])) == 800.0]
        assert len(far) == 6
        for row in far:
            values = [row[c] for c in ("lambda_min", "lambda_max", "s_qp", "cp_margin")]
            assert values == ["nan"] * 4
            assert (row["defective"], row["unstable"]) == ("0", "1")
        near = [dict(zip(header, row)) for row in rows if abs(float(row[0])) != 800.0]
        assert all(row["unstable"] == "0" for row in near)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_cp_products_rows_flagged(self, tmp_path):
        # at |lam| = 705, omega = +-1, exp(t B) is finite near 1e306 but the
        # CP products overflow: NaN margin, unstable row, no numpy warning.
        # At omega = 0, exp(t B) = diag(e^705, e^-705) keeps its small entry,
        # so det X = kappa(t)^2 and the margin is the B = 0 row's; its
        # discriminant overflows, and the diagonal X is still not defective
        out = tmp_path / "edge.csv"
        argv = ["nm-surface", "--grid=-705:705:3", "--grid2=-1:1:3", "--out", str(out)]
        assert self.run_cli(argv) == 0
        lines = [l.split(",") for l in out.read_text().splitlines() if not l.startswith("#")]
        header, rows = lines[0], [dict(zip(lines[0], row)) for row in lines[1:]]
        far = [row for row in rows if abs(float(row["lam"])) == 705.0]
        origin = next(row for row in rows if row["lam"] == row["omega"] == "0")
        assert len(far) == 6
        for row in far:
            margin = origin["cp_margin"] if row["omega"] == "0" else "nan"
            assert (row["cp_margin"], row["defective"], row["unstable"]) == (margin, "0", "1")
        assert all(row["unstable"] == "0" for row in rows if abs(float(row["lam"])) != 705.0)

    @pytest.mark.parametrize(
        "flags, message",
        [(["--nu", "0"], "memory frequency nu must be nonzero"),
         (["--gamma", "-1", "--nu", "-1", "--r-mem", "0.5"],
          "memory decay rate gamma must be positive")],
    )
    @pytest.mark.parametrize("command", ["nm-branch", "nm-surface"])
    def test_memory_parameters_rejected(self, command, flags, message, capsys):
        # nu = 0 used to end in a ZeroDivisionError traceback, gamma = nu = -1
        # in a StabilityError from kappa(t) > 1
        capsys.readouterr()
        assert self.run_cli([command, *flags]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def assert_rejected_before_writing(self, argv, tmp_path, capsys, message):
        """Exit 2 with `message` on stderr, nothing on stdout, no --out file."""
        out = tmp_path / "o.csv"
        for extra in ([], ["--out", str(out)]):
            capsys.readouterr()
            assert self.run_cli([*argv, *extra]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith(f"error: {message}")
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, key",
        [("nm-branch --t inf", "t"),
         ("nm-branch --gamma inf", "gamma"),
         ("nm-branch --alpha nan", "alpha"),
         ("drift-eigs --kappa inf", "kappa")],
    )
    def test_non_finite_flags_rejected(self, argv, key, tmp_path, capsys):
        self.assert_rejected_before_writing(
            argv.split(), tmp_path, capsys, f"{key} must be finite")

    @pytest.mark.parametrize("command", ["nm-branch", "nm-surface"])
    def test_diffusion_exponent_beyond_float_range_rejected(self, command, tmp_path, capsys):
        # e^710 overflows math.exp: that used to end in a raw OverflowError
        self.assert_rejected_before_writing(
            [command, "--diffusion", "aniso", "--s", "710"], tmp_path, capsys,
            "e^s leaves the float range at s = 710.0")
        out = tmp_path / "t.csv"
        assert self.run_cli([command, "--diffusion", "aniso", "--s", "700", "--out", str(out)]) == 0

    @pytest.mark.parametrize(
        "command, line, message",
        [("nm-branch", "gamma = inf", "gamma must be finite"),
         ("drift-eigs", "grid.delta = 0:inf:3", "grid bounds must be finite")],
    )
    def test_non_finite_config_lines_rejected(self, command, line, message, tmp_path, capsys):
        config = tmp_path / "sweep.cfg"
        config.write_text(line + "\n")
        self.assert_rejected_before_writing(
            [command, "--config", str(config)], tmp_path, capsys, message)

    def test_non_finite_grid_flag_rejected(self, capsys):
        with pytest.raises(SystemExit) as err:
            self.run_cli(["drift-eigs", "--grid=0:inf:3"])
        assert err.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "grid bounds must be finite" in captured.err

    def test_config_file_and_precedence(self, tmp_path):
        config = tmp_path / "sweep.cfg"
        config.write_text(
            "kappa = 3.0\nepsilon = 1.0\ngrid.delta = -1:1:5\nformat = csv\n"
        )
        out = tmp_path / "o.csv"
        assert (
            self.run_cli(
                ["drift-eigs", "--config", str(config), "--kappa", "2.0", "--out", str(out)]
            )
            == 0
        )
        text = out.read_text()
        assert "# param.kappa = 2.0" in text  # CLI beats config file
        assert "# grid = -1.0:1.0:5" in text  # grid from config file

    @pytest.mark.parametrize(
        "command, key, default, config_value, flag_value",
        [("squeezed-gauge", "axis", "kappa", "r", "phi"),
         ("squeezed-gauge", "branch", "plus", "minus", "plus"),
         ("nm-branch", "diffusion", "iso", "aniso", "drift-aligned")],
    )
    def test_setting_precedence(self, command, key, default, config_value, flag_value, tmp_path):
        # the config file beats the default, a flag beats the config file;
        # --grid follows the axis wherever it came from
        config = tmp_path / "sweep.cfg"
        config.write_text(f"{key} = {config_value}\n")
        out = tmp_path / "t.csv"
        for extra, want in (([], default),
                            (["--config", str(config)], config_value),
                            (["--config", str(config), f"--{key}", flag_value], flag_value)):
            assert self.run_cli([command, "--grid=0.5:1:3", *extra, "--out", str(out)]) == 0
            text = out.read_text()
            assert f"# {key} = {want}\n" in text
            assert "# grid = 0.5:1.0:3\n" in text

    @pytest.mark.parametrize(
        "command, key, value",
        [("drift-eigs", "axis", "r"),
         ("drift-eigs", "branch", "minus"),
         ("drift-eigs", "diffusion", "aniso"),
         ("nm-surface", "axis", "r"),
         ("nm-branch", "branch", "minus"),
         ("squeezed-gauge", "diffusion", "aniso"),
         ("verify", "diffusion", "aniso"),
         ("verify", "kappa", "3"),
         ("verify", "grid.kappa", "0:1:3"),
         ("verify", "format", "json"),
         ("nm-branch", "grid.lamda", "0:1:3"),
         ("nm-branch", "grid.lam", "0:1:3"),
         ("nm-surface", "grid.delta", "0:1:3"),
         ("drift-eigs", "grid.kappa", "0:1:3"),
         ("squeezed-gauge", "grid.omega", "0:1:3"),
         ("drift-eigs", "fmt", "json")],
    )
    def test_setting_of_another_command_rejected(self, command, key, value, tmp_path, capsys):
        # a config key that the command does not read is an unknown key, not
        # a line that is dropped without a trace
        config = tmp_path / "other.cfg"
        config.write_text(f"{key} = {value}\n")
        self.assert_rejected_before_writing(
            [command, "--config", str(config)], tmp_path, capsys,
            f"unknown config key '{key}'")

    @pytest.mark.parametrize(
        "command, lines, meta",
        [("drift-eigs", "grid.delta = -1:1:3", "# grid = -1.0:1.0:3\n"),
         ("squeezed-gauge", "axis = phi\ngrid.phi = 0:1:3", "# grid = 0.0:1.0:3\n"),
         ("nm-surface", "grid.lam = -1:1:3\ngrid.omega = 0:1:3", "# grid2 = 0.0:1.0:3\n"),
         ("nm-branch", "grid.omega = 0.5:1:3", "# grid = 0.5:1.0:3\n")],
    )
    def test_grid_keys_of_the_command_accepted(self, command, lines, meta, tmp_path):
        config = tmp_path / "grid.cfg"
        config.write_text(lines + "\n")
        out = tmp_path / "t.csv"
        assert self.run_cli([command, "--config", str(config), "--out", str(out)]) == 0
        assert meta in out.read_text()

    def test_unknown_format_rejected(self, tmp_path, capsys):
        from gaussgauge import DimensionError

        with pytest.raises(DimensionError, match="unknown output format 'xml'"):
            cfg("drift-eigs", fmt="xml")
        config = tmp_path / "sweep.cfg"
        config.write_text("format = xml\n")
        self.assert_rejected_before_writing(
            ["drift-eigs", "--config", str(config)], tmp_path, capsys,
            "unknown output format 'xml'")

    @pytest.mark.parametrize(
        "command, key, message",
        [("squeezed-gauge", "axis", "axis must be one of kappa, r, phi"),
         ("squeezed-gauge", "branch", "branch must be one of plus, minus"),
         ("nm-surface", "diffusion", "diffusion must be one of iso, aniso, drift-aligned"),
         ("nm-branch", "diffusion", "diffusion must be one of iso, aniso, drift-aligned")],
        ids=["axis", "branch", "nm-surface-diffusion", "nm-branch-diffusion"],
    )
    def test_setting_outside_its_choices_rejected(self, command, key, message, tmp_path, capsys):
        # one message form from the library and the config file alike; a bad
        # branch used to read "'foo' is not a valid EpBranch", a bad diffusion
        # "unknown diffusion model 'foo'"
        from gaussgauge import DimensionError

        with pytest.raises(DimensionError, match=f"^{message}$"):
            cfg(command, **{key: "foo"})
        config = tmp_path / "sweep.cfg"
        config.write_text(f"{key} = foo\n")
        self.assert_rejected_before_writing(
            [command, "--config", str(config)], tmp_path, capsys, f"{message}\n")

    def test_invalid_config_exit_code(self, tmp_path):
        config = tmp_path / "bad.cfg"
        config.write_text("unknown_key = 1\n")
        assert self.run_cli(["drift-eigs", "--config", str(config)]) == 2
        config.write_text("kappa == oops\n")
        assert self.run_cli(["drift-eigs", "--config", str(config)]) == 2
        # a bad grid line is invalid configuration, like a bad --grid flag
        config.write_text("grid.delta = 1:0:3\n")
        assert self.run_cli(["drift-eigs", "--config", str(config)]) == 2

    def test_bad_flag_usage_exits_two(self):
        with pytest.raises(SystemExit) as err:
            self.run_cli(["squeezed-gauge", "--axis", "bogus"])
        assert err.value.code == 2

    def test_console_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "gaussgauge.cli", "drift-eigs", "--grid=-1:1:3"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "re_lambda_plus" in proc.stdout

    def test_package_entry_point(self):
        proc = subprocess.run([sys.executable, "-m", "gaussgauge", "--help"],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stdout.startswith("usage: gaussgauge ")

    def test_jobs_option_rejected(self, tmp_path, capsys):
        # rows run serially; neither the --jobs flag nor a jobs key exists
        with pytest.raises(SystemExit) as err:
            self.run_cli(["nm-surface", "--jobs", "4"])
        assert err.value.code == 2
        config = tmp_path / "jobs.cfg"
        config.write_text("jobs = 4\n")
        capsys.readouterr()
        assert self.run_cli(["nm-surface", "--config", str(config)]) == 2
        assert "unknown config key 'jobs'" in capsys.readouterr().err

    def test_delta_is_a_grid_only(self, tmp_path, capsys):
        # drift-eigs sweeps delta through its grid; no command reads a delta
        # model parameter, so neither the flag nor the key exists, and no
        # table carries a param.delta line
        with pytest.raises(SystemExit) as err:
            self.run_cli(["drift-eigs", "--delta", "5", "--grid=-1:1:3"])
        assert err.value.code == 2
        config = tmp_path / "delta.cfg"
        config.write_text("delta = 5\n")
        capsys.readouterr()
        assert self.run_cli(["drift-eigs", "--config", str(config)]) == 2
        assert "unknown config key 'delta'" in capsys.readouterr().err
        config.write_text("grid.delta = -1:1:3\n")
        out = tmp_path / "t.csv"
        assert self.run_cli(["drift-eigs", "--config", str(config), "--out", str(out)]) == 0
        text = out.read_text()
        assert "# grid = -1.0:1.0:3" in text and "param.delta" not in text

    def test_seed_and_fault_are_verify_only(self, tmp_path, capsys):
        # no sweep draws a random number: no --seed flag, no seed or fault
        # key, no seed line in the table
        with pytest.raises(SystemExit) as err:
            self.run_cli(["drift-eigs", "--seed", "42"])
        assert err.value.code == 2
        config = tmp_path / "sweep.cfg"
        for key in ("seed", "fault"):
            config.write_text(f"{key} = 1\n")
            capsys.readouterr()
            assert self.run_cli(["drift-eigs", "--config", str(config)]) == 2
            assert f"unknown config key '{key}'" in capsys.readouterr().err
        out = tmp_path / "t.csv"
        assert self.run_cli(["drift-eigs", "--grid=-1:1:3", "--out", str(out)]) == 0
        assert "seed" not in out.read_text()
        config.write_text("seed = 3\nfault = stein\n")
        assert self.run_cli(["verify", "--config", str(config), "--out", str(out)]) == 1
        report = json.loads(out.read_text())
        assert report["seed"] == 3 and report["fault"] == "stein"


class TestParserReuse:
    """One parser serves every `main` call of a process; each call must read
    as if from a fresh process."""

    HELP = [[], ["drift-eigs"], ["squeezed-gauge"], ["nm-surface"], ["nm-branch"], ["verify"]]

    @staticmethod
    def fresh(argv):
        proc = subprocess.run([sys.executable, "-m", "gaussgauge", *argv],
                              capture_output=True, text=True)
        return proc.returncode, proc.stdout, proc.stderr

    @staticmethod
    def in_process(argv, capsys):
        capsys.readouterr()
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        return code, out, err

    @pytest.fixture(autouse=True)
    def fixed_width(self, monkeypatch):
        # argparse wraps help and usage to the terminal width
        monkeypatch.setenv("COLUMNS", "80")

    def test_parser_built_once(self):
        from gaussgauge.cli import build_parser

        assert build_parser() is build_parser()

    def test_calls_in_one_process_match_fresh_processes(self, capsys):
        sequence = [
            ["drift-eigs", "--grid=-1:1:5", "--format", "json", "--kappa", "0.5"],
            ["drift-eigs", "--grid=-1:1:5"],
            ["drift-eigs", "--grid=1:0:5"],
            ["drift-eigs", "--grid=-1:1:5"],
        ]
        got = [self.in_process(argv, capsys) for argv in sequence]
        assert [code for code, _, _ in got] == [0, 0, 2, 0]
        assert '"param.kappa": 0.5' in got[0][1] and "param.kappa = 0.04" in got[1][1]
        assert "grid needs lo < hi" in got[2][2]
        assert got == [self.fresh(argv) for argv in sequence]

    def test_help_texts_match_fresh_processes(self, capsys):
        for command in self.HELP:
            code, out, err = self.in_process(command + ["--help"], capsys)
            assert (code, err) == (0, "") and out.startswith("usage: gaussgauge")
            assert (code, out, err) == self.fresh(command + ["--help"])


class TestColdStart:
    """The package, its CLI and the four sweep commands load no scipy and no
    `verify`; only solvers above 2x2 and `verify` import scipy, and only the
    `verify` command imports `verify`, at first use."""

    SWEEPS = [
        ["drift-eigs", "--grid=-1:1:5"],
        ["squeezed-gauge", "--axis", "r", "--grid=0:1:5", "--format", "json"],
        ["nm-branch", "--grid=0.1:2:5"],
        ["nm-surface", "--grid=-1:1:3", "--grid2=0.1:1:3", "--format", "json"],
    ]

    @staticmethod
    def loaded(prefix, code, *args):
        """The modules named `prefix`... that a fresh interpreter holds after `code`."""
        script = (f"import json, sys\n{code}\n"
                  f"print(json.dumps([m for m in sys.modules if m.startswith({prefix!r})]))")
        proc = subprocess.run([sys.executable, "-c", script, *args],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout.splitlines()[-1])

    def test_import_loads_no_scipy(self):
        assert self.loaded("scipy", "import gaussgauge, gaussgauge.cli") == []

    def test_cli_import_loads_no_verify(self):
        assert self.loaded("gaussgauge.verify", "import gaussgauge.cli") == []

    def test_one_mode_solvers_load_no_scipy(self):
        code = ("import numpy as np\n"
                "from gaussgauge import solve_lyapunov, solve_stein\n"
                "solve_lyapunov(-np.eye(2), np.eye(2)), solve_stein(0.5 * np.eye(2), np.eye(2))")
        assert self.loaded("scipy", code) == []

    SWEEP_RUNS = (
        "from gaussgauge.cli import main\n"
        "out, sweeps = sys.argv[1], json.loads(sys.argv[2])\n"
        "codes = [main([*argv, '--out', f'{out}/{i}']) for i, argv in enumerate(sweeps)]\n"
        "assert codes == [0] * len(sweeps), codes"
    )

    def test_sweep_commands_load_no_scipy(self, tmp_path):
        assert self.loaded("scipy", self.SWEEP_RUNS, str(tmp_path), json.dumps(self.SWEEPS)) == []
        assert all((tmp_path / str(i)).stat().st_size > 0 for i in range(len(self.SWEEPS)))

    def test_sweep_commands_load_no_verify(self, tmp_path):
        args = (str(tmp_path), json.dumps(self.SWEEPS))
        assert self.loaded("gaussgauge.verify", self.SWEEP_RUNS, *args) == []

    VERIFY = ("from gaussgauge.cli import main\n"
              "assert main(['verify', '--seed', '0', '--out', sys.argv[1]]) == 0")

    def test_verify_loads_no_scipy_sparse(self, tmp_path):
        assert self.loaded("scipy.sparse", self.VERIFY, str(tmp_path / "report.json")) == []

    def test_verify_loads_no_scipy_optimize(self, tmp_path):
        assert self.loaded("scipy.optimize", self.VERIFY, str(tmp_path / "report.json")) == []


class TestVerifyCommand:
    def test_verify_passes_and_is_deterministic(self, tmp_path):
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        assert main(["verify", "--seed", "42", "--out", str(out1)]) == 0
        assert main(["verify", "--seed", "42", "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        payload = json.loads(out1.read_text())
        assert payload["all_passed"] is True
        assert all(s["passed"] for s in payload["suites"])

    def test_unknown_fault_rejected(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["verify", "--fault", "bogus"])
        assert err.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "argument --fault: invalid choice: 'bogus'" in captured.err

    def test_suite_times_on_stderr_only(self, capsys):
        assert main(["verify", "--seed", "3"]) == 0
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        payload = json.loads(captured.out)
        assert len(lines) == len(payload["suites"])
        for line, suite in zip(lines, payload["suites"]):
            assert re.fullmatch(
                rf"PASS {suite['name']}: worst=\S+ tol=\S+ n={suite['samples']}"
                r" time=\d+\.\d{3}s( \(.*\))?", line)
        fields = {"name", "passed", "worst", "tolerance", "samples", "note"}
        assert all(set(suite) == fields for suite in payload["suites"])

    def test_fault_injection_fails_the_right_suite(self, tmp_path):
        # each fault fails exactly its own suites, and every other suite passes
        own = {
            "stein": {"stein-residual"},
            "lyapunov": {"lyapunov-residual", "semigroup-gauging"},
            "gauge": {"channel-gauging"},
            "jury": {"jury-spectral-agreement"},
            "expm2": {"expm2-vs-general"},
            "noise": {"noise-independence"},
            "one-mode": {"one-mode-identities"},
            "ep-closed-form": {"ep-closed-forms"},
            "positivity": {"positivity-transfer"},
            "semigroup": {"semigroup-gauging"},
            "composition": {"composition-consistency"},
            "jordan": {"jordan-chain"},
            "trends": {"figure-trends"},
        }
        assert set(own) == set(FAULT_CHOICES)
        for fault, suites in own.items():
            out = tmp_path / f"{fault}.json"
            assert main(["verify", "--seed", "7", "--fault", fault, "--out", str(out)]) == 1
            payload = json.loads(out.read_text())
            assert len(payload["suites"]) == 13
            assert {s["name"] for s in payload["suites"] if not s["passed"]} == suites

