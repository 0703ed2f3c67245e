"""Command-line front end: parameter sweeps and the self-verification suite.

Commands
--------
drift-eigs       drift eigenvalue branches vs detuning (EP rows marked)
squeezed-gauge   gauge-covariance eigenvalues along kappa | r | phi per branch
nm-surface       gauge eigenvalues over the (lambda, omega) drift plane
nm-branch        gauge eigenvalues along the EP lines lambda = +-omega
verify           run the invariant suites; exit 1 on any failure

Configuration precedence: command-line flags > config file (`key = value`
lines) > built-in defaults. Exit codes: 0 success, 1 verification failure,
2 invalid configuration.

The argument parser is built once per process and reused by every `main`
call; argparse keeps no state between `parse_args` calls.
"""

import argparse
import functools
import json
import sys

from .errors import DimensionError, GaussGaugeError
from .sweeps import (
    _TEXT,
    DIFFUSION_CHOICES,
    FAULT_CHOICES,
    MODEL_DEFAULTS,
    GridSpec,
    SweepConfig,
    run_drift_eigs,
    run_nm_branch,
    run_nm_surface,
    run_squeezed_gauge,
    write_table,
)

_MODEL_FLAGS = sorted(MODEL_DEFAULTS)


def _grid(text):
    """GridSpec of a 'lo:hi:count' spec; a bad spec raises GaussGaugeError or ValueError."""
    parts = text.split(":")
    if len(parts) != 3:
        raise DimensionError("grid spec must be lo:hi:count")
    return GridSpec(float(parts[0]), float(parts[1]), int(parts[2]))


def _parse_grid(text):
    try:
        return _grid(text)
    except (ValueError, GaussGaugeError) as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _add_common(parser):
    parser.add_argument("--out", help="output path (default: stdout)")
    parser.add_argument("--format", choices=("csv", "json"), default=None, dest="fmt")
    parser.add_argument("--config", help="config file with 'key = value' lines")
    for name in _MODEL_FLAGS:
        parser.add_argument(f"--{name.replace('_', '-')}", type=float, default=None, dest=name)


@functools.cache
def build_parser():
    parser = argparse.ArgumentParser(
        prog="gaussgauge",
        description="Sweep datasets and verification for Gaussian-channel noise gauging.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("drift-eigs", help="drift eigenvalues vs detuning")
    _add_common(p)
    p.add_argument("--grid", type=_parse_grid, default=None, help="delta grid lo:hi:count")

    p = sub.add_parser("squeezed-gauge", help="EP-branch gauge eigenvalues along an axis")
    _add_common(p)
    p.add_argument("--axis", choices=("kappa", "r", "phi"), default=None)
    p.add_argument("--branch", choices=("plus", "minus"), default=None)
    p.add_argument("--grid", type=_parse_grid, default=None, help="axis grid lo:hi:count")

    p = sub.add_parser("nm-surface", help="gauge eigenvalues over the drift plane")
    _add_common(p)
    p.add_argument("--diffusion", choices=DIFFUSION_CHOICES, default=None)
    p.add_argument("--grid", type=_parse_grid, default=None, help="lambda grid lo:hi:count")
    p.add_argument("--grid2", type=_parse_grid, default=None, help="omega grid lo:hi:count")

    p = sub.add_parser("nm-branch", help="gauge eigenvalues along the EP lines")
    _add_common(p)
    p.add_argument("--diffusion", choices=DIFFUSION_CHOICES, default=None)
    p.add_argument("--grid", type=_parse_grid, default=None, help="omega grid lo:hi:count")

    p = sub.add_parser("verify", help="run the invariant suites")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--fault", choices=FAULT_CHOICES, default=None)
    p.add_argument("--out", help="write the JSON report here as well")
    p.add_argument("--config", help="config file with 'key = value' lines")
    return parser


def read_config_file(path):
    values = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise GaussGaugeError(f"{path}:{lineno}: expected 'key = value'")
            key, value = (part.strip() for part in line.split("=", 1))
            values[key.replace("-", "_")] = value
    return values


# the settings that only some commands read
_COMMAND_SETTINGS = {
    "squeezed-gauge": ("axis", "branch"),
    "nm-surface": ("diffusion",),
    "nm-branch": ("diffusion",),
    "verify": ("seed", "fault"),
}


def _merge_config(args):
    """Apply precedence: CLI flag > config file entry > defaults.

    A config file that sets a setting of another command (`_COMMAND_SETTINGS`)
    is rejected as one with an unknown key, as argparse rejects a flag the
    command does not take; `seed` and `fault`, for one, are verify settings,
    since no sweep draws a random number.
    """
    file_values = read_config_file(args.config) if getattr(args, "config", None) else {}
    model = {}
    grids = {}
    settings = {}
    for key, value in file_values.items():
        if key.startswith("grid."):
            grids[key.split(".", 1)[1]] = _grid(value)
        elif key in MODEL_DEFAULTS:
            model[key] = float(value)
        elif key in {"format", "fmt"}:
            settings["fmt"] = value
        elif key == "out" or key in _COMMAND_SETTINGS.get(args.command, ()):
            settings[key] = int(value) if key == "seed" else value
        else:
            raise GaussGaugeError(f"unknown config key {key!r}")
    for name in _MODEL_FLAGS:
        flag = getattr(args, name, None)
        if flag is not None:
            model[name] = flag
    for attr in ("fmt", "seed", "axis", "branch", "diffusion", "out", "fault"):
        flag = getattr(args, attr, None)
        if flag is not None:
            settings[attr] = flag
    return model, grids, settings


_PRIMARY_AXIS = {
    "drift-eigs": "delta",
    "squeezed-gauge": None,  # depends on --axis
    "nm-surface": "lam",
    "nm-branch": "omega",
}


def _build_sweep_config(args):
    """The SweepConfig of a sweep; a setting that neither a flag nor the
    config file gives keeps the SweepConfig default."""
    model, grids, settings = _merge_config(args)
    config = SweepConfig(command=args.command, model=model, grids=grids, **settings)
    if getattr(args, "grid", None) is not None:
        config.grids[_PRIMARY_AXIS[args.command] or config.axis] = args.grid
    if getattr(args, "grid2", None) is not None:
        config.grids["omega"] = args.grid2
    return config


def _emit(table, config):
    if config.out:
        write_table(table, config.out, config.fmt)
    else:
        sys.stdout.writelines(_TEXT[config.fmt](table))


def _run_verify(args):
    from .verify import run_verification  # the sweep commands never load verify

    _, _, settings = _merge_config(args)
    seed = settings.get("seed", 0)
    fault = settings.get("fault")
    report = run_verification(seed=seed, fault=fault)
    for suite, seconds in zip(report.suites, report.seconds):
        status = "PASS" if suite.passed else "FAIL"
        line = (
            f"{status} {suite.name}: worst={suite.worst:.3e} tol={suite.tolerance:.1e}"
            f" n={suite.samples} time={seconds:.3f}s"
        )
        if suite.note:
            line += f" ({suite.note})"
        print(line, file=sys.stderr)
    text = json.dumps(report.as_dict(), sort_keys=True, indent=1)
    print(text)
    out = settings.get("out")
    if out:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text + "\n")
    return 0 if report.all_passed else 1


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "verify":
            return _run_verify(args)
        config = _build_sweep_config(args)
        if args.command == "drift-eigs":
            table = run_drift_eigs(config)
        elif args.command == "squeezed-gauge":
            table = run_squeezed_gauge(config, config.axis, config.branch)
        elif args.command == "nm-surface":
            table = run_nm_surface(config)
        elif args.command == "nm-branch":
            table = run_nm_branch(config)
        else:  # pragma: no cover - argparse enforces the choices
            parser.error(f"unknown command {args.command}")
        _emit(table, config)
        return 0
    except (GaussGaugeError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
