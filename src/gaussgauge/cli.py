"""Command-line front end: parameter sweeps and the self-verification suite.

The sweep commands, with their settings and grid axes, are the entries of
`sweeps.SWEEPS`; `verify` runs the invariant suites and exits 1 on any
failure.

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

from . import sweeps
from .errors import DimensionError, GaussGaugeError
from .sweeps import (_CHOICES, _TEXT, FAULT_CHOICES, MODEL_DEFAULTS, SWEEPS, GridSpec,
                     SweepConfig, write_table)

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


def _grid_flags(command, axis):
    """(flag, grid axis) pairs of a sweep command: --grid sets its first axis,
    or `axis` if the command has an `axis` setting, and --grid2 its second."""
    sweep = SWEEPS[command]
    return zip(("grid", "grid2"), (axis,) if "axis" in sweep.settings else sweep.grids)


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

    for command, sweep in SWEEPS.items():
        p = sub.add_parser(command, help=sweep.help)
        _add_common(p)
        for name, choices in sweep.settings.items():
            p.add_argument(f"--{name}", choices=choices, default=None)
        for flag, axis in _grid_flags(command, "axis"):
            p.add_argument(f"--{flag}", type=_parse_grid, default=None,
                           help=f"{axis} grid lo:hi:count")

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


# the config keys each command reads, grid.<axis> for each of its axes
_CONFIG_KEYS = {command: ("format", "out", *MODEL_DEFAULTS, *sweep.settings,
                          *(f"grid.{axis}" for axis in sweep.grids))
                for command, sweep in SWEEPS.items()}
_CONFIG_KEYS["verify"] = ("seed", "fault", "out")
# the attribute of every flag that carries a model parameter or a setting
_FLAGS = (*_MODEL_FLAGS, "fmt", "seed", "fault", "out", *_CHOICES)


def _merge_config(args):
    """Apply precedence: CLI flag > config file entry > defaults.

    A config file key that the command does not read (`_CONFIG_KEYS`) is
    rejected as unknown, as argparse rejects a flag the command does not
    take; `seed` and `fault`, for one, are verify settings, since no sweep
    draws a random number, and verify reads no model parameter or grid.
    """
    file_values = read_config_file(args.config) if getattr(args, "config", None) else {}
    model = {}
    grids = {}
    settings = {}
    for key, value in file_values.items():
        if key not in _CONFIG_KEYS[args.command]:
            raise GaussGaugeError(f"unknown config key {key!r}")
        if key.startswith("grid."):
            grids[key.split(".", 1)[1]] = _grid(value)
        elif key in MODEL_DEFAULTS:
            model[key] = float(value)
        else:
            settings["fmt" if key == "format" else key] = int(value) if key == "seed" else value
    for attr in _FLAGS:
        flag = getattr(args, attr, None)
        if flag is not None:
            (model if attr in MODEL_DEFAULTS else settings)[attr] = flag
    return model, grids, settings


def _build_sweep_config(args):
    """The SweepConfig of a sweep; a setting that neither a flag nor the
    config file gives keeps the SweepConfig default."""
    model, grids, settings = _merge_config(args)
    config = SweepConfig(command=args.command, model=model, grids=grids, **settings)
    for flag, axis in _grid_flags(args.command, config.axis):
        if getattr(args, flag) is not None:
            config.grids[axis] = getattr(args, flag)
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
        # looked up at call time, so a wrapper put on the sweeps module is called
        run = getattr(sweeps, f"run_{args.command.replace('-', '_')}")
        _emit(run(config), config)
        return 0
    except (GaussGaugeError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
