"""Command-line verification driver.

Each subcommand runs one function of `daverify.checks`, writes a
deterministic JSON report (byte-identical for identical configuration),
prints a one-line summary with wall-clock timing to stdout, and exits 0 when
every check passed, 1 when any failed, 2 on invalid configuration. The
defaults of every option are those of the check function.
"""

from __future__ import annotations

import argparse
import functools
import inspect
import os
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Mapping, Optional

from . import cantor, checks, henkin, reports
from .exact import ConfigError

OUTPUT_DIR_ENV = "DAVERIFY_OUT"


@dataclass(frozen=True)
class RunConfig:
    """One CLI invocation: the command, its report path and format, and the
    check parameters given. A parameter left out takes the check function's
    default."""

    command: str
    output: Optional[str] = None
    fmt: Optional[str] = None
    params: Mapping[str, object] = field(default_factory=dict)

    @property
    def dim(self) -> Optional[int]:
        return self.params.get("dim")


# commands that have a tabular CSV rendering
_CSV_COMMANDS = {"kernel-table", "cantor-fourier", "moments"}


def _resolve_output(cfg: RunConfig) -> Path:
    """The report path, refused with ConfigError where no file can be
    written: an existing directory, a path below a file that is not one or
    below a directory this process may not write, or a file it may not
    write."""
    name = cfg.output or f"{cfg.command}-report.json"
    path = Path(name)
    base = os.environ.get(OUTPUT_DIR_ENV)
    if base and not path.is_absolute():
        path = Path(base) / path
    if path.is_dir():
        raise ConfigError(f"output {path} is a directory")
    for parent in path.parents:
        if parent.exists():
            if not parent.is_dir():
                raise ConfigError(f"output {path} lies below {parent}, which is not a directory")
            if not os.access(parent, os.W_OK | os.X_OK):
                raise ConfigError(f"output {path} lies below {parent}, which is not writable")
            break
    if path.exists() and not os.access(path, os.W_OK):
        raise ConfigError(f"output {path} is not writable")
    return path


def _adapt(check: Callable, cfg: RunConfig):
    """Run a check function on the parameters of cfg; one it does not take
    is refused rather than dropped."""
    unknown = sorted(set(cfg.params) - set(inspect.signature(check).parameters))
    if unknown:
        raise ConfigError(f"command {cfg.command} takes no {', '.join(unknown)}")
    return check(**cfg.params)


# command -> callable of one RunConfig, returning (config, rows, tables)
_SUBCOMMANDS: dict[str, Callable] = {
    name: functools.partial(_adapt, check) for name, check in checks.COMMANDS.items()}


def cmd_all(cfg: RunConfig):
    """Run every stage of checks.PLAN and aggregate."""
    seed = cfg.params.get("seed", checks.DEFAULT_SEED)
    checks._require_seed(seed)
    results = []
    config = {"seed": seed, "subcommands": []}
    for command, pins in checks.PLAN:
        sub = RunConfig(command=command, params={**pins, "seed": seed} if "seed" in pins else pins)
        fn = _SUBCOMMANDS[sub.command]
        t0 = time.perf_counter()
        sub_config, sub_results, _tables = fn(sub)
        elapsed = time.perf_counter() - t0
        label = sub.command if sub.dim is None else f"{sub.command}[d{sub.dim}]"
        print(f"  {label}: {elapsed:.2f}s", file=sys.stdout)
        config["subcommands"].append({"command": sub.command, "config": sub_config})
        for row in sub_results:
            row = dict(row)
            row["check"] = f"{label}/{row['check']}"
            results.append(row)
    return config, results, {}


# ---------------------------------------------------------------------------
# driver


def run(cfg: RunConfig) -> int:
    """Execute one command, write its report, return the exit code."""
    if cfg.fmt not in (None, "json", "csv"):
        raise ConfigError("format must be json or csv")
    if cfg.fmt == "csv" and cfg.command not in _CSV_COMMANDS:
        raise ConfigError(f"command {cfg.command} has no CSV table")

    if cfg.command == "all":
        fn = cmd_all
    else:
        try:
            fn = _SUBCOMMANDS[cfg.command]
        except KeyError:
            raise ConfigError(f"unknown command {cfg.command!r}")

    out_path = _resolve_output(cfg)
    t0 = time.perf_counter()
    config, results, tables = fn(cfg)
    elapsed = time.perf_counter() - t0

    report = reports.make_report(cfg.command, config, results)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    reports.dump_report(report, out_path)

    if cfg.fmt == "csv":
        for name, (header, rows) in tables.items():
            csv_path = out_path.with_suffix(f".{name}.csv")
            reports.write_csv(csv_path, header, rows())

    status = "PASS" if report["pass"] else "FAIL"
    print(f"{cfg.command}: {status} in {elapsed:.2f}s, report at {out_path}")
    return 0 if report["pass"] else 1


def _parse_int_tuple(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(",") if x.strip() != "")
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


# argparse type of each check parameter that is not an int
_OPTION_TYPES = {"eps": float, "tol": float, "delta": float,
                 "dims": _parse_int_tuple, "levels": _parse_int_tuple,
                 "alpha": _parse_int_tuple, "sections": _parse_int_tuple}

_HELP = {
    "verify-norms": "monomial norms against the kernel-expansion oracle",
    "verify-isometry": "exact disc-to-ball isometry on random polynomials",
    "kernel-table": "weight sequence a_n with exact and float views",
    "cantor-fourier": "Cantor Fourier coefficients, two routes",
    "cantor-energy": "proven Riesz 1/2-energy bracket on the circle",
    "moments": "closed-form moments against Monte Carlo",
    "henkin-check": "the representing identity, exactly or two-route",
    "witness": "the diagonal witness g and its certificates",
    "peak-check": "f = (1+r)/2 peaks exactly on the support",
    "compression": "finite-section multiplier norm lower bounds",
}


# the ranges the library enforces, shown in --help
_RANGES = {
    ("moments", "samples"): (henkin.MIN_MC_SAMPLES, henkin.MAX_MC_SAMPLES),
    ("moments", "count"): (1, henkin.MAX_MC_COUNT),
    ("moments", "max_exp"): (0, cantor.MAX_TABLE_N),
}


def _show(default) -> str:
    return ",".join(map(str, default)) if isinstance(default, tuple) else str(default)


def _option_help(command: str, param: inspect.Parameter) -> Optional[str]:
    parts = [] if param.default is None else [f"default {_show(param.default)}"]
    if (command, param.name) in _RANGES:
        parts.append("range [{}, {}]".format(*_RANGES[command, param.name]))
    return "; ".join(parts) or None


def build_parser() -> argparse.ArgumentParser:
    """One subparser per check function, with one option per parameter. No
    option has a default of its own: unset options stay None."""
    parser = argparse.ArgumentParser(
        prog="daverify",
        description="Verify sphere-measure constructions for the Drury-Arveson space.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, csv_ok=False):
        p.add_argument("--output", help="report path (default <command>-report.json; "
                       f"${OUTPUT_DIR_ENV} prefixes relative paths)")
        p.add_argument("--format", dest="fmt", choices=["json", "csv"] if csv_ok else ["json"],
                       help="csv additionally writes the data table (default json)")

    # --seed exists only where a check draws from it, so it is never silently ignored
    for name, check in checks.COMMANDS.items():
        p = sub.add_parser(name, help=_HELP[name])
        for param in inspect.signature(check).parameters.values():
            p.add_argument("--" + param.name.replace("_", "-"),
                           type=_OPTION_TYPES.get(param.name, int), help=_option_help(name, param))
        common(p, csv_ok=name in _CSV_COMMANDS)

    p = sub.add_parser("all", help="every command at its defaults, one aggregate report")
    common(p)
    p.add_argument("--seed", type=int, help=f"default {checks.DEFAULT_SEED}")
    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    params = {k: v for k, v in vars(args).items() if v is not None}
    return RunConfig(command=params.pop("command"), output=params.pop("output", None),
                     fmt=params.pop("fmt", None), params=params)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse already printed the message; normalize its code
        return 2 if exc.code not in (0, None) else 0
    try:
        cfg = config_from_args(args)
        return run(cfg)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
