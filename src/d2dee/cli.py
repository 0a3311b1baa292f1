"""Command-line front end: validate | solve | trace | sweep.

Exit codes: 0 ok, 1 infeasible problem, 2 validation failure, 3 config
error (a malformed or invalid config document, option or command line,
or a --config or --out path, or an output file in it, that cannot be used).
The default output directory comes from --out or the D2DEE_OUT
environment variable.  Without --config a command runs on the shipped
defaults, which are validate's layout: at its SIR thresholds of 1 no
allocation meets the outage caps, so solve and trace exit 1 there and say
to pass --config, and every sweep point is infeasible, which a sweep's
summary then says.  The help of all three says so too.

``main`` only parses the command line, resolves the config once (each
option overrides its config key), and calls the command's
``harness.write_<command>``, which writes every output file and returns the
summary printed here.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from pathlib import Path

from .config import SWEEP_KEYS, ExperimentConfig, load_config
from .harness import VALIDATE_LINKS, write_solve, write_sweep, write_trace, write_validate
from .solver import InfeasibleProblem

EXIT_OK = 0
EXIT_INFEASIBLE = 1
EXIT_VALIDATION = 2
EXIT_CONFIG = 3

# what solve, trace and sweep say in their help, and without --config on
# exit 1 or with infeasible sweep points
_NEEDS_CONFIG = ("pass --config: the defaults are validate's layout, whose SIR "
                 "thresholds of 1 no allocation can meet")


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", type=str, default=None, help="JSON config path")
    sub.add_argument("--out", type=str, default=None,
                     help="output directory (default: $D2DEE_OUT or .)")
    sub.add_argument("--seed", type=int, default=None,
                     help="Monte Carlo seed; only validate uses it, other commands "
                          "record it in their config")
    sub.add_argument("--trials", type=int, default=None,
                     help="Monte Carlo trials; only validate uses them, other commands "
                          "record them in their config")
    sub.add_argument("--workers", type=int, default=None,
                     help="Monte Carlo chunks; they run on up to one process per usable "
                          "CPU, and the estimate depends on the chunk count only")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command line's parser, built once per process; parsing leaves it as it is."""
    parser = argparse.ArgumentParser(
        prog="d2dee",
        description="Energy-efficiency metrics and power allocation for "
                    "D2D underlay cellular uplinks",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("validate", help="Monte Carlo check of the closed-form STP")
    _add_common(p)
    p.add_argument("--which", choices=VALIDATE_LINKS, default="both")
    p.add_argument("--band", type=int, default=None)

    p = subs.add_parser("solve", help="one joint power-allocation solve",
                        description=f"One joint power-allocation solve; {_NEEDS_CONFIG}.")
    _add_common(p)

    p = subs.add_parser("trace", help="per-iteration trace of a joint solve",
                        description=f"Per-iteration trace of a joint solve; {_NEEDS_CONFIG}.")
    _add_common(p)

    p = subs.add_parser("sweep", help="parameter sweep with fixed-cellular baseline",
                        description="Parameter sweep with fixed-cellular baseline; "
                                    f"{_NEEDS_CONFIG}.")
    _add_common(p)
    p.add_argument("--sweep-var", choices=list(SWEEP_KEYS), default=None)
    p.add_argument("--sweep-grid", type=str, default=None,
                   help="comma-separated grid values")
    return parser


def _load(args) -> ExperimentConfig:
    grid = getattr(args, "sweep_grid", None)
    try:
        values = [float(v) for v in grid.split(",")] if grid else None
    except ValueError:
        raise ValueError(f"argument --sweep-grid: expected comma-separated numbers, "
                         f"got {grid!r}") from None
    return load_config(
        args.config, seed=args.seed, trials=args.trials, workers=args.workers,
        band=getattr(args, "band", None), sweep_variable=getattr(args, "sweep_var", None),
        sweep_grid=values,
    )


def _out_dir(args) -> Path:
    out = args.out or os.environ.get("D2DEE_OUT") or "."
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse has written the help, or the usage error, already
        return EXIT_OK if exc.code == 0 else EXIT_CONFIG
    try:
        cfg = _load(args)
        out = _out_dir(args)
        if args.command == "validate":
            summary, ok = write_validate(cfg, out, args.which)
        elif args.command == "sweep":
            summary, infeasible = write_sweep(cfg, out)
            if infeasible and not args.config:
                summary += f"; {_NEEDS_CONFIG}"
            ok = True
        else:
            writer = {"solve": write_solve, "trace": write_trace}
            summary, ok = writer[args.command](cfg, out), True
    except InfeasibleProblem as exc:
        hint = "" if args.config else f"; {_NEEDS_CONFIG}"
        print(f"infeasible: {exc} (band={exc.band}, constraint={exc.constraint}){hint}",
              file=sys.stderr)
        return EXIT_INFEASIBLE
    except (ValueError, OSError) as exc:
        # an OSError names its path: a missing or unreadable --config, an
        # --out that is not a directory, or an output file that cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    print(summary)
    return EXIT_OK if ok else EXIT_VALIDATION


if __name__ == "__main__":
    raise SystemExit(main())
