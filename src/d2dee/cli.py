"""Command-line front end: validate | solve | trace | sweep.

Exit codes: 0 ok, 1 infeasible problem, 2 validation failure, 3 config
error (a malformed or invalid config document or option).  The default
output directory comes from --out or the D2DEE_OUT environment variable.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .config import DEFAULTS, ExperimentConfig, load_config
from .harness import (
    SWEEP_PLOT,
    TRACE_PLOT,
    _config_header,
    format_solve_table,
    run_solve,
    run_sweep,
    run_trace,
    run_validate,
    solve_record,
    sweep_fieldnames,
    trace_fieldnames,
    write_csv,
)
from .solver import InfeasibleProblem

EXIT_OK = 0
EXIT_INFEASIBLE = 1
EXIT_VALIDATION = 2
EXIT_CONFIG = 3


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", type=str, default=None, help="JSON config path")
    sub.add_argument("--out", type=str, default=None,
                     help="output directory (default: $D2DEE_OUT or .)")
    sub.add_argument("--seed", type=int, default=None)
    sub.add_argument("--trials", type=int, default=None)
    sub.add_argument("--workers", type=int, default=None,
                     help="Monte Carlo chunks; they run on up to one process per usable "
                          "CPU, and the estimate depends on the chunk count only")
    sub.add_argument("--phase2-mode", choices=["coupled", "paper_literal"], default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="d2dee",
        description="Energy-efficiency metrics and power allocation for "
                    "D2D underlay cellular uplinks",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("validate", help="Monte Carlo check of the closed-form STP")
    _add_common(p)
    p.add_argument("--which", choices=["d2d", "cell", "both"], default="both")
    p.add_argument("--band", type=int, default=None)

    p = subs.add_parser("solve", help="one joint power-allocation solve")
    _add_common(p)

    p = subs.add_parser("trace", help="per-iteration trace of a joint solve")
    _add_common(p)

    p = subs.add_parser("sweep", help="parameter sweep with fixed-cellular baseline")
    _add_common(p)
    p.add_argument("--sweep-var", choices=["lambda_d_ref", "lambda_c_ref", "budget_d2d"],
                   default=None)
    p.add_argument("--sweep-grid", type=str, default=None,
                   help="comma-separated grid values")
    return parser


def _load(args) -> ExperimentConfig:
    if args.config:
        cfg = load_config(args.config)
    else:
        cfg = ExperimentConfig()
    overrides = dict(seed=args.seed, trials=args.trials, workers=args.workers,
                     phase2_mode=args.phase2_mode)
    if getattr(args, "sweep_var", None):
        overrides["sweep_variable"] = args.sweep_var
    if getattr(args, "sweep_grid", None):
        overrides["sweep_grid"] = [float(v) for v in args.sweep_grid.split(",")]
    return cfg.with_overrides(**overrides)


def _out_dir(args) -> Path:
    out = args.out or os.environ.get("D2DEE_OUT") or "."
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _load(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    out = _out_dir(args)

    try:
        if args.command == "validate":
            records, ok = run_validate(cfg, which=args.which, band_index=args.band)
            payload = {"config": cfg.to_dict(), "estimates": records, "pass": ok}
            (out / "validate.json").write_text(json.dumps(payload, indent=2) + "\n")
            for rec in records:
                print(
                    f"{rec['which']}: p_hat={rec['p_hat']:.5f} analytic={rec['analytic']:.5f} "
                    f"z={rec['z_score'] if rec['z_score'] is not None else 'n/a'} "
                    f"-> {'pass' if rec['pass'] else 'FAIL'}"
                )
            return EXIT_OK if ok else EXIT_VALIDATION

        if args.command == "solve":
            result = run_solve(cfg)
            (out / "solve.json").write_text(
                json.dumps(solve_record(cfg, result), indent=2) + "\n"
            )
            print(format_solve_table(result))
            return EXIT_OK

        if args.command == "trace":
            rows, result = run_trace(cfg)
            fields = trace_fieldnames(cfg["num_bands"])
            write_csv(out / "trace.csv", _config_header(cfg), fields, rows)
            (out / "plot_trace.py").write_text(TRACE_PLOT)
            print(f"{len(rows)} iterations, converged={result.trace.converged}")
            print(f"wrote {out / 'trace.csv'}")
            return EXIT_OK

        if args.command == "sweep":
            rows = run_sweep(cfg)
            fields = sweep_fieldnames(cfg["num_bands"])
            write_csv(out / "sweep.csv", _config_header(cfg), fields, rows)
            (out / "plot_sweep.py").write_text(SWEEP_PLOT)
            n_bad = sum(1 for r in rows if r["infeasible_bands"])
            print(f"wrote {out / 'sweep.csv'} ({len(rows)} points, {n_bad} infeasible)")
            return EXIT_OK
    except InfeasibleProblem as exc:
        print(f"infeasible: {exc} (band={exc.band}, constraint={exc.constraint})",
              file=sys.stderr)
        return EXIT_INFEASIBLE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
