"""Experiment runners behind the CLI: validate, solve, trace, sweep.

All file outputs start with comment lines embedding the resolved config so
a result can always be traced back to its inputs.  CSV bodies follow
RFC-4180; reruns with the same config and seed are byte-identical.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from dataclasses import asdict
from pathlib import Path

from .config import ExperimentConfig, build_system, solver_options
from .model import PowerAllocation, SystemParams
from .simulate import SimScenario, estimate_stp
from .solver import AllocationResult, InfeasibleProblem, baseline_fixed_cell, optimize_powers

__all__ = [
    "run_validate",
    "run_solve",
    "run_trace",
    "run_sweep",
    "write_csv",
    "sweep_fieldnames",
    "trace_fieldnames",
]

VALIDATE_Z_LIMIT = 3.3
VALIDATE_ABS_LIMIT = 0.005


def _band_hash(system: SystemParams) -> str:
    blob = json.dumps([asdict(b) for b in system.bands], sort_keys=True)
    return hashlib.md5(blob.encode()).hexdigest()


def _cell(value: float) -> str:
    """Render a number as a CSV cell that float() reads back exactly.

    numpy 2 scalars repr as ``np.float64(...)``; casting first keeps every
    cell machine-parseable whatever type the config's inputs carried.
    """
    return repr(float(value))


def _config_header(cfg: ExperimentConfig) -> list[str]:
    payload = json.dumps(cfg.raw, sort_keys=True)
    return [f"# config: {payload}"]


def write_csv(path: Path, header_lines: list[str], fieldnames: list[str], rows: list[dict]) -> None:
    buf = io.StringIO()
    for line in header_lines:
        buf.write(line + "\r\n")
    writer = csv.DictWriter(buf, fieldnames=fieldnames, lineterminator="\r\n")
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
    path.write_text(buf.getvalue())


def read_csv(path: Path) -> list[dict]:
    """Read back a CSV written by write_csv, skipping comment lines."""
    lines = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
    return list(csv.DictReader(io.StringIO("\n".join(lines))))


# ---------------------------------------------------------------------------
# validate


def run_validate(
    cfg: ExperimentConfig,
    which: str = "both",
    band_index: int | None = None,
) -> tuple[list[dict], bool]:
    """Monte Carlo estimates against the closed forms on one band.

    Passes when every estimate satisfies |z| <= 3.3 and |p_hat - analytic|
    <= 0.005 (z is skipped when the standard error is zero).
    """
    system = build_system(cfg)
    sim = cfg["sim"]
    idx = sim["band"] if band_index is None else band_index
    if not 0 <= idx < system.num_bands:
        raise ValueError(f"band index {idx} out of range")
    scenario = SimScenario(
        band=system.bands[idx],
        p_cell_w=sim["p_cell_w"],
        p_d2d_w=sim["p_d2d_w"],
        window_radius_m=sim["window_radius_m"],
        trials=sim["trials"],
        seed=sim["seed"],
        workers=sim["workers"],
    )
    kinds = ["d2d", "cell"] if which == "both" else [which]
    records = []
    ok = True
    for kind in kinds:
        est = estimate_stp(scenario, kind)
        rec = est.to_record()
        rec["band"] = idx
        gap = abs(est.p_hat - est.analytic)
        z_ok = math.isnan(est.z_score) or abs(est.z_score) <= VALIDATE_Z_LIMIT
        rec["pass"] = bool(z_ok and gap <= VALIDATE_ABS_LIMIT)
        ok = ok and rec["pass"]
        records.append(rec)
    return records, ok


# ---------------------------------------------------------------------------
# solve / trace


def run_solve(cfg: ExperimentConfig) -> AllocationResult:
    system = build_system(cfg)
    return optimize_powers(system, solver_options(cfg))


def solve_record(cfg: ExperimentConfig, result: AllocationResult) -> dict:
    return {"config": cfg.to_dict(), "result": result.to_dict()}


def format_solve_table(result: AllocationResult) -> str:
    """Human-readable summary of a solve."""
    lines = []
    lines.append(f"converged: {result.trace.converged}  iterations: {result.trace.iterations}")
    lines.append(
        f"ee_d2d_total: {result.metrics.ee_d2d_total:.6e} bit/J   "
        f"ee_cell_total: {result.metrics.ee_cell_total:.6e} bit/J"
    )
    lines.append(f"{'band':>4} {'P_d2d [W]':>14} {'P_cell [W]':>14} {'STP_d2d':>10} {'STP_cell':>10}")
    for i, (pd, pc) in enumerate(zip(result.alloc.p_d2d_w, result.alloc.p_cell_w)):
        lines.append(
            f"{i:>4} {pd:>14.6e} {pc:>14.6e} "
            f"{result.metrics.stp_d2d[i]:>10.5f} {result.metrics.stp_cell[i]:>10.5f}"
        )
    if result.flags:
        lines.append("flags: " + "; ".join(result.flags))
    lines.append("feasible: " + ("yes" if result.feasibility.ok else "no"))
    return "\n".join(lines)


def trace_fieldnames(num_bands: int) -> list[str]:
    cols = ["iteration"]
    cols += [f"p_d2d_w_{i}" for i in range(num_bands)]
    cols += [f"p_cell_w_{i}" for i in range(num_bands)]
    cols += ["ee_d2d_total", "ee_cell_total", "ee_total", "delta_d_w", "delta_c_w"]
    return cols


def run_trace(cfg: ExperimentConfig) -> tuple[list[dict], AllocationResult]:
    result = run_solve(cfg)
    trace = result.trace
    rows = []
    for n in range(trace.iterations):
        row: dict = {"iteration": n + 1}
        for i, p in enumerate(trace.p_d2d_w[n]):
            row[f"p_d2d_w_{i}"] = _cell(p)
        for i, p in enumerate(trace.p_cell_w[n]):
            row[f"p_cell_w_{i}"] = _cell(p)
        row["ee_d2d_total"] = _cell(trace.ee_d2d_total[n])
        row["ee_cell_total"] = _cell(trace.ee_cell_total[n])
        row["ee_total"] = _cell(trace.ee_d2d_total[n] + trace.ee_cell_total[n])
        row["delta_d_w"] = _cell(trace.delta_d_w[n])
        row["delta_c_w"] = _cell(trace.delta_c_w[n])
        rows.append(row)
    return rows, result


# ---------------------------------------------------------------------------
# sweep


def sweep_fieldnames(num_bands: int) -> list[str]:
    cols = ["index", "swept_variable", "swept_value"]
    cols += [f"p_d2d_w_{i}" for i in range(num_bands)]
    cols += [f"p_cell_w_{i}" for i in range(num_bands)]
    cols += [
        "ee_d2d_total",
        "ee_cell_total",
        "ee_total",
        "baseline_ee_d2d_total",
        "iterations",
        "converged",
        "infeasible_bands",
        "band_params_md5",
    ]
    return cols


def _sweep_config(cfg: ExperimentConfig, variable: str, value: float) -> ExperimentConfig:
    key = "budget_d2d_w" if variable == "budget_d2d" else variable
    return cfg.with_overrides(**{key: value})


def _note(row: dict, exc: ValueError, prefix: str = "") -> None:
    """Append a point's failure to its ``infeasible_bands`` cell."""
    if isinstance(exc, InfeasibleProblem):
        text = f"{prefix}band={exc.band} constraint={exc.constraint}"
    else:
        text = f"{prefix}error={exc}"
    row["infeasible_bands"] += ("; " if row["infeasible_bands"] else "") + text


def run_sweep(cfg: ExperimentConfig) -> list[dict]:
    """One joint solve plus one fixed-cellular baseline per grid point.

    A failing point is recorded in-row and the sweep continues: its metric
    columns stay empty and ``infeasible_bands`` names the offending band and
    constraint, or carries ``error=<message>`` for an invalid grid value.
    """
    sweep = cfg["sweep"]
    variable, grid = sweep["variable"], sweep["grid"]
    if variable is None or not grid:
        raise ValueError("config field 'sweep': variable and grid must be set")
    m = cfg["num_bands"]
    rows = []
    for index, value in enumerate(grid):
        row = dict.fromkeys(sweep_fieldnames(m), "")
        row.update(index=index, swept_variable=variable, swept_value=_cell(value))
        try:
            point_cfg = _sweep_config(cfg, variable, value)
            system = build_system(point_cfg)
        except ValueError as exc:
            _note(row, exc)
            rows.append(row)
            continue
        row["band_params_md5"] = _band_hash(system)
        try:
            result = optimize_powers(system, solver_options(point_cfg))
            for i in range(m):
                row[f"p_d2d_w_{i}"] = _cell(result.alloc.p_d2d_w[i])
                row[f"p_cell_w_{i}"] = _cell(result.alloc.p_cell_w[i])
            row["ee_d2d_total"] = _cell(result.metrics.ee_d2d_total)
            row["ee_cell_total"] = _cell(result.metrics.ee_cell_total)
            row["ee_total"] = _cell(result.metrics.ee_total)
            row["iterations"] = result.trace.iterations
            row["converged"] = result.trace.converged
        except ValueError as exc:
            _note(row, exc)
        try:
            base = baseline_fixed_cell(
                system, point_cfg["baseline_p_cell_w"], solver_options(point_cfg)
            )
            row["baseline_ee_d2d_total"] = _cell(base.metrics.ee_d2d_total)
        except ValueError as exc:
            _note(row, exc, "baseline: ")
        rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# plot script templates (rendered next to the CSVs; they only read the CSV)

TRACE_PLOT = """\
#!/usr/bin/env python3
\"\"\"Plot per-iteration powers and energy efficiency from a trace CSV.\"\"\"
import csv
import sys

import matplotlib
matplotlib.use("Agg")
import matplotlib.pyplot as plt

path = sys.argv[1] if len(sys.argv) > 1 else "trace.csv"
rows = [r for r in csv.DictReader(
    ln for ln in open(path) if not ln.startswith("#"))]
its = [int(r["iteration"]) for r in rows]
bands = sorted(int(k.rsplit("_", 1)[1]) for k in rows[0] if k.startswith("p_d2d_w_"))
fig, (ax1, ax2) = plt.subplots(1, 2, figsize=(11, 4))
for i in bands:
    ax1.semilogy(its, [float(r[f"p_d2d_w_{i}"]) for r in rows], "o-", label=f"D2D band {i}")
    ax1.semilogy(its, [float(r[f"p_cell_w_{i}"]) for r in rows], "s--", label=f"cell band {i}")
ax1.set_xlabel("outer iteration"); ax1.set_ylabel("power [W]"); ax1.legend(fontsize=7)
ax2.semilogy(its, [float(r["ee_total"]) for r in rows], "k.-")
ax2.set_xlabel("outer iteration"); ax2.set_ylabel("total EE [bit/J]")
fig.tight_layout(); fig.savefig(path.replace(".csv", ".png"), dpi=150)
print("wrote", path.replace(".csv", ".png"))
"""

SWEEP_PLOT = """\
#!/usr/bin/env python3
\"\"\"Plot EE curves (joint vs fixed-cellular baseline) from a sweep CSV.\"\"\"
import csv
import sys

import matplotlib
matplotlib.use("Agg")
import matplotlib.pyplot as plt

path = sys.argv[1] if len(sys.argv) > 1 else "sweep.csv"
rows = [r for r in csv.DictReader(
    ln for ln in open(path) if not ln.startswith("#")) if r["ee_d2d_total"]]
x = [float(r["swept_value"]) for r in rows]
var = rows[0]["swept_variable"]
fig, ax = plt.subplots(figsize=(6, 4))
ax.loglog(x, [float(r["ee_d2d_total"]) for r in rows], "o-", label="D2D EE (joint)")
ax.loglog(x, [float(r["ee_cell_total"]) for r in rows], "s-", label="cellular EE (joint)")
if any(r["baseline_ee_d2d_total"] for r in rows):
    ax.loglog(x, [float(r["baseline_ee_d2d_total"]) for r in rows], "^--",
              label="D2D EE (fixed cellular power)")
ax.set_xlabel(var); ax.set_ylabel("EE [bit/J]"); ax.grid(True, which="both", alpha=0.3)
ax.legend()
fig.tight_layout(); fig.savefig(path.replace(".csv", ".png"), dpi=150)
print("wrote", path.replace(".csv", ".png"))
"""
