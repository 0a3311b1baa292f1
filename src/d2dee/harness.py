"""Experiment runners behind the CLI: validate, solve, trace, sweep.

Each command's output files are written by its ``write_<command>``, which
returns the summary the CLI prints.  Each output's keys are those of the one
type that carries them:

- ``validate.json``: each estimate record is ``simulate.StpEstimate``'s
  fields (``StpEstimate.to_record``) plus ``rng``, ``band``,
  ``count_prob`` and ``pass`` (``run_validate``);
- ``solve.json``: the result is ``solver.AllocationResult.to_dict``,
  whose ``metrics`` and ``feasibility`` are the fields of
  ``model.MetricsReport`` and ``FeasibilityReport``, and whose ``trace``
  holds ``iterates`` and ``converged``: each iterate is an ``Iterate``'s
  fields, its ``d2d`` and ``cell`` a ``PhaseResult``'s;
- ``trace.csv`` and ``sweep.csv``: the keys of their first row, which
  ``run_trace`` builds in column order and ``run_sweep`` from
  ``sweep_fieldnames``; both share the power and EE-total columns that
  ``_shared_columns`` names.

CSV files start with a comment line embedding the resolved config
(``_write_table``), and the JSON files carry it under ``config``
(``_write_json``), so a result can always be traced back to its inputs.
CSV bodies follow RFC-4180; reruns with the same config and seed are
byte-identical.

Only ``run_validate`` calls the Monte Carlo oracle, and it imports
``simulate``, and numpy with it, on first use: solve, trace and sweep
never load them.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from pathlib import Path

from .config import DENSITY_FIELDS, SWEEP_KEYS, ExperimentConfig
from .model import PowerAllocation, SystemParams, metrics
from .solver import (AllocationResult, InfeasibleProblem, _alternate, optimize_powers,
                     solve_d2d_phase)

__all__ = [
    "run_validate",
    "run_solve",
    "run_trace",
    "run_sweep",
    "write_validate",
    "write_solve",
    "write_trace",
    "write_sweep",
    "write_csv",
    "sweep_fieldnames",
]

# the links run_validate can report: "both" keeps the two records of a pass
VALIDATE_LINKS = ("d2d", "cell", "both")
VALIDATE_Z_LIMIT = 3.3
VALIDATE_ABS_LIMIT = 0.005
# two-sided normal mass beyond the z limit, ~9.7e-4
VALIDATE_TAIL_MASS = math.erfc(VALIDATE_Z_LIMIT / math.sqrt(2.0))


def _band_text(fields: dict) -> str:
    """One band's JSON text, as the band hash lists it."""
    return json.dumps(fields, sort_keys=True)


def _bands_md5(texts) -> str:
    """The md5 of the JSON list of the bands whose texts are ``texts``."""
    return hashlib.md5(f"[{', '.join(texts)}]".encode()).hexdigest()


def _band_hash(system: SystemParams) -> str:
    return _bands_md5(_band_text(vars(b)) for b in system.bands)


def _point_hash(system: SystemParams, key: str):
    """``_band_hash`` as a function of a sweep point's system, for points
    that set ``key`` of the config whose system is ``system``.  A budget
    point shares its bands, and so their md5.  A density point differs only
    in each band's one density: each band's text is rendered once, and each
    point renders only its densities, with one ``json.dumps`` of their list
    (as the full text has them, ``Infinity`` included), into it."""
    if key not in DENSITY_FIELDS:
        md5 = _band_hash(system)
        return lambda point: md5
    density = DENSITY_FIELDS[key][0]
    label = f'"{density}": '
    halves = [_band_text({**vars(b), density: None}).split(label + "null")
              for b in system.bands]

    def band_hash(point: SystemParams) -> str:
        # a rendered number holds no ", ", so the list splits into its items
        values = json.dumps([getattr(b, density) for b in point.bands])[1:-1].split(", ")
        return _bands_md5(f"{head}{label}{value}{tail}"
                          for (head, tail), value in zip(halves, values))

    return band_hash


def _cell(value: float) -> str:
    """Render a number as a CSV cell that float() reads back exactly.

    numpy 2 scalars repr as ``np.float64(...)``; casting first keeps every
    cell machine-parseable whatever type the config's inputs carried.
    """
    return repr(float(value))


def write_csv(path: Path, header_lines: list[str], fieldnames: list[str], rows: list[dict]) -> None:
    """Write ``rows`` under the comment lines ``header_lines`` and a header of
    ``fieldnames``: each row's values in that column order, as
    ``csv.DictWriter`` would, from rows that hold every column's key."""
    buf = io.StringIO()
    for line in header_lines:
        buf.write(line + "\r\n")
    writer = csv.writer(buf, lineterminator="\r\n")
    writer.writerow(fieldnames)
    writer.writerows([row[key] for key in fieldnames] for row in rows)
    path.write_text(buf.getvalue())


def read_csv(path: Path) -> list[dict]:
    """Read back a CSV written by write_csv, skipping comment lines."""
    lines = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
    return list(csv.DictReader(io.StringIO("\n".join(lines))))


def _write_json(path: Path, cfg: ExperimentConfig, fields: dict) -> None:
    """``fields`` after the resolved config, as every JSON output holds them."""
    path.write_text(json.dumps({"config": cfg.raw, **fields}, indent=2) + "\n")


def _write_table(out: Path, name: str, cfg: ExperimentConfig, rows: list[dict],
                 plot: str) -> Path:
    """``rows`` as ``out/<name>.csv`` under the resolved config, with the
    script ``plot`` beside it as ``plot_<name>.py``; the columns are the
    first row's keys.  Returns the CSV's path."""
    path = out / f"{name}.csv"
    write_csv(path, [f"# config: {json.dumps(cfg.raw, sort_keys=True)}"], list(rows[0]), rows)
    (out / f"plot_{name}.py").write_text(plot)
    return path


# ---------------------------------------------------------------------------
# validate


def run_validate(cfg: ExperimentConfig, which: str = "both") -> tuple[list[dict], bool]:
    """Monte Carlo estimates against the closed forms on band ``sim.band``.

    ``which`` is "d2d", "cell" or "both", checked before any draw and
    before the oracle, and numpy with it, is loaded.  Every
    estimate comes from one pass of ``estimate_links``, the one estimator,
    which draws each trial's two interferer fields once and scores both
    links; ``which`` only picks the records kept, in link order, D2D first.
    Passes when every estimate satisfies |z| <= 3.3 and
    |p_hat - analytic| <= 0.005.  When every trial fails or every trial
    succeeds the standard error is zero and z is undefined; the record's
    ``count_prob`` then holds the exact probability of that count under the
    closed form, (1 - analytic)^n or analytic^n, which must not fall below
    the z gate's two-sided mass VALIDATE_TAIL_MASS.  ``count_prob`` is None
    when z applies.
    """
    if which not in VALIDATE_LINKS:
        raise ValueError(f"which must be 'd2d', 'cell' or 'both', got {which!r}")
    # imported here: the oracle loads numpy, which no other command needs
    from .simulate import SimScenario, estimate_links

    sim = cfg["sim"]
    idx = sim["band"]
    # the sim section holds SimScenario's fields by name, and the band index
    scenario = SimScenario(band=cfg.system.bands[idx],
                           **{k: v for k, v in sim.items() if k != "band"})
    estimates = [est for est in estimate_links(scenario) if which in ("both", est.which)]
    records = []
    ok = True
    for est in estimates:
        rec = est.to_record()
        rec["band"] = idx
        gap = abs(est.p_hat - est.analytic)
        if est.std_err > 0:
            rec["count_prob"] = None
            z_ok = abs(est.z_score) <= VALIDATE_Z_LIMIT
        else:
            hit = est.analytic if est.p_hat == 1.0 else 1.0 - est.analytic
            rec["count_prob"] = hit**est.trials
            z_ok = rec["count_prob"] >= VALIDATE_TAIL_MASS
        rec["pass"] = bool(z_ok and gap <= VALIDATE_ABS_LIMIT)
        ok = ok and rec["pass"]
        records.append(rec)
    return records, ok


def write_validate(cfg: ExperimentConfig, out: Path, which: str) -> tuple[str, bool]:
    """Write ``validate.json``; returns one summary line per estimate, and the verdict."""
    records, ok = run_validate(cfg, which)
    _write_json(out / "validate.json", cfg, {"estimates": records, "pass": ok})
    lines = [
        f"{rec['which']}: p_hat={rec['p_hat']:.5f} analytic={rec['analytic']:.5f} "
        f"z={rec['z_score'] if rec['z_score'] is not None else 'n/a'} "
        f"-> {'pass' if rec['pass'] else 'FAIL'}"
        for rec in records
    ]
    return "\n".join(lines), ok


# ---------------------------------------------------------------------------
# solve / trace


def run_solve(cfg: ExperimentConfig) -> AllocationResult:
    return optimize_powers(cfg.system, cfg.options)


def write_solve(cfg: ExperimentConfig, out: Path) -> str:
    """Write ``solve.json``; returns the solve's table."""
    result = run_solve(cfg)
    _write_json(out / "solve.json", cfg, {"result": result.to_dict()})
    return format_solve_table(result)


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


def _shared_columns(num_bands: int) -> list[str]:
    """The columns that trace and sweep rows share, in order: each band's
    D2D power, each band's cellular power, then the three EE totals."""
    powers = [f"p_{cls}_w_{i}" for cls in ("d2d", "cell") for i in range(num_bands)]
    return powers + ["ee_d2d_total", "ee_cell_total", "ee_total"]


def _shared_cells(columns: list[str], p_d2d: list[float], p_cell: list[float],
                  ee_d2d: float, ee_cell: float) -> dict:
    """The cells of one row under ``columns``, the ``_shared_columns`` of its
    band count; ``ee_total`` is ee_d2d + ee_cell, as ``model.metrics`` sums it."""
    values = [*p_d2d, *p_cell, ee_d2d, ee_cell, ee_d2d + ee_cell]
    return dict(zip(columns, map(_cell, values)))


def run_trace(cfg: ExperimentConfig) -> tuple[list[dict], AllocationResult]:
    """One row per outer iteration, its cells in column order: the iteration,
    the shared columns, then the two power deltas."""
    result = run_solve(cfg)
    columns = _shared_columns(cfg["num_bands"])
    rows = [{"iteration": n,
             **_shared_cells(columns, it.d2d.powers, it.cell.powers,
                             it.ee_d2d_total, it.ee_cell_total),
             "delta_d_w": _cell(it.delta_d_w), "delta_c_w": _cell(it.delta_c_w)}
            for n, it in enumerate(result.trace.iterates, 1)]
    return rows, result


def write_trace(cfg: ExperimentConfig, out: Path) -> str:
    """Write ``trace.csv`` and ``plot_trace.py``; returns the iteration count
    and the CSV's path."""
    rows, result = run_trace(cfg)
    path = _write_table(out, "trace", cfg, rows, TRACE_PLOT)
    return f"{len(rows)} iterations, converged={result.trace.converged}\nwrote {path}"


# ---------------------------------------------------------------------------
# sweep


def sweep_fieldnames(num_bands: int) -> list[str]:
    return [
        "index",
        "swept_variable",
        "swept_value",
        *_shared_columns(num_bands),
        "baseline_ee_d2d_total",
        "iterations",
        "converged",
        "infeasible_bands",
        "band_params_md5",
    ]


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

    ``cfg`` is resolved once, and no point resolves again: each derives its
    system from ``cfg.system`` (``ExperimentConfig.point_system``).  A
    density point copies the bands with their one density changed and
    derives only their outage margins and phase constants, and a budget
    point shares them.  Every point solves with ``cfg``'s options and
    baseline cellular power, and its band md5 renders only the swept
    densities anew, in one ``json.dumps`` (see ``_point_hash``).

    A row reads only the joint solve's last iterate and the baseline's D2D
    EE total.  So a point runs ``solver._alternate``, the loop of
    ``optimize_powers``, and ``solve_d2d_phase`` at the baseline power on
    every band, as ``baseline_fixed_cell`` does, and evaluates ``metrics``
    once on each answer; it builds no trace, flags or feasibility report.
    Skipping the earlier iterates' ``metrics`` cannot change a row, as none
    of them could raise.  On a resolved config every cap is finite, and
    ``metrics`` raises only on a power that is not positive and finite or
    on a NaN success probability.  A phase returns neither: each power lies
    in its box [lo, hi], with lo > 0 and hi at most the cap, and ``_stp``
    drops the other class's term where its density is 0, the one case where
    that density times an overflowed power ratio would be NaN.
    """
    sweep = cfg["sweep"]
    variable, grid = sweep["variable"], sweep["grid"]
    if variable is None or not grid:
        raise ValueError("config field 'sweep': variable and grid must be set")
    key = SWEEP_KEYS[variable]
    fields = sweep_fieldnames(cfg["num_bands"])
    columns = _shared_columns(cfg["num_bands"])
    options = cfg.options
    base_p_cell = [cfg["baseline_p_cell_w"]] * cfg["num_bands"]
    band_hash = _point_hash(cfg.system, key)
    rows = []
    for index, value in enumerate(grid):
        row = dict.fromkeys(fields, "")
        row.update(index=index, swept_variable=variable, swept_value=_cell(value))
        try:
            system = cfg.point_system(key, value)
        except ValueError as exc:
            _note(row, exc)
            rows.append(row)
            continue
        row["band_params_md5"] = band_hash(system)
        try:
            for iterations, (phase_d, phase_c, _, _, converged) in enumerate(
                    _alternate(system, options), 1):
                pass
            rep = metrics(system, PowerAllocation(phase_d.powers, phase_c.powers))
            row.update(_shared_cells(columns, phase_d.powers, phase_c.powers,
                                     rep.ee_d2d_total, rep.ee_cell_total))
            row["iterations"] = iterations
            row["converged"] = converged
        except ValueError as exc:
            _note(row, exc)
        try:
            base = solve_d2d_phase(system, base_p_cell, options)
            rep = metrics(system, PowerAllocation(base.powers, base_p_cell))
            row["baseline_ee_d2d_total"] = _cell(rep.ee_d2d_total)
        except ValueError as exc:
            _note(row, exc, "baseline: ")
        rows.append(row)
    return rows


def write_sweep(cfg: ExperimentConfig, out: Path) -> tuple[str, int]:
    """Write ``sweep.csv`` and ``plot_sweep.py``; returns a summary of the
    CSV's path and the point counts, and the count of infeasible points."""
    rows = run_sweep(cfg)
    path = _write_table(out, "sweep", cfg, rows, SWEEP_PLOT)
    n_bad = sum(1 for r in rows if r["infeasible_bands"])
    return f"wrote {path} ({len(rows)} points, {n_bad} infeasible)", n_bad


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
