"""The benchmark's workloads: seeded inputs, CLI command lines and output checks.

Each workload turns a seed into the arguments of ``d2dee`` commands and
checks what each command wrote.  The checks recompute feasibility and the
analytic anchors from the benchmark's own copy of the inputs, through the
closed forms in ``d2dee.model``; they never compare against stored results,
because planned solver changes move the reported values on purpose.  The
checks import d2dee when they run: run.py puts it on the path only after
finding it.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

# Acceptance gates of a Monte Carlo estimate, as in the program's validate command.
VALIDATE_Z_LIMIT = 3.3
VALIDATE_ABS_LIMIT = 0.005
# Standard error that se_time_s projects the validate run time to.
TARGET_STD_ERR = 1e-3
# Constraint slack tolerated when rechecking a sweep row.
SLACK = 1e-8

# Band 1 of the program's default config and the default Monte Carlo powers.
# The validate workload runs on the default config; its check recomputes the
# analytic success probabilities from these values.
DEFAULT_BAND1 = dict(
    bandwidth_hz=20e6,
    pathloss_exponent=4.0,
    sir_threshold_d2d=1.0,
    sir_threshold_cell=1.0,
    density_d2d=1e-4,
    density_cell=1.5e-5,
    d2d_link_distance_m=20.0,
    cell_link_distance_m=60.0,
    outage_cap_d2d=0.05,
    outage_cap_cell=0.05,
    max_power_d2d_w=0.02,
    max_power_cell_w=0.3,
)
DEFAULT_SIM_POWERS = dict(p_cell_w=0.3, p_d2d_w=0.02)

# Acceptance criterion 6: the Table-1 layout at T = 1e-6 with a slack D2D budget.
DENSITY_CONFIG = {
    "num_bands": 5,
    "bandwidth_hz": 20e6,
    "pathloss_exponent": 4.0,
    "sir_threshold_d2d": 1e-6,
    "sir_threshold_cell": 1e-6,
    "outage_cap_d2d": 0.05,
    "outage_cap_cell": 0.05,
    "d2d_link_distance_m": [10.0, 20.0, 30.0, 20.0, 10.0],
    "cell_link_distance_m": [50.0, 60.0, 70.0, 80.0, 90.0],
    "lambda_d_ref": 1e-4,
    "lambda_c_ref": 1e-5,
    "multiplier_d2d": [10.0, 1.0, 10.0, 10.0, 10.0],
    "multiplier_cell": [10.0, 1.0, 10.0, 10.0, 10.0],
    "max_power_d2d_w": 0.02,
    "max_power_cell_w": 0.3,
    "budget_d2d_w": 0.08,
    "budget_cell_w": 1.0,
    "baseline_p_cell_w": 0.325,
}

# Interference coupling 2.5 per unit multiplier at 20 m links and T = 1, with
# caps lifted so that the power scale grows until both budgets bind.
_COUPLED_DENSITY = 2.5 / (math.pi * 20.0**2 * math.pi / 2.0)
BUDGET_CONFIG = {
    "num_bands": 5,
    "bandwidth_hz": 20e6,
    "pathloss_exponent": 4.0,
    "sir_threshold_d2d": 1.0,
    "sir_threshold_cell": 1.0,
    "outage_cap_d2d": 0.999,
    "outage_cap_cell": 0.999999,
    "d2d_link_distance_m": 20.0,
    "cell_link_distance_m": 20.0,
    "lambda_d_ref": _COUPLED_DENSITY,
    "lambda_c_ref": _COUPLED_DENSITY,
    "multiplier_d2d": [1.0, 1.1, 1.2, 1.3, 1.4],
    "multiplier_cell": [1.0, 1.1, 1.2, 1.3, 1.4],
    "max_power_d2d_w": 1e3,
    "max_power_cell_w": 1e3,
    "budget_d2d_w": 0.1,
    "budget_cell_w": 0.1,
    "baseline_p_cell_w": 0.02,
}


@dataclass
class Outcome:
    """Checked result of one command: operations attempted and failed."""

    attempted: int
    failed: int
    std_err_max: float | None = None
    reasons: list[str] = field(default_factory=list)


def _per_band(value, m: int) -> list[float]:
    return [float(v) for v in value] if isinstance(value, list) else [float(value)] * m


def band_params(doc: dict, lambda_d_ref: float, lambda_c_ref: float) -> list[dict]:
    """BandParams keyword sets of a flat config document at given reference densities."""
    m = doc["num_bands"]
    cols = {
        key: _per_band(doc[key], m)
        for key in (
            "bandwidth_hz", "sir_threshold_d2d", "sir_threshold_cell",
            "d2d_link_distance_m", "cell_link_distance_m", "outage_cap_d2d",
            "outage_cap_cell", "max_power_d2d_w", "max_power_cell_w",
            "multiplier_d2d", "multiplier_cell",
        )
    }
    return [
        dict(
            bandwidth_hz=cols["bandwidth_hz"][i],
            pathloss_exponent=float(doc["pathloss_exponent"]),
            sir_threshold_d2d=cols["sir_threshold_d2d"][i],
            sir_threshold_cell=cols["sir_threshold_cell"][i],
            density_d2d=cols["multiplier_d2d"][i] * lambda_d_ref,
            density_cell=cols["multiplier_cell"][i] * lambda_c_ref,
            d2d_link_distance_m=cols["d2d_link_distance_m"][i],
            cell_link_distance_m=cols["cell_link_distance_m"][i],
            outage_cap_d2d=cols["outage_cap_d2d"][i],
            outage_cap_cell=cols["outage_cap_cell"][i],
            max_power_d2d_w=cols["max_power_d2d_w"][i],
            max_power_cell_w=cols["max_power_cell_w"][i],
        )
        for i in range(m)
    ]


def stratified_log_grid(rng: random.Random, lo: float, hi: float, n: int) -> list[float]:
    """One log-uniform draw in each of n log-equal cells of [lo, hi], ascending."""
    span = math.log(hi / lo)
    return [lo * math.exp(span * (j + rng.random()) / n) for j in range(n)]


class Validate:
    """``d2dee validate`` on band 1 of the default config, both links."""

    name = "validate-band1"
    ops_unit = "trials"
    # The frozen copy's time for its commands (frozen_argvs, see run.py) on
    # the machine the benchmark was defined on; it only fixes the unit of
    # the time metrics.
    reference_round_s = 3.2
    links = ("d2d", "cell")

    def __init__(self, seed: int, tiny: bool, workdir: Path):
        self.trials = 2_000 if tiny else 100_000
        self.workdir = workdir
        self.argvs = [[
            "validate", "--band", "1", "--which", "both",
            "--trials", str(self.trials), "--workers", "2",
            "--seed", str(seed), "--out", str(workdir),
        ]]
        # The frozen copy runs half the trials, so that a run holds more pairs.
        frozen = list(self.argvs[0])
        frozen[frozen.index("--trials") + 1] = str(self.trials // 2)
        self.frozen_argvs = [frozen]
        self.ops = self.trials * len(self.links)
        self.inputs = {"validate_seed": seed, "trials": self.trials, "band": 1, "workers": 2}
        self._first: dict | None = None

    def outputs(self) -> list[Path]:
        return [self.workdir / "validate.json"]

    def check(self, command: int, code, error) -> Outcome:
        out = Outcome(attempted=len(self.links), failed=0)
        if error is not None:
            out.failed = out.attempted
            out.reasons.append(f"command raised {error!r}")
            return out
        try:
            records = json.loads((self.workdir / "validate.json").read_text())["estimates"]
        except (OSError, ValueError, KeyError, TypeError) as exc:
            out.failed = out.attempted
            out.reasons.append(f"validate.json unreadable: {exc!r}")
            return out
        from d2dee.model import BandParams, stp_cell, stp_d2d

        band = BandParams(**DEFAULT_BAND1)
        anchors = {
            "d2d": stp_d2d(band, **DEFAULT_SIM_POWERS),
            "cell": stp_cell(band, **DEFAULT_SIM_POWERS),
        }
        by_link = {rec.get("which"): rec for rec in records if isinstance(rec, dict)}
        errs = []
        seen = {}
        for link in self.links:
            rec = by_link.get(link)
            why = self._check_estimate(rec, anchors[link])
            if why is None:
                seen[link] = (rec["p_hat"], rec["std_err"])
                if self._first is not None and self._first.get(link) != seen[link]:
                    why = "estimate differs from the first run with the same seed"
                errs.append(rec["std_err"])
            if why is not None:
                out.failed += 1
                out.reasons.append(f"{link}: {why}")
        if self._first is None:
            self._first = seen
        if out.failed == 0 and code != 0:
            out.reasons.append(f"exit code {code} with every estimate passing")
            out.failed = out.attempted
        out.std_err_max = max(errs) if errs else None
        return out

    @staticmethod
    def _check_estimate(rec: dict | None, analytic: float) -> str | None:
        if rec is None:
            return "estimate missing"
        try:
            p_hat, std_err = float(rec["p_hat"]), float(rec["std_err"])
            reported = float(rec["analytic"])
        except (KeyError, TypeError, ValueError) as exc:
            return f"malformed record: {exc!r}"
        if not (0.0 <= p_hat <= 1.0 and std_err >= 0.0 and math.isfinite(std_err)):
            return f"p_hat={p_hat} std_err={std_err} out of range"
        if not math.isclose(reported, analytic, rel_tol=1e-9):
            return f"reported analytic {reported} != closed form {analytic}"
        gap = abs(p_hat - analytic)
        if gap > VALIDATE_ABS_LIMIT:
            return f"|p_hat - analytic| = {gap:.5f} > {VALIDATE_ABS_LIMIT}"
        if std_err > 0 and gap / std_err > VALIDATE_Z_LIMIT:
            return f"|z| = {gap / std_err:.2f} > {VALIDATE_Z_LIMIT}"
        return None


class Sweep:
    """``d2dee sweep`` over a seeded, stratified log-uniform grid.

    The grid is swept in ``slices`` commands, command k taking every
    slices-th point from the k-th, so each command spans the whole range.
    """

    ops_unit = "points"
    name = ""
    variable = ""
    reference_round_s = 0.0
    config: dict = {}
    lo = hi = 0.0
    points = tiny_points = 0
    slices = 1

    _NUMERIC = ("index", "swept_value", "ee_d2d_total", "ee_cell_total", "ee_total",
                "baseline_ee_d2d_total", "iterations")

    def __init__(self, seed: int, tiny: bool, workdir: Path):
        self.workdir = workdir
        n = self.tiny_points if tiny else self.points
        grid = stratified_log_grid(random.Random(seed), self.lo, self.hi, n)
        slices = min(self.slices, n)
        self.grids = [grid[k::slices] for k in range(slices)]
        config_path = workdir / "config.json"
        config_path.write_text(json.dumps(self.config, indent=2) + "\n")
        self.argvs = [
            ["sweep", "--config", str(config_path), "--sweep-var", self.variable,
             "--sweep-grid", ",".join(repr(v) for v in g), "--out", str(workdir)]
            for g in self.grids
        ]
        self.frozen_argvs = self.argvs
        self.ops = n // slices
        self.inputs = {"grid_points": n, "commands": slices, "grid_lo": self.lo,
                       "grid_hi": self.hi, "grid_min": grid[0], "grid_max": grid[-1]}
        self._first: list[list[dict] | None] = [None] * slices

    def outputs(self) -> list[Path]:
        return [self.workdir / "sweep.csv"]

    def point_system(self, value: float) -> tuple[list[dict], float, float]:
        """Band parameters and the (D2D, cellular) budgets at one grid value."""
        doc = self.config
        lam_d, lam_c = doc["lambda_d_ref"], doc["lambda_c_ref"]
        budget_d = doc["budget_d2d_w"]
        if self.variable == "lambda_d_ref":
            lam_d = value
        elif self.variable == "lambda_c_ref":
            lam_c = value
        else:
            budget_d = value
        return band_params(doc, lam_d, lam_c), budget_d, doc["budget_cell_w"]

    def check(self, command: int, code, error) -> Outcome:
        grid, first = self.grids[command], self._first[command]
        out = Outcome(attempted=len(grid), failed=0)
        if error is not None or code != 0:
            out.failed = out.attempted
            out.reasons.append(f"command raised {error!r}" if error else f"exit code {code}")
            return out
        try:
            text = (self.workdir / "sweep.csv").read_text()
        except OSError as exc:
            out.failed = out.attempted
            out.reasons.append(f"sweep.csv unreadable: {exc!r}")
            return out
        body = "\n".join(ln for ln in text.splitlines() if not ln.startswith("#"))
        rows = list(csv.DictReader(io.StringIO(body)))
        for index, value in enumerate(grid):
            row = rows[index] if index < len(rows) else None
            why = "row missing" if row is None else self._check_row(index, value, row)
            if why is None and first is not None and first[index] != row:
                why = "row differs from the first run with the same grid"
            if why is not None:
                out.failed += 1
                if len(out.reasons) < 5:
                    out.reasons.append(f"row {index}: {why}")
        if len(rows) != len(grid):
            out.reasons.append(f"{len(rows)} rows for {len(grid)} grid points")
        if first is None and out.failed == 0:
            self._first[command] = rows
        return out

    def _check_row(self, index: int, value: float, row: dict) -> str | None:
        if row.get("infeasible_bands"):
            return f"infeasible: {row['infeasible_bands']}"
        bands, budget_d, budget_c = self.point_system(value)
        m = len(bands)
        cols = list(self._NUMERIC)
        cols += [f"p_d2d_w_{i}" for i in range(m)] + [f"p_cell_w_{i}" for i in range(m)]
        nums = {}
        for col in cols:
            try:
                nums[col] = float(row[col])
            except (KeyError, TypeError, ValueError):
                return f"cell {col}={row.get(col)!r} does not parse as a number"
        if int(nums["index"]) != index or nums["swept_value"] != value:
            return f"row is index {row['index']} at {row['swept_value']}, expected {index} at {value!r}"
        from d2dee.model import BandParams, stp_cell, stp_d2d

        p_d = [nums[f"p_d2d_w_{i}"] for i in range(m)]
        p_c = [nums[f"p_cell_w_{i}"] for i in range(m)]
        for i, kw in enumerate(bands):
            if not (p_d[i] > 0 and p_c[i] > 0):
                return f"band {i}: nonpositive power ({p_d[i]}, {p_c[i]})"
            band = BandParams(**kw)
            slacks = {
                "cap_d2d": band.max_power_d2d_w - p_d[i],
                "cap_cell": band.max_power_cell_w - p_c[i],
                "qos_d2d": band.outage_cap_d2d - (1.0 - stp_d2d(band, p_c[i], p_d[i])),
                "qos_cell": band.outage_cap_cell - (1.0 - stp_cell(band, p_c[i], p_d[i])),
            }
            for name, slack in slacks.items():
                if not slack >= -SLACK:
                    return f"band {i}: {name} violated by {-slack:.3e}"
        if not budget_d - math.fsum(p_d) >= -SLACK:
            return f"budget_d2d exceeded: {math.fsum(p_d)!r} > {budget_d!r}"
        if not budget_c - math.fsum(p_c) >= -SLACK:
            return f"budget_cell exceeded: {math.fsum(p_c)!r} > {budget_c!r}"
        return None


class SweepDensity(Sweep):
    """Slack budgets (mu = 0 throughout); phase-one grid search dominates."""

    name = "sweep-density"
    variable = "lambda_d_ref"
    config = DENSITY_CONFIG
    lo, hi = 1e-5, 1e-3
    points, tiny_points = 500, 10
    reference_round_s = 3.3
    # Five 100-point commands (0.6-1 s each) rather than one 500-point
    # command: the machine's speed drifts within seconds, and short commands
    # keep each program run close in time to its frozen-copy run (run.py).
    slices = 5


class SweepBudget(Sweep):
    """Binding budgets (mu > 0); phase-two dual bisection dominates."""

    name = "sweep-budget"
    variable = "budget_d2d"
    config = BUDGET_CONFIG
    lo, hi = 0.1, 1.0
    points, tiny_points = 8, 2
    reference_round_s = 4.8
    slices = 4  # 2-point commands, for the same reason as sweep-density's


WORKLOADS = {cls.name: cls for cls in (Validate, SweepDensity, SweepBudget)}
