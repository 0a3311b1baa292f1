"""Per-layer tracing of the d2dee modules, installed from outside the program.

Each traced function is wrapped once, and the wrapper is set with
``setattr`` on every d2dee module that holds the original under that name,
which is where the calling module looks it up; a method is set on its
class.  ``uninstall`` puts the originals back, so untraced commands run the
program untouched.  Spans stay in memory until ``write_spans``.

A wrapper also reads a few values the traced function returns (the budget
multiplier of each phase, the iteration count of a solve, the standard
error of an estimate).  It never changes them.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import statistics
import sys
import time
from pathlib import Path

# (module, attribute) pairs in the d2dee package; spans are named
# "<module>.<function>".
TARGETS = (
    ("cli", "main"),
    ("config", "load_config"),
    ("config", "build_system"),
    ("config", "ExperimentConfig.with_overrides"),
    ("harness", "run_validate"),
    ("harness", "run_sweep"),
    ("harness", "write_csv"),
    ("solver", "optimize_powers"),
    ("solver", "solve_d2d_phase"),
    ("solver", "solve_cell_phase"),
    ("solver", "x_feasible_box"),
    ("solver", "baseline_fixed_cell"),
    ("solver", "check_feasible"),
    ("model", "metrics"),
    ("simulate", "estimate_stp"),
)

# Every per-layer metric, with its unit and which direction is better.
PER_LAYER = (
    ("simulate.estimate_stp.calls", "count", "lower"),
    ("simulate.estimate_stp.s", "s", "lower"),
    ("simulate.interferers", "computed_count", "lower"),
    ("simulate.ns_per_interferer", "ns", "lower"),
    ("simulate.var_reduction", "ratio", "higher"),
    ("solver.solve_d2d_phase.calls", "count", "lower"),
    ("solver.solve_d2d_phase.self_s", "s", "lower"),
    ("solver.solve_d2d_phase.mu_pos_frac", "frac", "lower"),
    ("solver.x_feasible_box.calls", "count", "lower"),
    ("solver.x_feasible_box.s", "s", "lower"),
    ("solver.solve_cell_phase.calls", "count", "lower"),
    ("solver.solve_cell_phase.self_s", "s", "lower"),
    ("solver.solve_cell_phase.mu_pos_frac", "frac", "lower"),
    ("solver.optimize_powers.calls", "count", "lower"),
    ("solver.optimize_powers.self_s", "s", "lower"),
    ("solver.optimize_powers.p50_ms", "ms", "lower"),
    ("solver.optimize_powers.p90_ms", "ms", "lower"),
    ("solver.optimize_powers.iterations", "iter", "lower"),
    ("solver.optimize_powers.converged_frac", "frac", "higher"),
    ("solver.baseline_fixed_cell.calls", "count", "lower"),
    ("solver.baseline_fixed_cell.self_s", "s", "lower"),
    ("solver.check_feasible.s", "s", "lower"),
    ("model.metrics.calls", "count", "lower"),
    ("model.metrics.s", "s", "lower"),
    ("config.with_overrides.calls", "count", "lower"),
    ("config.with_overrides.self_s", "s", "lower"),
    ("config.build_system.calls", "count", "lower"),
    ("config.build_system.s", "s", "lower"),
    ("config.load_config.s", "s", "lower"),
    ("harness.run_sweep.self_s", "s", "lower"),
    ("harness.run_validate.self_s", "s", "lower"),
    ("harness.write_csv.s", "s", "lower"),
    ("harness.write_csv.bytes", "B", "lower"),
    ("cli.main.s", "s", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("trace.overhead_frac", "frac", "lower"),
)


def _mu_positive(diag_index):
    def read(args, kwargs, result):
        return result[diag_index]["mu"] > 0.0
    return read


def _solve_stats(args, kwargs, result):
    return [result.trace.iterations, bool(result.trace.converged)]


def _estimate_stats(args, kwargs, result):
    scenario = args[0] if args else kwargs["scenario"]
    band = scenario.band
    interferers = (scenario.trials * (band.density_d2d + band.density_cell)
                   * math.pi * scenario.window_radius_m**2)
    p, n, se = result.p_hat, result.trials, result.std_err
    var_reduction = p * (1.0 - p) / n / se**2 if se > 0 else None
    return [interferers, var_reduction]


def _csv_bytes(args, kwargs, result):
    return Path(args[0] if args else kwargs["path"]).stat().st_size


READERS = {
    "solver.solve_d2d_phase": _mu_positive(2),
    "solver.solve_cell_phase": _mu_positive(1),
    "solver.optimize_powers": _solve_stats,
    "simulate.estimate_stp": _estimate_stats,
    "harness.write_csv": _csv_bytes,
}


def _percentile(values: list[float], q: int) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


class Tracer:
    """Span recorder for the traced d2dee functions."""

    def __init__(self):
        # span: [name, start, end, parent index, child seconds, value read]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.absent: list[str] = []
        self.unreadable: set[str] = set()

    def _wrap(self, name, fn, reader):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            span = [name, 0.0, 0.0, parent, 0.0, None]
            stack.append(len(spans))
            spans.append(span)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                span[1], span[2] = start, end
                if parent >= 0:
                    spans[parent][4] += end - start
            if reader is not None:
                try:
                    span[5] = reader(args, kwargs, result)
                except (AttributeError, KeyError, TypeError, IndexError, OSError):
                    self.unreadable.add(name)
            return result

        return traced

    def install(self) -> None:
        """Wrap every target that exists; record the ones that do not."""
        modules = [mod for key, mod in list(sys.modules.items()) if key.startswith("d2dee.")]
        self.absent = []
        for module_name, attr_path in TARGETS:
            owner_name, _, attr = attr_path.rpartition(".")
            name = f"{module_name}.{attr}"
            try:
                module = importlib.import_module(f"d2dee.{module_name}")
            except ImportError:
                module = None
            owner = getattr(module, owner_name, None) if owner_name else module
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, original, READERS.get(name))
            holders = [owner] if owner_name else [
                mod for mod in modules if mod.__dict__.get(attr) is original
            ]
            for holder in holders:
                self._patches.append((holder, attr, original))
                setattr(holder, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            holder, attr, original = self._patches.pop()
            setattr(holder, attr, original)

    def write_spans(self, path: Path) -> None:
        """Write every span as one JSON line: name, start, end, parent, value."""
        with path.open("w") as fh:
            for name, start, end, parent, _, value in self.spans:
                fh.write(json.dumps([name, start, end, parent, value]) + "\n")

    def layer_metrics(self, commands: int, overhead_frac: float) -> dict:
        """Per-layer metrics, as totals per traced command."""
        by_name: dict[str, list[list]] = {}
        for span in self.spans:
            by_name.setdefault(span[0], []).append(span)

        def calls(name):
            return len(by_name.get(name, ())) / commands

        def total(name):
            return math.fsum(s[2] - s[1] for s in by_name.get(name, ())) / commands

        def self_time(name):
            return math.fsum(s[2] - s[1] - s[4] for s in by_name.get(name, ())) / commands

        def values(name):
            return [s[5] for s in by_name.get(name, ()) if s[5] is not None]

        def frac(flags):
            return sum(1 for f in flags if f) / len(flags) if flags else 0.0

        solve_ms = sorted(1e3 * (s[2] - s[1]) for s in by_name.get("solver.optimize_powers", ()))
        solve_stats = values("solver.optimize_powers")
        estimates = values("simulate.estimate_stp")
        interferers = math.fsum(e[0] for e in estimates) / commands
        reductions = [e[1] for e in estimates if e[1] is not None]

        # <span>.calls, <span>.s and <span>.self_s come from the span name;
        # the rest are read from the values the wrappers recorded
        by_stat = {"calls": calls, "s": total, "self_s": self_time}
        special = {
            "simulate.interferers": interferers,
            "simulate.ns_per_interferer": (
                1e9 * total("simulate.estimate_stp") / interferers if interferers else 0.0
            ),
            "simulate.var_reduction": statistics.fmean(reductions) if reductions else 0.0,
            "solver.solve_d2d_phase.mu_pos_frac": frac(values("solver.solve_d2d_phase")),
            "solver.solve_cell_phase.mu_pos_frac": frac(values("solver.solve_cell_phase")),
            "solver.optimize_powers.p50_ms": _percentile(solve_ms, 50),
            "solver.optimize_powers.p90_ms": _percentile(solve_ms, 90),
            "solver.optimize_powers.iterations": (
                statistics.fmean(s[0] for s in solve_stats) if solve_stats else 0.0
            ),
            "solver.optimize_powers.converged_frac": frac([s[1] for s in solve_stats]),
            "harness.write_csv.bytes": math.fsum(values("harness.write_csv")) / commands,
            "trace.overhead_frac": overhead_frac,
        }
        out = {}
        for name, unit, _ in PER_LAYER:
            span, _, stat = name.rpartition(".")
            value = special[name] if name in special else by_stat[stat](span)
            out[name] = {"value": value, "unit": unit}
        return out
