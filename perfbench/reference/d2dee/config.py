"""Experiment configuration: defaults, JSON load/save, system construction.

A config document is flat JSON; any omitted key takes the default below.
Per-band values accept either a scalar (broadcast to all bands) or a list
of length ``num_bands``.  SIR thresholds may be given in dB through the
``*_db`` variants, converted to linear at the boundary.
"""

from __future__ import annotations

import copy
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from .model import BandParams, SystemParams
from .solver import SolveOptions

__all__ = ["ExperimentConfig", "DEFAULTS", "load_config", "save_config", "build_system"]

DEFAULTS: dict = {
    "num_bands": 5,
    "bandwidth_hz": 20e6,
    "pathloss_exponent": 4.0,
    "sir_threshold_d2d": 1.0,
    "sir_threshold_cell": 1.0,
    "outage_cap_d2d": 0.05,
    "outage_cap_cell": 0.05,
    "d2d_link_distance_m": [10.0, 20.0, 30.0, 20.0, 10.0],
    "cell_link_distance_m": [50.0, 60.0, 70.0, 80.0, 90.0],
    "lambda_d_ref": 1e-4,
    "lambda_c_ref": 1.5e-5,
    "multiplier_d2d": [10.0, 1.0, 10.0, 10.0, 10.0],
    "multiplier_cell": [10.0, 1.0, 10.0, 10.0, 10.0],
    "max_power_d2d_w": 0.02,
    "max_power_cell_w": 0.3,
    "budget_d2d_w": 0.06,
    "budget_cell_w": 1.0,
    "baseline_p_cell_w": 0.325,
    "sweep": {"variable": None, "grid": []},
    "sim": {
        "window_radius_m": 2000.0,
        "trials": 100_000,
        "seed": 1,
        "workers": 1,
        "p_cell_w": 0.3,
        "p_d2d_w": 0.02,
        "band": 0,
    },
    "solver": {
        "eps_power_w": 1e-5,
        "max_outer_iters": 10,
        "budget_tol_rel": 1e-6,
        "grid_points": 256,
        "line_search_tol_rel": 1e-8,
        "phase2_mode": "coupled",
    },
}

_DB_KEYS = ("sir_threshold_d2d", "sir_threshold_cell")
_SWEEP_VARS = ("lambda_d_ref", "lambda_c_ref", "budget_d2d")


@dataclass
class ExperimentConfig:
    """Resolved configuration; ``raw`` is the canonical dict form."""

    raw: dict = field(default_factory=lambda: copy.deepcopy(DEFAULTS))

    def __getitem__(self, key):
        return self.raw[key]

    def to_dict(self) -> dict:
        return copy.deepcopy(self.raw)

    def to_json(self) -> str:
        return json.dumps(self.raw, indent=2, sort_keys=True)

    def with_overrides(self, **kwargs) -> "ExperimentConfig":
        new = self.to_dict()
        for key, value in kwargs.items():
            if value is None:
                continue
            if key in ("trials", "seed", "workers"):
                new["sim"][key] = value
            elif key == "phase2_mode":
                new["solver"][key] = value
            elif key in ("sweep_variable", "sweep_grid"):
                new["sweep"]["variable" if key == "sweep_variable" else "grid"] = value
            else:
                new[key] = value
        return _resolve(new)


def _fail(field_name: str, why: str):
    raise ValueError(f"config field '{field_name}': {why}")


def _resolve(doc: dict) -> ExperimentConfig:
    cfg = copy.deepcopy(DEFAULTS)
    for key, value in doc.items():
        base = key[:-3] if key.endswith("_db") else key
        if base not in cfg:
            _fail(key, "unknown key")
        if key.endswith("_db"):
            if base not in _DB_KEYS:
                _fail(key, "dB form only supported for SIR thresholds")
            if base in doc:
                _fail(key, f"both linear and dB values given for {base}")
            if isinstance(value, list):
                cfg[base] = [10.0 ** (v / 10.0) for v in value]
            else:
                cfg[base] = 10.0 ** (value / 10.0)
        elif isinstance(cfg[key], dict):
            if not isinstance(value, dict):
                _fail(key, "expected a mapping")
            for sub, sval in value.items():
                if sub not in cfg[key]:
                    _fail(f"{key}.{sub}", "unknown key")
                cfg[key][sub] = sval
        else:
            cfg[key] = value
    _validate(cfg)
    return ExperimentConfig(raw=cfg)


def _per_band(cfg: dict, key: str) -> list[float]:
    m = cfg["num_bands"]
    value = cfg[key]
    if isinstance(value, list):
        if len(value) != m:
            _fail(key, f"expected {m} entries, got {len(value)}")
        return [float(v) for v in value]
    return [float(value)] * m


def _validate(cfg: dict) -> None:
    if not isinstance(cfg["num_bands"], int) or cfg["num_bands"] < 1:
        _fail("num_bands", "must be a positive integer")
    if cfg["pathloss_exponent"] <= 2.0:
        _fail(
            "pathloss_exponent",
            "pathloss exponent must exceed 2 (interference Laplace functional diverges)",
        )
    for key in ("lambda_d_ref", "lambda_c_ref"):
        if cfg[key] < 0:
            _fail(key, "must be nonnegative")
    for key in ("budget_d2d_w", "budget_cell_w", "baseline_p_cell_w"):
        if cfg[key] <= 0:
            _fail(key, "must be positive")
    sweep = cfg["sweep"]
    if sweep["variable"] is not None:
        if sweep["variable"] not in _SWEEP_VARS:
            _fail("sweep.variable", f"must be one of {_SWEEP_VARS}")
        if not sweep["grid"]:
            _fail("sweep.grid", "must be nonempty when a sweep variable is set")
    # constructing the system surfaces any remaining unit violation
    build_system(ExperimentConfig(raw=cfg))
    SolveOptions(**cfg["solver"])


def load_config(path: str | Path) -> ExperimentConfig:
    """Parse a JSON config document, filling unset keys with the defaults."""
    text = Path(path).read_text()
    if not text.strip():
        doc = {}
    else:
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValueError(f"malformed config document: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValueError("malformed config document: top level must be an object")
    return _resolve(doc)


def save_config(cfg: ExperimentConfig, path: str | Path) -> None:
    Path(path).write_text(cfg.to_json() + "\n")


def build_system(cfg: ExperimentConfig | dict) -> SystemParams:
    """Construct SystemParams from a config, applying density multipliers."""
    raw = cfg.raw if isinstance(cfg, ExperimentConfig) else cfg
    m = raw["num_bands"]
    bw = _per_band(raw, "bandwidth_hz")
    t_d = _per_band(raw, "sir_threshold_d2d")
    t_c = _per_band(raw, "sir_threshold_cell")
    th_d = _per_band(raw, "outage_cap_d2d")
    th_c = _per_band(raw, "outage_cap_cell")
    r_d = _per_band(raw, "d2d_link_distance_m")
    r_c = _per_band(raw, "cell_link_distance_m")
    mul_d = _per_band(raw, "multiplier_d2d")
    mul_c = _per_band(raw, "multiplier_cell")
    cap_d = _per_band(raw, "max_power_d2d_w")
    cap_c = _per_band(raw, "max_power_cell_w")
    bands = []
    for i in range(m):
        try:
            bands.append(
                BandParams(
                    bandwidth_hz=bw[i],
                    pathloss_exponent=float(raw["pathloss_exponent"]),
                    sir_threshold_d2d=t_d[i],
                    sir_threshold_cell=t_c[i],
                    density_d2d=mul_d[i] * raw["lambda_d_ref"],
                    density_cell=mul_c[i] * raw["lambda_c_ref"],
                    d2d_link_distance_m=r_d[i],
                    cell_link_distance_m=r_c[i],
                    outage_cap_d2d=th_d[i],
                    outage_cap_cell=th_c[i],
                    max_power_d2d_w=cap_d[i],
                    max_power_cell_w=cap_c[i],
                )
            )
        except ValueError as exc:
            raise ValueError(f"config band {i}: {exc}") from exc
    return SystemParams(
        bands=bands,
        budget_d2d_w=float(raw["budget_d2d_w"]),
        budget_cell_w=float(raw["budget_cell_w"]),
    )


def solver_options(cfg: ExperimentConfig) -> SolveOptions:
    return SolveOptions(**cfg["solver"])
