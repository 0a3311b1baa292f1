"""Experiment configuration: defaults, JSON load/save, system construction.

A config document is flat JSON; any omitted key takes the default below.
Per-band values accept either a scalar (broadcast to all bands) or a list
of length ``num_bands``.  SIR thresholds may be given in dB through the
``*_db`` variants, converted to linear at the boundary.

Each key has one rule, and ``_fault`` applies it, to a resolved document
and to a single sweep value alike: a count must be an integer and any
other number finite (a bool is neither), and then pass its rule, a
per-band list entry by entry.  A key that names a field of a type takes
that field's rule from ``model._RULES``, as the type does, and fails as
``config field '<key>': <why>`` with the type's why.  ``_validate`` makes
one pass in ``DEFAULTS`` order, a section's entries in theirs, and names
the first fault it meets.  Only checks of two fields come after it:
``sim.band`` against ``num_bands``, the sweep's variable against its grid,
a per-band list's length, and what a band forms of several fields
(``config band <i>:``), such as a coefficient that is not finite.

A retired key still loads from older saved configs, but only at its one old
meaning, which the toolkit now always runs; any other value is rejected by
name.  Every entry point merges its overrides into a document (``_merge``)
and resolves that once, in ``_resolve``, the one place a document is
copied.  The copy is shaped for JSON: it rebuilds every dict and list and
shares the rest, which in a valid document are immutable scalars.  So a
resolved config shares no list or dict with ``DEFAULTS``, its document,
its overrides or the config it came from.  It builds its ``system`` and
solver ``options`` once.

A sweep point resolves nothing: it derives from the resolved config that
holds the sweep.  ``ExperimentConfig.point_system`` checks the one swept
value by its key's rule and replaces one field of the config's system
(``dataclasses.replace``), so every other field reaches the point as it
is.  A budget point shares the bands; a density point copies each band
with its one density set and derives that band's outage margins and phase
constants anew, keeping its interference coefficients and rates.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

from .model import _RULES as _FIELD_RULES, BandParams, SystemParams, _fault as _rule_fault
from .solver import BUDGET_TOL_REL, SolveOptions

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
    "solver": {f.name: f.default for f in fields(SolveOptions)},
}

_DB_KEYS = ("sir_threshold_d2d", "sir_threshold_cell")
# keys that take a scalar or one entry per band; all but two name BandParams fields
_PER_BAND = ("bandwidth_hz", "sir_threshold_d2d", "sir_threshold_cell", "outage_cap_d2d",
             "outage_cap_cell", "d2d_link_distance_m", "cell_link_distance_m",
             "multiplier_d2d", "multiplier_cell", "max_power_d2d_w", "max_power_cell_w")
# sweep variable -> the config key that each sweep point sets
SWEEP_KEYS = {"lambda_d_ref": "lambda_d_ref", "lambda_c_ref": "lambda_c_ref",
              "budget_d2d": "budget_d2d_w"}
# reference density key -> (the band field it sets, the per-band key that scales it)
DENSITY_FIELDS = {"lambda_d_ref": ("density_d2d", "multiplier_d2d"),
                  "lambda_c_ref": ("density_cell", "multiplier_cell")}
# override -> the section whose key it sets: its own name, less "sweep_"
_SECTION_OF = {"trials": "sim", "seed": "sim", "workers": "sim", "band": "sim",
               "sweep_variable": "sweep", "sweep_grid": "sweep"}
# retired key -> its one accepted value; None accepts any value of the retired
# grid/golden-section search's knobs, which all asked for the per-band maximum
_RETIRED = {("solver", "grid_points"): None, ("solver", "line_search_tol_rel"): None,
            ("solver", "phase2_mode"): "coupled", ("solver", "budget_tol_rel"): BUDGET_TOL_REL}
# (key, None) or (section, key) -> its rule, as model._RULES has them; a
# band's densities are lambda_*_ref times multiplier_*, so those have the
# density rule.  A key without an entry has no rule but its type (_NUMBER).
_RULES = {
    ("num_bands", None): (True, ((lambda v: v >= 1, "must be a positive integer"),)),
    **{(key, None): _FIELD_RULES["density_d2d"]
       for key in ("lambda_d_ref", "lambda_c_ref", "multiplier_d2d", "multiplier_cell")},
    ("sim", "band"): (True, ()),
    **{(key, None): _FIELD_RULES[key] for key in DEFAULTS if key in _FIELD_RULES},
    **{(section, sub): _FIELD_RULES[sub] for section in ("sim", "solver")
       for sub in DEFAULTS[section] if sub in _FIELD_RULES},
}
_NUMBER = (False, ())


@dataclass
class ExperimentConfig:
    """Resolved configuration; ``raw`` is the canonical dict form, and
    ``system`` and ``options`` are built from it once, on construction."""

    raw: dict = field(default_factory=lambda: _copy(DEFAULTS))
    system: SystemParams = field(init=False, repr=False, compare=False)
    options: SolveOptions = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.system = build_system(self)
        self.options = SolveOptions(**self.raw["solver"])

    def __getitem__(self, key):
        return self.raw[key]

    def to_json(self) -> str:
        return json.dumps(self.raw, indent=2, sort_keys=True)

    def with_overrides(self, **overrides) -> "ExperimentConfig":
        """This config with ``overrides`` applied (see ``_merge``)."""
        return _resolve(_merge(self.raw, overrides))

    def point_system(self, key: str, value) -> SystemParams:
        """The system of one sweep point: this config's with ``key``, a value
        of ``SWEEP_KEYS``, set to ``value``.  It equals
        ``with_overrides(**{key: value}).system`` and fails with the same
        message, but resolves nothing.  A density point copies each band
        with that one density set to the product ``build_system`` forms
        (``BandParams._with_density``, which checks nothing): the value
        passed its rule here and each multiplier at resolution, so the
        product passes the density rule, nonnegative or +inf."""
        why = _fault(key, None, value)
        if why is not None:
            _fail(key, why)
        if key == "budget_d2d_w":
            return replace(self.system, budget_d2d_w=float(value))
        density, multiplier = DENSITY_FIELDS[key]
        return replace(self.system, bands=[
            band._with_density(density, mul * value)
            for band, mul in zip(self.system.bands, _per_band(self.raw, multiplier))])


def _fail(field_name: str, why: str):
    raise ValueError(f"config field '{field_name}': {why}")


def _merge(doc: dict, overrides: dict) -> dict:
    """``doc`` with every override that is not None applied; ``doc`` is left as it is."""
    merged = dict(doc)
    for name, value in overrides.items():
        section = _SECTION_OF.get(name)
        if value is None:
            continue
        if section is None:
            merged[name] = value
        elif isinstance(merged.get(section, {}), dict):  # else _resolve rejects it
            merged[section] = {**merged.get(section, {}), name.removeprefix("sweep_"): value}
    return merged


def _resolve(doc: dict) -> ExperimentConfig:
    cfg = dict(DEFAULTS)
    for key, value in doc.items():
        base = key[:-3] if key.endswith("_db") else key
        if base not in cfg:
            _fail(key, "unknown key")
        if key.endswith("_db"):
            if base not in _DB_KEYS:
                _fail(key, "dB form only supported for SIR thresholds")
            if base in doc:
                _fail(key, f"both linear and dB values given for {base}")
            try:
                if isinstance(value, list):
                    cfg[base] = [10.0 ** (v / 10.0) for v in value]
                else:
                    cfg[base] = 10.0 ** (value / 10.0)
            except (TypeError, OverflowError):
                _fail(key, "must be a finite number of dB, or a list of them")
        elif isinstance(cfg[key], dict):
            if not isinstance(value, dict):
                _fail(key, "expected a mapping")
            section = cfg[key] = dict(cfg[key])
            for sub, sval in value.items():
                if (key, sub) in _RETIRED:
                    if _RETIRED[key, sub] not in (None, sval):
                        _fail(f"{key}.{sub}", f"retired key; {sval!r} is no longer supported")
                    continue
                if sub not in section:
                    _fail(f"{key}.{sub}", "unknown key")
                section[sub] = sval
        else:
            cfg[key] = value
    # the one copy: nothing below shares a list or dict with DEFAULTS or doc
    cfg = _copy(cfg)
    _validate(cfg)
    # building the system and options surfaces any remaining unit violation
    return ExperimentConfig(raw=cfg)


def _copy(value):
    """``value`` with every dict and list in it rebuilt, and all else shared."""
    if isinstance(value, dict):
        return {key: _copy(v) for key, v in value.items()}
    if isinstance(value, list):
        return [_copy(v) for v in value]
    return value


def _per_band(cfg: dict, key: str) -> list[float]:
    m = cfg["num_bands"]
    value = cfg[key]
    if isinstance(value, list):
        if len(value) != m:
            _fail(key, f"expected {m} entries, got {len(value)}")
        return [float(v) for v in value]
    try:
        return [float(value)] * m
    except (OverflowError, MemoryError):  # longer than a list may be, or than memory holds
        _fail("num_bands", "too many bands to build")


def _finite(values: list) -> bool:
    """Whether every value is a finite number; a bool is not a number here."""
    try:
        return bool not in map(type, values) and all(map(math.isfinite, values))
    except (TypeError, OverflowError):  # not a number, or an int beyond any float
        return False


def _fault(key: str, sub: str | None, v) -> str | None:
    """What is wrong with value ``v`` of ``key`` (of its entry ``sub`` in a
    section), or None: a count's rule, or else its number type and then its
    rule.  The common case, a float, is settled by type."""
    rule = _RULES.get((key, sub), _NUMBER)
    if rule[0]:
        return _rule_fault(rule, v)
    if (key, sub) == ("sweep", "grid") or (key in _PER_BAND and isinstance(v, list)):
        if not (isinstance(v, list) and _finite(v)):
            return "must be a list of finite numbers"
    elif (key, sub) == ("sweep", "variable"):
        return None
    elif not (math.isfinite(v) if type(v) is float else _finite([v])):
        return "must be a finite number"
    for x in v if isinstance(v, list) else (v,):
        why = _rule_fault(rule, x)
        if why is not None:
            return why
    return None


def _validate(cfg: dict) -> None:
    for key, value in cfg.items():
        in_section = isinstance(DEFAULTS[key], dict)
        for sub, v in value.items() if in_section else ((None, value),):
            why = _fault(key, sub, v)
            if why is not None:
                _fail(key if sub is None else f"{key}.{sub}", why)
    if not 0 <= cfg["sim"]["band"] < cfg["num_bands"]:
        _fail("sim.band", f"must be a band index in [0, {cfg['num_bands']})")
    sweep = cfg["sweep"]
    if sweep["variable"] is not None:
        if not isinstance(sweep["variable"], str) or sweep["variable"] not in SWEEP_KEYS:
            _fail("sweep.variable", f"must be one of {tuple(SWEEP_KEYS)}")
        if not sweep["grid"]:
            _fail("sweep.grid", "must be nonempty when a sweep variable is set")


def load_config(path: str | Path | None, **overrides) -> ExperimentConfig:
    """Parse a JSON config document (none without a path), apply overrides, fill in defaults."""
    text = Path(path).read_text() if path else ""
    if not text.strip():
        doc = {}
    else:
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValueError(f"malformed config document {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValueError(f"malformed config document {path}: top level must be an object")
    return _resolve(_merge(doc, overrides))


def save_config(cfg: ExperimentConfig, path: str | Path) -> None:
    Path(path).write_text(cfg.to_json() + "\n")


def build_system(cfg: ExperimentConfig) -> SystemParams:
    """Construct SystemParams from a config, applying density multipliers."""
    raw = cfg.raw
    per_band = {key: _per_band(raw, key) for key in _PER_BAND}
    bands = []
    for i in range(raw["num_bands"]):
        kw = {key: values[i] for key, values in per_band.items()}
        for ref, (density, multiplier) in DENSITY_FIELDS.items():
            kw[density] = kw.pop(multiplier) * raw[ref]
        try:
            bands.append(BandParams(pathloss_exponent=float(raw["pathloss_exponent"]), **kw))
        except ValueError as exc:
            raise ValueError(f"config band {i}: {exc}") from exc
    return SystemParams(
        bands=bands,
        budget_d2d_w=float(raw["budget_d2d_w"]),
        budget_cell_w=float(raw["budget_cell_w"]),
    )
