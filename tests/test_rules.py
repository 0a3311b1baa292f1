"""Each numeric field has one rule, which its type and the config both apply."""

import dataclasses
import math

import pytest

from d2dee import (BandParams, InfeasibleProblem, SimScenario, SolveOptions, SystemParams,
                   baseline_fixed_cell)
from d2dee import model
from d2dee.config import DEFAULTS, _resolve

BAND_FLOATS = [f.name for f in dataclasses.fields(BandParams)]
BUDGETS = ["budget_d2d_w", "budget_cell_w"]
BAD_VALUES = [True, False, 0, -1, math.nan, math.inf, -math.inf, 10**400, 0.5, 1.5, 2.0,
              "x", None, [0.5]]
BAD_IDS = ["true", "false", "zero", "minus_one", "nan", "inf", "minus_inf", "int_beyond_float",
           "half", "one_and_a_half", "two", "string", "none", "list"]


@pytest.fixture
def build(make_band, make_system):
    """Build the owner of field ``name`` with it set to ``value``, the other
    fields valid: a band, a system, the solver options, a scenario, or the
    baseline's phase at that fixed cellular power (its label)."""
    def _build(name, value):
        if name in BAND_FLOATS:
            return make_band(**{name: value})
        if name in BUDGETS:
            return make_system(**{name: value})
        if name in {f.name for f in dataclasses.fields(SolveOptions)}:
            return SolveOptions(**{name: value})
        if name == "baseline_p_cell_w":
            try:
                return baseline_fixed_cell(make_system(), value)
            except InfeasibleProblem:  # the value passed its rule
                return None
        return SimScenario(**{"band": make_band(), "p_cell_w": 0.3, "p_d2d_w": 0.02,
                              name: value})

    return _build


def label(name):
    return "fixed cellular power" if name == "baseline_p_cell_w" else name


def test_every_numeric_field_has_a_rule():
    owners = [BandParams, SystemParams, SolveOptions, SimScenario]
    numeric = {f.name for owner in owners for f in dataclasses.fields(owner)
               if f.name not in ("bands", "band")}
    assert numeric | {"baseline_p_cell_w"} == set(model._RULES)


@pytest.mark.parametrize("name", BAND_FLOATS + BUDGETS + ["window_radius_m"])
def test_bool_rejected_by_name(build, name):
    # a bool once built and read as 1.0
    with pytest.raises(ValueError, match=f"^{name} must be a number, not a bool$"):
        build(name, True)


@pytest.mark.parametrize("name", ["bandwidth_hz", "pathloss_exponent", "eps_power_w", "p_cell_w",
                                  "p_d2d_w", "window_radius_m", "baseline_p_cell_w"])
def test_int_beyond_float_rejected_as_not_finite(build, name):
    # every field whose rule includes finiteness: it once built, escaped as
    # an OverflowError, or failed naming another quantity
    with pytest.raises(ValueError, match=f"^{label(name)} must be finite$"):
        build(name, 10**400)


# every config key that names a field of a type, as (section or None, key)
FIELD_KEYS = (
    [(None, key) for key in DEFAULTS if key in BAND_FLOATS + BUDGETS + ["baseline_p_cell_w"]]
    + [("sim", f.name) for f in dataclasses.fields(SimScenario) if f.name != "band"]
    + [("solver", f.name) for f in dataclasses.fields(SolveOptions)])
# what the config says of a value before any rule: its type or shape
CONFIG_FIRST = ("must be a finite number", "must be a list of finite numbers", "expected ")


@pytest.mark.parametrize("value", BAD_VALUES, ids=BAD_IDS)
@pytest.mark.parametrize("section, key", FIELD_KEYS,
                         ids=[key if s is None else f"{s}.{key}" for s, key in FIELD_KEYS])
def test_one_rule_two_entry_points(build, section, key, value):
    # the config and the type accept and reject the same values, with the
    # same reason, wherever the config's own number check lets a value by
    name = key if section is None else f"{section}.{key}"
    try:
        _resolve({key: value} if section is None else {section: {key: value}})
        config_why = None
    except ValueError as exc:
        prefix = f"config field '{name}': "
        assert str(exc).startswith(prefix)
        config_why = str(exc).removeprefix(prefix)
        if config_why.startswith(CONFIG_FIRST):
            return
    try:
        build(key, value)
    except ValueError as exc:
        assert str(exc) == f"{label(key)} {config_why}"
    else:
        assert config_why is None
