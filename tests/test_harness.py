import copy
import csv
import hashlib
import io
import importlib
import json
import math
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import norm

from d2dee import ExperimentConfig, build_system, load_config, save_config
from d2dee.cli import EXIT_CONFIG, EXIT_INFEASIBLE, EXIT_OK, EXIT_VALIDATION, build_parser, main
from d2dee.config import SWEEP_KEYS
from d2dee.harness import (
    VALIDATE_TAIL_MASS,
    VALIDATE_Z_LIMIT,
    _shared_columns,
    format_solve_table,
    read_csv,
    run_solve,
    run_sweep,
    run_trace,
    run_validate,
    sweep_fieldnames,
    write_csv,
)
from d2dee.solver import InfeasibleProblem, baseline_fixed_cell, optimize_powers


class TestConfig:
    def test_empty_document_gives_defaults(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text("")
        cfg = load_config(path)
        assert cfg["num_bands"] == 5
        assert cfg["bandwidth_hz"] == 20e6
        assert cfg["pathloss_exponent"] == 4.0
        assert cfg["d2d_link_distance_m"] == [10.0, 20.0, 30.0, 20.0, 10.0]
        assert cfg["cell_link_distance_m"] == [50.0, 60.0, 70.0, 80.0, 90.0]
        assert cfg["multiplier_d2d"] == [10.0, 1.0, 10.0, 10.0, 10.0]
        assert cfg["max_power_d2d_w"] == 0.02
        assert cfg["max_power_cell_w"] == 0.3
        assert cfg["budget_cell_w"] == 1.0
        assert cfg["solver"]["eps_power_w"] == 1e-5
        assert cfg["sir_threshold_d2d"] == 1.0

    def test_round_trip_identical(self, tmp_path):
        cfg = ExperimentConfig().with_overrides(lambda_d_ref=3.7e-5, budget_d2d_w=0.08)
        path = tmp_path / "cfg.json"
        save_config(cfg, path)
        again = load_config(path)
        assert again.raw == cfg.raw
        save_config(again, tmp_path / "cfg2.json")
        assert (tmp_path / "cfg.json").read_bytes() == (tmp_path / "cfg2.json").read_bytes()

    def test_alpha_two_rejected_with_gamma_message(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"pathloss_exponent": 2.0}))
        with pytest.raises(ValueError,
                           match="config field 'pathloss_exponent': must exceed 2 \\(interference"):
            load_config(path)

    def test_unknown_key_named(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"bandwidht_hz": 1e6}))
        with pytest.raises(ValueError, match="bandwidht_hz"):
            load_config(path)

    def test_retired_solver_keys_ignored(self, tmp_path):
        # configs saved while the solver had a grid/golden-section search
        path = tmp_path / "old.json"
        path.write_text(json.dumps({"solver": {"grid_points": 256,
                                               "line_search_tol_rel": 1e-8,
                                               "eps_power_w": 1e-6}}))
        cfg = load_config(path)
        assert cfg["solver"]["eps_power_w"] == 1e-6
        assert "grid_points" not in cfg["solver"]
        assert "line_search_tol_rel" not in cfg["solver"]

    def test_retired_phase2_mode_only_as_coupled(self, tmp_path):
        # every saved config carries "coupled", the one phase two there is
        path = tmp_path / "old.json"
        path.write_text(json.dumps({"solver": {"phase2_mode": "coupled"}, **acc5_overrides()}))
        cfg = load_config(path)
        assert "phase2_mode" not in cfg["solver"]
        fresh = ExperimentConfig().with_overrides(**acc5_overrides())
        assert run_solve(cfg).to_dict() == run_solve(fresh).to_dict()
        path.write_text(json.dumps({"solver": {"phase2_mode": "paper_literal"}}))
        with pytest.raises(ValueError, match="solver.phase2_mode"):
            load_config(path)
        assert main(["solve", "--config", str(path), "--out", str(tmp_path / "o")]) == EXIT_CONFIG

    def test_unknown_solver_key_named(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"solver": {"grid_point": 256}}))
        with pytest.raises(ValueError, match="solver.grid_point"):
            load_config(path)

    def test_negative_value_named(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"budget_d2d_w": -1.0}))
        with pytest.raises(ValueError, match="budget_d2d_w"):
            load_config(path)

    def test_db_threshold_conversion(self, tmp_path):
        path = tmp_path / "db.json"
        path.write_text(json.dumps({"sir_threshold_d2d_db": -50.0}))
        cfg = load_config(path)
        assert cfg["sir_threshold_d2d"] == pytest.approx(1e-5, rel=1e-12)
        path.write_text(json.dumps({"sir_threshold_cell_db": [-50.0, -40.0, 0.0, 10.0, 20.0]}))
        cfg = load_config(path)
        assert cfg["sir_threshold_cell"] == pytest.approx([1e-5, 1e-4, 1.0, 10.0, 100.0],
                                                          rel=1e-12)

    def test_db_and_linear_conflict(self, tmp_path):
        path = tmp_path / "db.json"
        path.write_text(json.dumps({"sir_threshold_d2d_db": -50.0,
                                    "sir_threshold_d2d": 1e-5}))
        with pytest.raises(ValueError, match="both linear and dB"):
            load_config(path)

    def test_sweep_point_builds_system_and_options_once(self, monkeypatch):
        import d2dee.config

        built = {"system": 0, "options": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                built[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        build = counted("system", d2dee.config.build_system)
        # the harness would hold its own name for build_system if it called it
        monkeypatch.setattr("d2dee.harness.build_system", build, raising=False)
        monkeypatch.setattr(d2dee.config, "build_system", build)
        monkeypatch.setattr(d2dee.config, "SolveOptions",
                            counted("options", d2dee.config.SolveOptions))
        for variable, grid in [("lambda_d_ref", [1e-5, 1e-4, 1e-3]),
                               ("lambda_c_ref", [1e-6, 1e-5, 1e-4]),
                               ("budget_d2d", [0.01, 0.06, 0.1])]:
            built.update(system=0, options=0)
            cfg = load_config(None, sweep_variable=variable, sweep_grid=grid)
            # the config holding the sweep builds them once; its points, never
            assert built == {"system": 1, "options": 1}
            assert len(run_sweep(cfg)) == 3
            assert built == {"system": 1, "options": 1}

    def test_sweep_points_never_copy_the_grid(self, monkeypatch):
        import d2dee.config

        seen = {"_copy": [], "_resolve": []}

        def spy(name):
            real = getattr(d2dee.config, name)

            def wrapper(value):
                # the copy recurses through its name, so it would see every dict and list
                seen[name].append(value)
                return real(value)
            return wrapper

        grid = list(np.geomspace(1e-5, 1e-3, 500))
        cfg = ExperimentConfig().with_overrides(**acc5_overrides(), sweep_variable="lambda_d_ref",
                                                sweep_grid=grid)
        for name in seen:
            monkeypatch.setattr(d2dee.config, name, spy(name))
        rows = run_sweep(cfg)
        assert len(rows) == 500
        # the points derive from the resolved config: no point resolves or copies
        assert seen == {"_copy": [], "_resolve": []}
        assert cfg["sweep"]["grid"] == grid

    def test_cli_resolves_once_per_command_and_sweep_point(self, tmp_path, monkeypatch):
        import d2dee.config

        counts = {"resolve": 0, "system": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(d2dee.config, "_resolve", counted("resolve", d2dee.config._resolve))
        monkeypatch.setattr(d2dee.config, "build_system",
                            counted("system", d2dee.config.build_system))
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(acc5_overrides()))
        assert main(["solve", "--config", str(cfg_path), "--out", str(tmp_path)]) == EXIT_OK
        assert counts == {"resolve": 1, "system": 1}
        counts.update(resolve=0, system=0)
        assert main(["sweep", "--config", str(cfg_path), "--out", str(tmp_path),
                     "--sweep-var", "lambda_d_ref", "--sweep-grid", "1e-5,1e-4"]) == EXIT_OK
        # the command's config only: its two points resolve and build nothing
        assert counts == {"resolve": 1, "system": 1}

    def test_resolved_configs_share_no_state(self):
        from d2dee.config import DEFAULTS, _resolve

        doc = {"d2d_link_distance_m": [10.0, 20.0, 30.0, 20.0, 10.0], "sim": {"trials": 500},
               "sweep": {"variable": "lambda_d_ref", "grid": [1e-5, 1e-4]}}
        grid = [2e-5, 3e-5]
        before = copy.deepcopy((DEFAULTS, doc, grid))
        base = _resolve(doc)
        base_raw = copy.deepcopy(base.raw)
        for derived in (base.with_overrides(seed=3, sweep_grid=grid),
                        base.with_overrides(lambda_d_ref=2e-5)):
            derived.raw["d2d_link_distance_m"][0] = -1.0
            derived.raw["multiplier_d2d"][0] = -1.0
            derived.raw["sim"]["trials"] = -1
            derived.raw["sweep"]["grid"].append(-1.0)
        assert base.raw == base_raw
        base.raw["d2d_link_distance_m"][0] = -1.0
        base.raw["multiplier_cell"][0] = -1.0
        base.raw["sim"]["seed"] = -1
        base.raw["sweep"]["grid"].append(-1.0)
        assert (DEFAULTS, doc, grid) == before

    @pytest.mark.parametrize("command, doc, field", [
        (["solve"], {"budget_d2d_w": math.nan}, "budget_d2d_w"),
        (["solve"], {"d2d_link_distance_m": [10.0, 20.0, math.inf, 20.0, 10.0]},
         "d2d_link_distance_m"),
        (["validate"], {"sim": {"trials": 1000.5}}, "sim.trials"),
        (["validate"], {"sim": {"workers": 2.0}}, "sim.workers"),
        (["solve"], {"solver": {"max_outer_iters": True}}, "solver.max_outer_iters"),
        (["sweep", "--sweep-var", "lambda_d_ref", "--sweep-grid", "1e-4,nan"], {}, "sweep.grid"),
        (["solve"], {"budget_cell_w": 10**400}, "budget_cell_w"),
        (["sweep"], {"sweep": {"variable": ["lambda_d_ref"], "grid": [1e-4]}}, "sweep.variable"),
        (["solve"], {"multiplier_d2d": -1}, "multiplier_d2d"),
        (["solve"], {"multiplier_cell": [10.0, 1.0, -1.0, 10.0, 10.0]}, "multiplier_cell"),
        (["solve"], {"solver": {"eps_power_w": 0}}, "solver.eps_power_w"),
        (["solve"], {"solver": {"max_outer_iters": 0}}, "solver.max_outer_iters"),
        (["solve"], {"bandwidth_hz_db": 73.0}, "bandwidth_hz_db"),
        (["validate"], {"sim": 5}, "sim"),
        (["solve"], {"max_power_d2d_w": [0.02, 0.02]}, "max_power_d2d_w"),
        (["sweep"], {"sweep": {"variable": "lambda_d_ref", "grid": []}}, "sweep.grid"),
        (["solve"], {"budget_d2d_w": {"w": 0.08}}, "budget_d2d_w"),
        (["solve"], {"bandwidth_hz": {"hz": 20e6}}, "bandwidth_hz"),
        (["validate"], {"sim": {"trials": 0}}, "sim.trials"),
        (["validate", "--workers", "0"], {}, "sim.workers"),
        (["validate", "--seed", "-1"], {}, "sim.seed"),
        (["validate"], {"sim": {"p_cell_w": 0}}, "sim.p_cell_w"),
        (["validate"], {"sim": {"p_d2d_w": -0.02}}, "sim.p_d2d_w"),
        (["solve"], {"sim": {"window_radius_m": -5}}, "sim.window_radius_m"),
        (["solve"], {"multiplier_d2d": []}, "multiplier_d2d"),
        # each key's whole rule, type then range, key by key in DEFAULTS order
        (["solve"], {"lambda_d_ref": -1, "sim": {"workers": 2.0}}, "lambda_d_ref"),
        # a band key's rule is checked with the others, not when bands are built
        (["solve"], {"lambda_d_ref": -1, "outage_cap_d2d": 1.5}, "outage_cap_d2d"),
    ], ids=["scalar", "per_band_entry", "sim_trials", "sim_workers", "bool_count", "sweep_grid",
            "int_beyond_float", "unhashable_variable", "negative_multiplier_d2d",
            "negative_multiplier_cell", "zero_eps_power", "zero_outer_iters", "db_non_threshold",
            "section_not_mapping", "per_band_length", "empty_sweep_grid", "mapping_for_number",
            "mapping_for_per_band", "zero_sim_trials", "zero_workers_flag", "negative_seed_flag",
            "zero_sim_p_cell", "negative_sim_p_d2d", "negative_window_on_solve",
            "empty_per_band_list", "first_fault_in_key_order", "band_key_in_key_order"])
    def test_malformed_numbers_rejected_by_name(self, command, doc, field, tmp_path, capsys):
        # Python's json reads NaN and Infinity
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({**acc5_overrides(), **doc}))
        argv = [*command, "--config", str(cfg_path), "--out", str(tmp_path)]
        assert main(argv) == EXIT_CONFIG
        assert f"config field '{field}'" in capsys.readouterr().err

    @pytest.mark.parametrize("command, text, names", [
        (["solve"], "{", "malformed config document {path}: Expecting property name"),
        (["solve"], "[1e-4]", "malformed config document {path}: top level must be an object"),
        (["solve"], '{"outage_cap_d2d": 1.5}',
         "config field 'outage_cap_d2d': must lie strictly inside (0, 1)"),
        # a dB threshold is read only without its linear form, which acc5_overrides sets
        (["solve"], '{"sir_threshold_cell_db": "low"}',
         "config field 'sir_threshold_cell_db': must be a finite number of dB"),
        (["validate", "--band", "9"], "{}",
         "config field 'sim.band': must be a band index in [0, 5)"),
        (["validate"], '{"sim": {"band": -1}}',
         "config field 'sim.band': must be a band index in [0, 5)"),
        (["solve"], '{"sim": {"band": 9}}',
         "config field 'sim.band': must be a band index in [0, 5)"),
        (["sweep", "--sweep-var", "lambda_d_ref", "--sweep-grid", "1e-4,abc"], "{}",
         "argument --sweep-grid: expected comma-separated numbers, got '1e-4,abc'"),
        # every per-band value a scalar, broadcast to more entries than a list holds
        (["solve"], json.dumps({"num_bands": 10**400, "d2d_link_distance_m": 10.0,
                                "cell_link_distance_m": 50.0, "multiplier_d2d": 1.0,
                                "multiplier_cell": 1.0}),
         "config field 'num_bands': too many bands to build"),
    ], ids=["malformed_json", "top_level_not_object", "band_rejected", "db_not_number",
            "band_flag_out_of_range", "sim_band_out_of_range", "sim_band_on_solve",
            "sweep_grid_not_numbers", "band_count_beyond_any_list"])
    def test_rejected_document_named(self, command, text, names, tmp_path, capsys):
        # the document as written, without acc5_overrides: each error names the
        # document, the band, the key or the flag at fault
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(text)
        argv = [*command, "--config", str(cfg_path), "--out", str(tmp_path)]
        assert main(argv) == EXIT_CONFIG
        assert f"error: {names.format(path=cfg_path)}" in capsys.readouterr().err

    def test_overflowing_interference_coefficient_named(self, tmp_path, capsys):
        # the squared link distance overflows: a config error that names the
        # band, not a traceback
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"d2d_link_distance_m": 1e200}))
        argv = ["solve", "--config", str(cfg_path), "--out", str(tmp_path)]
        assert main(argv) == EXIT_CONFIG
        assert ("error: config band 0: interference coefficient is not finite"
                in capsys.readouterr().err)

    def test_retired_budget_tolerance_only_at_its_value(self, tmp_path):
        path = tmp_path / "old.json"
        path.write_text(json.dumps({"solver": {"budget_tol_rel": 1e-6}}))
        assert "budget_tol_rel" not in load_config(path)["solver"]
        path.write_text(json.dumps({"solver": {"budget_tol_rel": 1e-3}}))
        with pytest.raises(ValueError, match="solver.budget_tol_rel"):
            load_config(path)

    def test_build_system_applies_multipliers(self):
        system = build_system(ExperimentConfig())
        assert system.num_bands == 5
        assert system.bands[0].density_d2d == pytest.approx(10 * 1e-4)
        assert system.bands[1].density_d2d == pytest.approx(1e-4)
        assert system.bands[2].density_cell == pytest.approx(10 * 1.5e-5)


def acc5_overrides():
    # Table-1 layout with thresholds pinned so every band's caps are reachable
    return dict(sir_threshold_d2d=1e-5, sir_threshold_cell=1e-5)


# two bands whose cellular EEs, each finite, sum past the largest float at
# lambda_d_ref = 6.606934480075856e-79
OVERFLOWING_EE_DOC = dict(
    num_bands=2, sir_threshold_d2d=1.0, sir_threshold_cell=1.0, d2d_link_distance_m=20.0,
    cell_link_distance_m=60.0, multiplier_d2d=1.0, multiplier_cell=1.0, lambda_c_ref=1e-7,
    budget_d2d_w=0.08)
OVERFLOWING_EE_DENSITY = 6.606934480075856e-79


class TestValidate:
    def test_zero_density_passes(self):
        cfg = ExperimentConfig().with_overrides(
            lambda_d_ref=0.0, lambda_c_ref=0.0, trials=1000
        )
        records, ok = run_validate(cfg)
        assert ok
        for rec in records:
            assert rec["p_hat"] == 1.0 and rec["analytic"] == 1.0
            assert rec["z_score"] is None and rec["pass"]

    def test_band1_table1_passes(self):
        # band-1 geometry at the reference densities
        cfg = ExperimentConfig().with_overrides(
            seed=7, multiplier_d2d=[1.0] * 5, multiplier_cell=[1.0] * 5
        )
        records, ok = run_validate(cfg)
        assert ok
        assert {r["which"] for r in records} == {"d2d", "cell"}
        for rec in records:
            assert abs(rec["p_hat"] - rec["analytic"]) <= 0.005
            assert rec["count_prob"] is None

    @pytest.mark.parametrize("threshold, analytic, passes", [
        (1e12, 0.01, False),
        # within the abs limit: the count's probability (1 - 0.004)^20000 ~ 1e-35
        (1e12, 0.004, False),
        # a cellular STP as small as sweep-budget's band 3: (1 - 1e-6)^20000 ~ 0.98
        (1e12, 1e-6, True),
        (1e-12, 0.999, False),
        (1e-12, 1.0 - 1e-6, True),
    ])
    def test_all_or_nothing_count_gated(self, monkeypatch, threshold, analytic, passes):
        # every trial fails (huge threshold) or succeeds (tiny one), so the
        # standard error is 0 and the count's exact probability stands in for z
        monkeypatch.setattr("d2dee.simulate.stp_cell", lambda band, p_cell_w, p_d2d_w: analytic)
        cfg = ExperimentConfig().with_overrides(
            sim={"trials": 20_000, "window_radius_m": 500.0}, sir_threshold_cell=threshold)
        (rec,), ok = run_validate(cfg, which="cell")
        assert rec["p_hat"] == (0.0 if threshold > 1.0 else 1.0)
        assert rec["std_err"] == 0.0 and rec["z_score"] is None
        hit = analytic if rec["p_hat"] == 1.0 else 1.0 - analytic
        assert rec["count_prob"] == pytest.approx(hit**20_000, rel=1e-9)
        assert ok is passes and rec["pass"] is passes

    @pytest.mark.parametrize("which, links", [("both", 2), ("d2d", 1), ("cell", 1)])
    def test_record_keys_in_order(self, which, links):
        # the estimate's fields in declaration order, then what run_validate adds
        keys = ["which", "p_hat", "std_err", "analytic", "z_score", "trials", "seed",
                "workers", "window_radius_m", "rng", "band", "count_prob", "pass"]
        records, _ = run_validate(ExperimentConfig().with_overrides(trials=1000), which=which)
        assert [list(rec) for rec in records] == [keys] * links

    def test_count_gate_matches_z_gate_mass(self):
        assert VALIDATE_TAIL_MASS == pytest.approx(2.0 * norm.sf(VALIDATE_Z_LIMIT), rel=1e-12)

    def test_corrupted_analytic_fails(self, monkeypatch):
        # a corrupted closed form, as estimate_links reads it, must fail the gates
        monkeypatch.setattr("d2dee.simulate.stp_d2d", lambda band, p_cell_w, p_d2d_w: 0.5)
        cfg = ExperimentConfig().with_overrides(trials=2000, seed=7)
        _, ok = run_validate(cfg, which="d2d")
        assert not ok

    def test_unknown_which_rejected(self, monkeypatch):
        # rejected before any draw
        def no_pass(scenario):
            raise AssertionError("estimate_links reached")

        monkeypatch.setattr("d2dee.simulate.estimate_links", no_pass)
        with pytest.raises(ValueError, match="which must be 'd2d', 'cell' or 'both', got 'bogus'"):
            run_validate(ExperimentConfig(), which="bogus")

    def test_single_link_is_its_record_of_both(self, tmp_path):
        # one pass scores both links; --which only picks the records written
        records = {}
        for which in ("d2d", "cell", "both"):
            out = tmp_path / which
            main(["validate", "--which", which, "--trials", "2000", "--workers", "2",
                  "--seed", "3", "--out", str(out)])
            records[which] = json.loads((out / "validate.json").read_text())["estimates"]
        assert [r["which"] for r in records["both"]] == ["d2d", "cell"]
        for i, which in enumerate(("d2d", "cell")):
            assert records[which] == [records["both"][i]]

    def test_band_flag_replays_from_its_config(self, tmp_path):
        # --band sets sim.band, so validate.json records it and a rerun on
        # the embedded config validates the same band
        first = tmp_path / "first"
        main(["validate", "--band", "1", "--trials", "2000", "--workers", "2",
              "--seed", "3", "--out", str(first)])
        written = json.loads((first / "validate.json").read_text())
        assert written["config"]["sim"]["band"] == 1
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(written["config"]))
        again = tmp_path / "again"
        main(["validate", "--config", str(cfg_path), "--out", str(again)])
        assert json.loads((again / "validate.json").read_text()) == written

    @pytest.mark.parametrize("doc, argv, names", [
        ({"sim": {"window_radius_m": 100}}, [],
         "window too small for edge-effect control: window_radius_m=100 is below 500.0 m"),
        ({}, ["--trials", "50"], "at least 100 trials are required for an estimate, "
         "got trials=50"),
    ], ids=["window", "trials"])
    def test_oracle_rejection_names_its_field(self, doc, argv, names, tmp_path, capsys):
        # band 0's longest link is 50 m, so its window must reach 500 m
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(doc))
        code = main(["validate", "--config", str(cfg_path), *argv, "--out", str(tmp_path)])
        assert code == EXIT_CONFIG
        assert f"error: {names}" in capsys.readouterr().err

    def test_overflowing_window_is_config_exit(self, tmp_path, capsys):
        # the window's mean interferer count overflowed inside the kernel,
        # and the OverflowError left validate with the infeasible exit code
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"sim": {"window_radius_m": 1e200, "trials": 100}}))
        code = main(["validate", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
        assert code == EXIT_CONFIG
        assert "window_radius_m" in capsys.readouterr().err


class TestSolveAndTrace:
    def test_solve_deterministic_bytes(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        save_config(ExperimentConfig().with_overrides(**acc5_overrides()), cfg_path)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["solve", "--config", str(cfg_path), "--out", str(out1)]) == EXIT_OK
        assert main(["solve", "--config", str(cfg_path), "--out", str(out2)]) == EXIT_OK
        assert (out1 / "solve.json").read_bytes() == (out2 / "solve.json").read_bytes()

    def test_solve_record_contents(self):
        cfg = ExperimentConfig().with_overrides(**acc5_overrides())
        result = run_solve(cfg)
        rec = result.to_dict()
        assert rec["trace"]["converged"] is True
        assert len(rec["p_d2d_w"]) == 5
        assert rec["feasibility"]["ok"] is True

    @pytest.mark.parametrize("overrides, flagged", [({}, False), ({"lambda_c_ref": 0.0}, True)],
                             ids=["unflagged", "no_cellular_density"])
    def test_solve_table_lists_flags(self, overrides, flagged):
        # without cellular density every D2D power is anchored, and flagged
        result = run_solve(ExperimentConfig().with_overrides(**acc5_overrides(), **overrides))
        lines = format_solve_table(result).splitlines()
        assert bool(result.flags) == flagged
        assert [line for line in lines if line.startswith("flags: ")] == (
            ["flags: " + "; ".join(result.flags)] if flagged else [])
        assert lines[-1] == "feasible: yes"

    def test_unreachable_cell_cap_is_infeasible_exit(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        doc = dict(acc5_overrides())
        doc["outage_cap_cell"] = 1e-9
        cfg_path.write_text(json.dumps(doc))
        code = main(["solve", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
        assert code == EXIT_INFEASIBLE

    def test_config_error_exit(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"num_bands": 0}))
        code = main(["solve", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
        assert code == EXIT_CONFIG

    def test_underflowing_start_is_config_exit(self, tmp_path, capsys):
        # budget_cell_w / 5 underflows to 0.0, a starting cellular power that
        # phase one rejects by band
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({**acc5_overrides(), "budget_cell_w": 5e-324}))
        assert main(["solve", "--config", str(cfg_path), "--out", str(tmp_path)]) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            "error: cellular power on band 0 must be positive and finite\n")

    @pytest.mark.parametrize("doc, flags", [
        # each band's cellular EE is finite, their sum is not
        ({**OVERFLOWING_EE_DOC, "lambda_d_ref": OVERFLOWING_EE_DENSITY},
         ["cellular EE total is not finite"]),
        # the criterion-6 layout: band 1's cellular power, 1.1e-306 W, is
        # normal, and its EE overflows
        (dict(sir_threshold_d2d=1e-6, sir_threshold_cell=1e-6, budget_d2d_w=0.08,
              lambda_c_ref=1e-5, baseline_p_cell_w=0.325, lambda_d_ref=1e-50),
         ["band 1: cellular EE is not finite", "cellular EE total is not finite"]),
    ], ids=["total_overflows", "band_overflows"])
    def test_non_finite_ee_flagged(self, doc, flags):
        result = run_solve(ExperimentConfig().with_overrides(**doc))
        assert result.trace.converged and result.feasibility.ok
        assert result.flags == flags
        assert result.metrics.ee_cell_total == result.metrics.ee_total == math.inf
        assert math.isfinite(result.metrics.ee_d2d_total)

    @staticmethod
    def result_digests(cfg_path, out) -> tuple[str, str]:
        """The md5 of ``solve.json``'s result block, and of that block with
        its trace laid out as six parallel lists, one entry per iterate,
        plus ``converged`` and ``iterations``: the layout before the trace
        kept one record per iterate, whose digests the pins keep."""
        assert main(["solve", "--config", str(cfg_path), "--out", str(out)]) == EXIT_OK
        result = json.loads((out / "solve.json").read_text())["result"]
        trace = result["trace"]
        lists = {
            "p_d2d_w": [it["d2d"]["powers"] for it in trace["iterates"]],
            "p_cell_w": [it["cell"]["powers"] for it in trace["iterates"]],
            **{key: [it[key] for it in trace["iterates"]]
               for key in ("ee_d2d_total", "ee_cell_total", "delta_d_w", "delta_c_w")},
            "converged": trace["converged"], "iterations": len(trace["iterates"]),
        }
        return tuple(hashlib.md5(json.dumps(block, sort_keys=True).encode()).hexdigest()
                     for block in (result, {**result, "trace": lists}))

    def test_solve_result_pinned(self, tmp_path):
        # the md5 of the Table-1 result block (thresholds 1e-5), pinned when
        # each band's constants moved out of the phase calls, and re-pinned
        # when the trace became one record per iterate
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(acc5_overrides()))
        assert self.result_digests(cfg_path, tmp_path) == (
            "12d85e1838134c5c34944b0317068305", "995e20e8218566631d5d64dc814e5cb9")

    @pytest.mark.parametrize("budget_d2d_w, digests", [
        # converges in 7; 14 of 14 phases mu > 0
        (0.1, ("7eacd02daa9344a9dd61aa421b087560", "3f8466cd39d96e08ef59b9057bfe0948")),
        # 10-iteration cap; 15 of 20 mu > 0
        (0.2, ("01341c532d819fec8a0e7616248c7c72", "5f27b3540749e87cbe49fbff2906db91")),
    ], ids=["budget_d2d_0.1", "budget_d2d_0.2"])
    def test_budget_bound_result_pinned(self, budget_d2d_w, digests, tmp_path):
        # the md5 of the result block on the sweep-budget layout, where the
        # budgets bind and ln mu is bisected (the Table-1 pin above has
        # mu = 0 in every phase), and of that block in the trace layout
        # before one record per iterate.  Pinned when the bisection moved to
        # ln mu, between closed-form ends, and re-pinned since where powers
        # moved by a few ulps (CHANGES.md records each digest).  ROADMAP item
        # 2's exact phase moves these bits on purpose: it must re-pin,
        # recording the old and new digests.
        coupled = 2.5 / (math.pi * 20.0**2 * math.pi / 2.0)
        doc = {
            "num_bands": 5, "bandwidth_hz": 20e6, "pathloss_exponent": 4.0,
            "sir_threshold_d2d": 1.0, "sir_threshold_cell": 1.0,
            "outage_cap_d2d": 0.999, "outage_cap_cell": 0.999999,
            "d2d_link_distance_m": 20.0, "cell_link_distance_m": 20.0,
            "lambda_d_ref": coupled, "lambda_c_ref": coupled,
            "multiplier_d2d": [1.0, 1.1, 1.2, 1.3, 1.4],
            "multiplier_cell": [1.0, 1.1, 1.2, 1.3, 1.4],
            "max_power_d2d_w": 1e3, "max_power_cell_w": 1e3,
            "budget_d2d_w": budget_d2d_w, "budget_cell_w": 0.1, "baseline_p_cell_w": 0.02,
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(doc))
        assert self.result_digests(cfg_path, tmp_path) == digests

    @pytest.mark.parametrize("where, path, names", [
        ("--config", lambda tmp: tmp / "missing.json", "No such file or directory"),
        ("--config", lambda tmp: tmp, "Is a directory"),
        ("--out", lambda tmp: tmp / "cfg.json", "File exists"),
    ], ids=["missing_config", "config_is_directory", "out_is_file"])
    def test_unusable_path_is_config_exit(self, where, path, names, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(acc5_overrides()))
        argv = ["solve", "--config", str(cfg_path), "--out", str(tmp_path / "out")]
        argv[argv.index(where) + 1] = str(path(tmp_path))
        assert main(argv) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: ") and names in err and str(path(tmp_path)) in err

    @pytest.mark.parametrize("argv, name", [
        (["solve"], "solve.json"),
        (["trace"], "trace.csv"),
        (["trace"], "plot_trace.py"),
        (["sweep", "--sweep-var", "lambda_d_ref", "--sweep-grid", "1e-5,1e-4"], "sweep.csv"),
        (["sweep", "--sweep-var", "lambda_d_ref", "--sweep-grid", "1e-5,1e-4"],
         "plot_sweep.py"),
        (["validate", "--trials", "200"], "validate.json"),
    ], ids=["solve_json", "trace_csv", "plot_trace", "sweep_csv", "plot_sweep", "validate_json"])
    def test_unwritable_output_is_config_exit(self, argv, name, tmp_path, capsys):
        # an output file's path taken by a directory: a config error naming
        # the path, not a traceback with the infeasible exit code
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(acc5_overrides()))
        out = tmp_path / "out"
        (out / name).mkdir(parents=True)
        assert main([*argv, "--config", str(cfg_path), "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(out / name) in err

    @pytest.mark.parametrize("argv", [
        ["validate", "--which", "bogus"],
        ["solve", "--no-such-option"],
        ["sweep", "--sweep-var", "budget_cell"],
        ["bogus"],
    ])
    def test_usage_error_exit(self, argv, capsys):
        assert main(argv) == EXIT_CONFIG
        assert "error:" in capsys.readouterr().err

    def test_help_exit(self, capsys):
        assert main(["solve", "--help"]) == EXIT_OK
        out = " ".join(capsys.readouterr().out.split())
        assert "--workers" in out
        # every command takes the Monte Carlo inputs; only validate runs them
        assert "--seed SEED Monte Carlo seed; only validate uses it" in out
        assert "--trials TRIALS Monte Carlo trials; only validate uses them" in out

    @pytest.mark.parametrize("command", ["solve", "trace"])
    def test_shipped_defaults_say_to_pass_config(self, command, tmp_path, capsys):
        # the defaults are validate's T = 1 layout, which no allocation meets:
        # without --config the exit-1 message and each command's help say so
        assert main([command, "--out", str(tmp_path / "a")]) == EXIT_INFEASIBLE
        assert capsys.readouterr().err.endswith("pass --config: the defaults are validate's "
                                                "layout, whose SIR thresholds of 1 no "
                                                "allocation can meet\n")
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text("{}")
        assert main([command, "--config", str(cfg_path), "--out", str(tmp_path / "b")]) \
            == EXIT_INFEASIBLE
        assert "pass --config" not in capsys.readouterr().err
        for name in ("solve", "trace", "sweep"):
            assert main([name, "--help"]) == EXIT_OK
            assert "pass --config" in " ".join(capsys.readouterr().out.split())
        assert build_parser() is build_parser()  # built once per process

    def test_sweep_without_config_says_to_pass_one(self, tmp_path, capsys):
        # every point of a sweep on the shipped defaults is infeasible: its
        # summary says to pass --config, and the exit code stays 0
        argv = ["sweep", "--sweep-var", "lambda_d_ref", "--sweep-grid", "1e-4,2e-4"]
        assert main(argv + ["--out", str(tmp_path / "a")]) == EXIT_OK
        assert capsys.readouterr().out.endswith("(2 points, 2 infeasible); pass --config: the "
                                                "defaults are validate's layout, whose SIR "
                                                "thresholds of 1 no allocation can meet\n")
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text("{}")
        assert main(argv + ["--config", str(cfg_path), "--out", str(tmp_path / "b")]) == EXIT_OK
        assert capsys.readouterr().out.endswith("(2 points, 2 infeasible)\n")

    def test_trace_rows_and_termination(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        save_config(ExperimentConfig().with_overrides(**acc5_overrides()), cfg_path)
        out = tmp_path / "out"
        assert main(["trace", "--config", str(cfg_path), "--out", str(out)]) == EXIT_OK
        rows = read_csv(out / "trace.csv")
        assert 1 <= len(rows) <= 10
        last = rows[-1]
        assert float(last["delta_d_w"]) <= 1e-5
        assert float(last["delta_c_w"]) <= 1e-5
        totals = [float(r["ee_total"]) for r in rows]
        for a, b in zip(totals, totals[1:]):
            assert b >= a * (1 - 1e-6)
        assert (out / "plot_trace.py").exists()
        header = (out / "trace.csv").read_text().splitlines()[0]
        assert header.startswith("# config:")

    def test_example_trace_pinned(self, tmp_path):
        # the whole trace.csv of the shipped example, config line included:
        # a change to how the solver keeps its iterates must not move a byte
        example = Path(__file__).resolve().parents[1] / "examples" / "table1.json"
        assert main(["trace", "--config", str(example), "--out", str(tmp_path)]) == EXIT_OK
        digest = hashlib.md5((tmp_path / "trace.csv").read_bytes()).hexdigest()
        assert digest == "2202fa7a17314b242eb5361eab9b4184"

    def test_validate_exit_codes(self, tmp_path):
        ok_cfg = tmp_path / "ok.json"
        ok_cfg.write_text(json.dumps({"lambda_d_ref": 0.0, "lambda_c_ref": 0.0,
                                      "sim": {"trials": 500}}))
        assert main(["validate", "--config", str(ok_cfg),
                     "--out", str(tmp_path / "v1")]) == EXIT_OK
        # small-sample run whose gap honestly exceeds the absolute gate
        assert main(["validate", "--trials", "400", "--seed", "0",
                     "--which", "d2d", "--out", str(tmp_path / "v2")]) == EXIT_VALIDATION


class TestSweep:
    def sweep_cfg(self, grid=(1e-5, 1e-4), threshold=1e-5):
        return ExperimentConfig().with_overrides(
            sir_threshold_d2d=threshold,
            sir_threshold_cell=threshold,
            sweep_variable="lambda_d_ref",
            sweep_grid=list(grid),
        )

    def test_schema_and_order(self):
        rows = run_sweep(self.sweep_cfg())
        fields = sweep_fieldnames(5)
        assert [r["index"] for r in rows] == [0, 1]
        for row in rows:
            assert list(row) == fields or set(row) == set(fields)

    @staticmethod
    def density_sweep_md5(tmp_path, points: int) -> str:
        """The md5 of the body of a criterion-6 sweep over ``points``
        lambda_d_ref values, log-spaced over [1e-5, 1e-3]."""
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(dict(
            sir_threshold_d2d=1e-6, sir_threshold_cell=1e-6, budget_d2d_w=0.08,
            lambda_c_ref=1e-5, baseline_p_cell_w=0.325)))
        grid = ",".join(repr(1e-5 * 100.0 ** (i / (points - 1))) for i in range(points))
        assert main(["sweep", "--config", str(cfg_path), "--sweep-var", "lambda_d_ref",
                     "--sweep-grid", grid, "--out", str(tmp_path)]) == EXIT_OK
        lines = (tmp_path / "sweep.csv").read_bytes().splitlines(keepends=True)
        return hashlib.md5(b"".join(line for line in lines if not line.startswith(b"#"))).hexdigest()

    def test_sweep_body_pinned(self, tmp_path):
        # the md5 of a 10-point criterion-6 sweep body, pinned when each
        # band's constants moved out of the phase calls and re-pinned when
        # the band md5 column was dropped, its other cells unchanged
        assert self.density_sweep_md5(tmp_path, 10) == "c9ed2e0348c05d14fbc362dc17cf19c9"

    def test_large_sweep_body_pinned(self, tmp_path):
        # the md5 of a 100-point criterion-6 sweep body, pinned before each
        # mu = 0 phase became one pass over the bands and re-pinned when the
        # band md5 column was dropped, its other cells unchanged
        assert self.density_sweep_md5(tmp_path, 100) == "35d68684c1cccf4dbf773c1e48993680"

    def test_vanishing_density_point_solves(self, tmp_path):
        # at lambda_d_ref = 1e-300 each D2D interference exponent underflows
        # or a box factor overflows; both are an infinite box end, which the
        # power cap bounds, so the point solves like a density of 0
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(dict(
            sir_threshold_d2d=1e-6, sir_threshold_cell=1e-6, budget_d2d_w=0.08,
            lambda_c_ref=1e-5, baseline_p_cell_w=0.325)))
        assert main(["sweep", "--config", str(cfg_path), "--sweep-var", "lambda_d_ref",
                     "--sweep-grid", "1e-4,1e-300", "--out", str(tmp_path)]) == EXIT_OK
        rows = read_csv(tmp_path / "sweep.csv")
        assert [float(r["swept_value"]) for r in rows] == [1e-4, 1e-300]
        for row in rows:
            assert row["infeasible_bands"] == ""
            cells = [v for k, v in row.items() if k.startswith(("p_", "ee_", "baseline_"))]
            assert len(cells) == 14 and all(math.isfinite(float(v)) for v in cells)

    def test_ee_total_past_the_largest_float_is_inf(self, tmp_path):
        # the exact sum of two finite cellular EEs overflows: the point's
        # total is inf, as + gives, and the sweep still writes every row
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(OVERFLOWING_EE_DOC))
        assert main(["sweep", "--config", str(cfg_path), "--sweep-var", "lambda_d_ref",
                     "--sweep-grid", f"1e-6,{OVERFLOWING_EE_DENSITY!r}",
                     "--out", str(tmp_path)]) == EXIT_OK
        rows = read_csv(tmp_path / "sweep.csv")
        assert [r["infeasible_bands"] for r in rows] == ["", ""]
        assert math.isfinite(float(rows[0]["ee_total"]))
        assert (rows[1]["ee_cell_total"], rows[1]["ee_total"]) == ("inf", "inf")
        assert math.isfinite(float(rows[1]["ee_d2d_total"]))

    @pytest.mark.parametrize("variable, grid, digest", [
        # a negative density is an error row; the two densest points fail qos_cell
        ("lambda_c_ref", "1e-06,-1e-05,1e-05,0.0001,0.001,0.01",
         "f9e46d51ee99c214e63c4ebbc012f9b7"),
        # the smallest budgets fail the joint solve's and the baseline's lower
        # ends; zero and negative budgets are error rows
        ("budget_d2d", "1e-05,3e-05,5e-05,0.0001,0.0,0.001,-0.01,0.08",
         "a56289d0be50641a62fce348da046a34"),
    ], ids=["lambda_c_ref", "budget_d2d"])
    def test_sweep_bodies_pinned(self, variable, grid, digest, tmp_path):
        # the md5 of small sweep bodies over the other two sweep variables, on
        # test_sweep_body_pinned's config, pinned while each point was still
        # resolved from a whole document and re-pinned when the band md5
        # column was dropped, its other cells unchanged
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(dict(
            sir_threshold_d2d=1e-6, sir_threshold_cell=1e-6, budget_d2d_w=0.08,
            lambda_c_ref=1e-5, baseline_p_cell_w=0.325)))
        assert main(["sweep", "--config", str(cfg_path), "--sweep-var", variable,
                     "--sweep-grid", grid, "--out", str(tmp_path)]) == EXIT_OK
        lines = (tmp_path / "sweep.csv").read_bytes().splitlines(keepends=True)
        body = b"".join(line for line in lines if not line.startswith(b"#"))
        assert hashlib.md5(body).hexdigest() == digest

    # test_sweep_body_pinned's config and the grids of the pinned sweeps:
    # the 100-point density grid and test_sweep_bodies_pinned's two, whose
    # error rows and infeasible rows fail at each stage of a point
    CRITERION6 = dict(sir_threshold_d2d=1e-6, sir_threshold_cell=1e-6, budget_d2d_w=0.08,
                      lambda_c_ref=1e-5, baseline_p_cell_w=0.325)
    PINNED_GRIDS = [
        ("lambda_d_ref", [1e-5 * 100.0 ** (i / 99) for i in range(100)]),
        ("lambda_c_ref", [1e-06, -1e-05, 1e-05, 0.0001, 0.001, 0.01]),
        ("budget_d2d", [1e-05, 3e-05, 5e-05, 0.0001, 0.0, 0.001, -0.01, 0.08]),
    ]

    @staticmethod
    def reported_row(cfg: ExperimentConfig, key: str, value: float) -> dict:
        """The cells of a sweep row that ``optimize_powers`` and
        ``baseline_fixed_cell`` report for one point, empty where they fail."""
        columns = _shared_columns(cfg["num_bands"])
        row = dict.fromkeys([*columns, "iterations", "converged", "baseline_ee_d2d_total"], "")
        notes = []

        def note(exc: ValueError, prefix: str = "") -> None:
            notes.append(prefix + (f"band={exc.band} constraint={exc.constraint}"
                                   if isinstance(exc, InfeasibleProblem) else f"error={exc}"))

        try:
            system = cfg.point_system(key, value)
        except ValueError as exc:
            note(exc)
            return {**row, "infeasible_bands": "; ".join(notes)}
        try:
            result = optimize_powers(system, cfg.options)
            totals = [result.metrics.ee_d2d_total, result.metrics.ee_cell_total]
            values = [*result.alloc.p_d2d_w, *result.alloc.p_cell_w, *totals, sum(totals)]
            row.update(zip(columns, (repr(float(v)) for v in values)),
                       iterations=result.trace.iterations, converged=result.trace.converged)
        except ValueError as exc:
            note(exc)
        try:
            base = baseline_fixed_cell(system, cfg["baseline_p_cell_w"], cfg.options)
            row["baseline_ee_d2d_total"] = repr(float(base.metrics.ee_d2d_total))
        except ValueError as exc:
            note(exc, "baseline: ")
        return {**row, "infeasible_bands": "; ".join(notes)}

    @pytest.mark.parametrize("variable, grid", PINNED_GRIDS, ids=[v for v, _ in PINNED_GRIDS])
    def test_row_is_what_the_solve_and_baseline_report(self, variable, grid):
        # a row reads the joint solve's last iterate and the baseline phase
        # without their reports; its cells are still theirs, failures included
        cfg = ExperimentConfig().with_overrides(**self.CRITERION6, sweep_variable=variable,
                                                sweep_grid=grid)
        key = SWEEP_KEYS[variable]
        rows = run_sweep(cfg)
        assert len(rows) == len(grid)
        for row, value in zip(rows, grid):
            expected = self.reported_row(cfg, key, value)
            assert {k: row[k] for k in expected} == expected

    def test_point_evaluates_metrics_twice_and_reports_nothing(self, monkeypatch):
        # the closed forms of the last iterate and of the baseline only: no
        # earlier iterate's metrics, no trace record and no feasibility report
        import d2dee.harness
        import d2dee.model
        import d2dee.solver

        calls = {"metrics": 0, "check_feasible": 0, "Iterate": 0}
        for module, name in [(d2dee.model, "metrics"), (d2dee.solver, "check_feasible"),
                             (d2dee.solver, "Iterate")]:
            real = getattr(module, name)

            def counted(*args, _real=real, _name=name, **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)
            # every module that holds the function by name calls the spy
            for holder in (d2dee.model, d2dee.solver, d2dee.harness):
                if holder.__dict__.get(name) is real:
                    monkeypatch.setattr(holder, name, counted)
        variable, grid = self.PINNED_GRIDS[0]
        cfg = ExperimentConfig().with_overrides(**self.CRITERION6, sweep_variable=variable,
                                                sweep_grid=grid[::11])
        rows = run_sweep(cfg)
        assert all(row["infeasible_bands"] == "" for row in rows)
        assert any(row["iterations"] > 1 for row in rows)  # optimize_powers would record each
        assert calls == {"metrics": 2 * len(rows), "check_feasible": 0, "Iterate": 0}

    def test_bytes_identical_rerun(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        doc = {
            "sir_threshold_d2d": 1e-5, "sir_threshold_cell": 1e-5,
            "sweep": {"variable": "lambda_d_ref", "grid": [1e-5, 1e-4]},
        }
        cfg_path.write_text(json.dumps(doc))
        for out in ("s1", "s2"):
            assert main(["sweep", "--config", str(cfg_path),
                         "--out", str(tmp_path / out)]) == EXIT_OK
        assert (tmp_path / "s1" / "sweep.csv").read_bytes() == \
            (tmp_path / "s2" / "sweep.csv").read_bytes()

    def test_numpy_grid_cells_parse(self):
        # numpy 2 scalars repr as "np.float64(...)"; every numeric cell must
        # still read back with float()
        rows = run_sweep(self.sweep_cfg(grid=np.geomspace(1e-5, 1e-3, 3), threshold=1e-6))
        text = {"swept_variable", "converged", "infeasible_bands"}
        for row in rows:
            assert row["infeasible_bands"] == ""
            for key in sweep_fieldnames(5):
                if key not in text:
                    float(str(row[key]))

    def test_infeasible_point_recorded_and_run_continues(self):
        # second grid point drives same-class D2D interference beyond the cap
        rows = run_sweep(self.sweep_cfg(grid=(1e-4, 10.0)))
        assert rows[0]["infeasible_bands"] == ""
        assert rows[0]["ee_d2d_total"] != ""
        assert "constraint=" in rows[1]["infeasible_bands"]
        assert rows[1]["ee_d2d_total"] == ""

    def test_invalid_grid_value_recorded_and_run_continues(self, tmp_path):
        out = tmp_path / "out"
        code = main(["sweep", "--out", str(out), "--sweep-var", "lambda_d_ref",
                     "--sweep-grid", "1e-4,-1e-4,2e-4"])
        assert code == EXIT_OK
        rows = read_csv(out / "sweep.csv")
        assert len(rows) == 3
        assert rows[1]["infeasible_bands"] == (
            "error=config field 'lambda_d_ref': must be nonnegative")
        assert rows[1]["ee_d2d_total"] == "" and rows[1]["baseline_ee_d2d_total"] == ""
        assert all(r["infeasible_bands"].startswith("band=") for r in (rows[0], rows[2]))

    @pytest.mark.parametrize("variable, grid", [
        ("lambda_d_ref", "1e-05,3.1622776601683795e-05,0.0001,-1e-05"),
        ("budget_d2d", "1e-05,0.001,0.08,0.0"),
    ])
    def test_row_bands_from_the_csv_alone(self, variable, grid, tmp_path):
        # the CSV's config line, resolved with the swept key at a row's
        # swept value, gives the system the sweep solved that row on
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(self.CRITERION6))
        assert main(["sweep", "--config", str(cfg_path), "--sweep-var", variable,
                     "--sweep-grid", grid, "--out", str(tmp_path)]) == EXIT_OK
        header = (tmp_path / "sweep.csv").read_text().splitlines()[0]
        header_path = tmp_path / "header.json"
        header_path.write_text(header.removeprefix("# config: "))
        base = load_config(cfg_path)
        rows = read_csv(tmp_path / "sweep.csv")
        assert [float(r["swept_value"]) for r in rows] == list(map(float, grid.split(",")))
        for row in rows:
            key, value = SWEEP_KEYS[row["swept_variable"]], float(row["swept_value"])
            try:
                point = base.point_system(key, value)
            except ValueError as exc:
                assert row["infeasible_bands"] == f"error={exc}"
                with pytest.raises(ValueError, match=re.escape(str(exc))):
                    load_config(header_path, **{key: value})
                continue
            assert load_config(header_path, **{key: value}).system == point

    def test_missing_sweep_config_rejected(self):
        with pytest.raises(ValueError, match="sweep"):
            run_sweep(ExperimentConfig())

    def test_sweep_variables_from_one_list(self):
        parser = build_parser()
        for variable in SWEEP_KEYS:
            assert parser.parse_args(["sweep", "--sweep-var", variable]).sweep_var == variable
        with pytest.raises(ValueError, match=re.escape(
                "must be one of ('lambda_d_ref', 'lambda_c_ref', 'budget_d2d')")):
            ExperimentConfig().with_overrides(sweep_variable="budget_cell", sweep_grid=[1.0])

    def test_budget_sweep_sets_the_budget(self):
        # the fixed-cellular baseline's D2D lower ends outgrow the smaller budget
        cfg = self.sweep_cfg().with_overrides(sweep_variable="budget_d2d",
                                              sweep_grid=[1e-3, 1e-2])
        rows = run_sweep(cfg)
        assert [r["infeasible_bands"] for r in rows] == [
            "baseline: band=None constraint=budget_d2d", ""]

    def test_sweep_var_from_cli(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"sir_threshold_d2d": 1e-5,
                                        "sir_threshold_cell": 1e-5}))
        out = tmp_path / "out"
        code = main(["sweep", "--config", str(cfg_path), "--out", str(out),
                     "--sweep-var", "lambda_c_ref", "--sweep-grid", "5e-6,1e-5"])
        assert code == EXIT_OK
        rows = read_csv(out / "sweep.csv")
        assert [r["swept_variable"] for r in rows] == ["lambda_c_ref"] * 2

    def test_out_dir_env_var(self, tmp_path, monkeypatch):
        monkeypatch.setenv("D2DEE_OUT", str(tmp_path / "envout"))
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"lambda_d_ref": 0.0, "lambda_c_ref": 0.0,
                                        "sim": {"trials": 500}}))
        assert main(["validate", "--config", str(cfg_path)]) == EXIT_OK
        assert (tmp_path / "envout" / "validate.json").exists()


# bases whose multipliers scale by more than 1 (so a large density overflows
# to inf), by exactly 1, and by 0
POINT_BASES = [ExperimentConfig(),
               ExperimentConfig().with_overrides(multiplier_d2d=1, multiplier_cell=[
                   0.0, 1.0, 2.5, 0.0, 1e300])]
swept_values = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(0.0, 0.1),
    st.floats(allow_nan=False, allow_infinity=False).map(np.float64),
    st.integers(-10, 10**6),
    st.integers(-10, 10**6).map(np.int64),
    st.sampled_from([0.0, -0.0, 0, 5e-324, 1e-300, 5e-5, 1e308, 10**308, 10**400, True,
                     np.float64(1e307)]),
)


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(cfg=st.sampled_from(POINT_BASES), key=st.sampled_from(sorted(set(SWEEP_KEYS.values()))),
       value=swept_values)
def test_point_system_matches_full_resolution(cfg, key, value):
    # a sweep point derived from the resolved base is the point resolved in
    # full: the same system and number types, or the same error
    with np.errstate(over="ignore"):  # a numpy density may overflow to inf, as it should
        try:
            full = cfg.with_overrides(**{key: value}).system
        except ValueError as exc:
            with pytest.raises(ValueError) as raised:
                cfg.point_system(key, value)
            assert str(raised.value) == str(exc)
            return
        point = cfg.point_system(key, value)
    assert point == full
    assert [list(map(type, vars(b).values())) for b in point.bands] == \
        [list(map(type, vars(b).values())) for b in full.bands]
    assert type(point.budget_d2d_w) is type(full.budget_d2d_w)
    # the derived constants too, which == on the fields cannot see
    slots = ("_coeffs", "_rates", "_cap_exps", "_margins", "_phase")
    assert [[repr(getattr(b, s)) for s in slots] for b in point.bands] == \
        [[repr(getattr(b, s)) for s in slots] for b in full.bands]


@pytest.mark.parametrize("fieldnames, rows", [
    (["a", "b,c", 'd"e'],
     [{"a": "x,y", "b,c": 'say "hi"', 'd"e': ""},
      {'d"e': "two\r\nlines", "a": "", "b,c": "cr\rlf\n"},
      {"a": 1.5, "b,c": True, 'd"e': None}]),
    (["only"], [{"only": "a,b"}, {"only": ""}, {"only": 0.1}]),
    (["a", "b"], []),
], ids=["quoted", "one_column", "no_rows"])
def test_write_csv_matches_dict_writer(tmp_path, fieldnames, rows):
    # csv.DictWriter is the reference: same header, cells, quoting and
    # line ends, rows given in another key order included
    ref = io.StringIO()
    ref.write("# a comment\r\n")
    writer = csv.DictWriter(ref, fieldnames=fieldnames, lineterminator="\r\n")
    writer.writeheader()
    writer.writerows(rows)
    path = tmp_path / "out.csv"
    write_csv(path, ["# a comment"], fieldnames, rows)
    assert path.read_bytes() == ref.getvalue().encode()


def test_cli_import_loads_no_pool_or_logging():
    # the process pool and logging load only when a command needs them,
    # which keeps start-up short
    import d2dee

    src = str(Path(d2dee.__file__).resolve().parents[1])
    code = (f"import sys; sys.path.insert(0, {src!r}); import d2dee.cli; "
            "print([m for m in ('multiprocessing', 'concurrent.futures', 'logging', 'hashlib') "
            "if m in sys.modules])")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60, check=True)
    assert done.stdout.strip() == "[]"


def test_only_validate_loads_numpy(tmp_path):
    # the Monte Carlo oracle, and numpy with it, loads on first use: importing
    # the package and running solve, trace or sweep must load neither
    import d2dee

    src = str(Path(d2dee.__file__).resolve().parents[1])
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(acc5_overrides()))
    common = ["--config", str(cfg_path), "--out", str(tmp_path)]
    commands = [["solve", *common], ["trace", *common],
                ["sweep", *common, "--sweep-var", "lambda_d_ref", "--sweep-grid", "1e-5,1e-4"],
                ["validate", *common, "--trials", "200"]]
    code = (f"import contextlib, io, json, sys; sys.path.insert(0, {src!r})\n"
            "import d2dee, d2dee.cli\n"
            "def loaded(): return [m for m in ('numpy', 'd2dee.simulate') if m in sys.modules]\n"
            "seen = [loaded()]\n"
            f"for argv in {commands!r}:\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        seen.append([d2dee.cli.main(argv), loaded()])\n"
            "print(json.dumps(seen))")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120, check=True)
    seen = json.loads(done.stdout)
    assert seen[:4] == [[], [EXIT_OK, []], [EXIT_OK, []], [EXIT_OK, []]]
    # only what validate loads matters here, not its verdict at 200 trials
    assert seen[4][1] == ["numpy", "d2dee.simulate"]


def test_package_serves_the_oracle_lazily():
    import d2dee
    from d2dee import simulate

    for name in ("SimScenario", "StpEstimate", "estimate_links"):
        assert getattr(d2dee, name) is getattr(simulate, name)
        assert name in dir(d2dee)
    with pytest.raises(AttributeError, match="'nonexistent'"):
        d2dee.nonexistent


@pytest.mark.parametrize("module", ["model", "simulate", "solver", "harness", "config"])
def test_all_names_exist(module):
    mod = importlib.import_module(f"d2dee.{module}")
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []
