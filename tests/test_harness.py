import json
import math

import numpy as np
import pytest

from d2dee import ExperimentConfig, build_system, load_config, save_config
from d2dee.cli import EXIT_CONFIG, EXIT_INFEASIBLE, EXIT_OK, EXIT_VALIDATION, main
from d2dee.harness import (
    read_csv,
    run_solve,
    run_sweep,
    run_trace,
    run_validate,
    sweep_fieldnames,
)


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
        with pytest.raises(ValueError, match="pathloss exponent must exceed 2"):
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

    def test_db_and_linear_conflict(self, tmp_path):
        path = tmp_path / "db.json"
        path.write_text(json.dumps({"sir_threshold_d2d_db": -50.0,
                                    "sir_threshold_d2d": 1e-5}))
        with pytest.raises(ValueError, match="both linear and dB"):
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

    def test_corrupted_analytic_fails(self, monkeypatch):
        # a corrupted closed form, as estimate_stp reads it, must fail the gates
        monkeypatch.setattr("d2dee.simulate.stp_d2d", lambda band, p_cell_w, p_d2d_w: 0.5)
        cfg = ExperimentConfig().with_overrides(trials=2000, seed=7)
        _, ok = run_validate(cfg, which="d2d")
        assert not ok


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
            assert row["band_params_md5"]

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
        text = {"swept_variable", "converged", "infeasible_bands", "band_params_md5"}
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

    def test_joint_and_baseline_share_band_hash(self):
        rows = run_sweep(self.sweep_cfg())
        for row in rows:
            system = build_system(
                self.sweep_cfg().with_overrides(lambda_d_ref=float(row["swept_value"]))
            )
            from d2dee.harness import _band_hash

            assert row["band_params_md5"] == _band_hash(system)

    def test_missing_sweep_config_rejected(self):
        with pytest.raises(ValueError, match="sweep"):
            run_sweep(ExperimentConfig())

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
