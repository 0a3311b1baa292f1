#!/usr/bin/env python3
"""Fast self-check of the benchmark; run from the repository root:

    python3 perfbench/smoke.py

Runs every workload at a tiny size, untraced and traced, and asserts that
the result line carries exactly the metrics BENCHMARK.json names, each with
its unit, and that the record line carries the seed, the environment and the
failure fraction.  Then it checks that the benchmark refuses to run, without
printing a result, when the program's sources are missing.  Exits 1 on the
first failed assertion.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import tracing  # noqa: E402
import workloads  # noqa: E402

ENV_KEYS = {"python", "numpy", "nproc", "cpu_model", "git_commit", "source_sha256"}


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def check_output(spec: dict, workload: str, trace: int, done) -> None:
    where = f"{workload} --trace {trace}"
    assert done.returncode == 0, f"{where}: exit {done.returncode}\n{done.stderr}"
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    record = json.loads(lines[-2])["record"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, where
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"], where
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = result["metrics"]
    assert set(got) == set(wanted), f"{where}: metrics {sorted(set(got) ^ set(wanted))}"
    for name, unit in wanted.items():
        value = got[name]
        assert value["unit"] == unit, f"{where}: {name} unit {value['unit']} != {unit}"
        assert isinstance(value["value"], (int, float)) and math.isfinite(value["value"]), \
            f"{where}: {name} = {value['value']!r}"
    assert record["seed"] == 1 and record["workload"] == workload, where
    assert ENV_KEYS <= set(record["environment"]), f"{where}: environment {record['environment']}"
    assert record["warmup_s"] > 0, where
    assert 0.0 <= record["fail_frac"] <= 1.0, where
    if not trace:
        assert record["ratio_to_reference"] > 0, f"{where}: no frozen-copy timing"
    if workload.startswith("sweep"):
        # tiny sweeps stay feasible; a tiny validate is too short for its gates
        assert result["correct"], f"{where}: {record['failures']}"


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    assert declared == list(tracing.PER_LAYER), "BENCHMARK.json per_layer != tracing.PER_LAYER"
    # every workload run.py offers, also those BENCHMARK.json leaves out
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            check_output(spec, name, trace, run(ROOT, name, trace))
            print(f"ok  {name} --trace {trace}")

    bare = HERE / ".work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    done = run(bare, spec["workloads"][0]["name"], 0)
    shutil.rmtree(bare)
    assert done.returncode != 0 and not done.stdout.strip(), "ran without the program"
    print("ok  refuses to run without the program")
    return 0


if __name__ == "__main__":
    try:
        raise SystemExit(main())
    except AssertionError as exc:
        print(f"FAIL {exc}", file=sys.stderr)
        raise SystemExit(1)
