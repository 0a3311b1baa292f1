#!/usr/bin/env python3
"""End-to-end benchmark of the d2dee command line.

Run from the repository root:

    python3 perfbench/run.py --workload sweep-density --seed 1 --seconds 20 --trace 0

One client drives ``d2dee.cli.main`` in this process as a closed loop, one
command at a time, on inputs made from ``--seed``.  A warm-up command at a
tiny size runs first; the command is then repeated until ``--seconds`` have
passed.  Every command's output is checked (see workloads.py).  The last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it records the environment, the
inputs and every raw timing.

With ``--trace 0`` the metrics are the end-to-end ones.  With ``--trace 1``
untraced and traced commands alternate, and the metrics are the per-layer
ones from the traced commands (see tracing.py) plus the tracing overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
SETUP_PROBES = 3
PROBE_EVERY_S = 6.0

sys.path.insert(0, str(HERE))
import tracing  # noqa: E402
import workloads  # noqa: E402


def _median(values):
    return statistics.median(values) if values else 0.0


class Server:
    """A helper process that answers one JSON line for each JSON request.

    Helpers start before this process grows: a process started with exec
    inherits its parent's peak resident size in the kernel's accounting,
    so a small parent keeps each helper's peak its own (see probe.py)."""

    def __init__(self, script: str, *args: str):
        self.script = script
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / script), "--serve", *args],
            cwd=ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def ask(self, request):
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        answer = self.proc.stdout.readline()
        if not answer:
            raise RuntimeError(f"{self.script} ended without answering {request!r}")
        return json.loads(answer)

    def close(self) -> None:
        """End the helper and wait for it; kill it if it does not end."""
        if self.proc.poll() is None:
            self.proc.stdin.close()
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


def setup_seconds(probe: Server, argv: list[str]) -> float:
    """Seconds from launching a fresh interpreter until the CLI is imported
    and the command's config is resolved."""
    launched, resolved = probe.ask(argv)
    return resolved - launched


class Runner:
    """Runs the job's commands in turn through the CLI and checks each output."""

    def __init__(self, job):
        self.job = job
        self.commands = 0
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def run(self):
        from d2dee import cli

        index = self.commands % len(self.job.argvs)
        self.commands += 1
        for path in self.job.outputs():
            path.unlink(missing_ok=True)
        gc.collect()
        code, error = None, None
        sink = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code = cli.main(list(self.job.argvs[index]))
        except (Exception, SystemExit) as exc:  # a failed command is counted, not fatal
            error = exc
        seconds = time.perf_counter() - start
        outcome = self.job.check(index, code, error)
        self.attempted += outcome.attempted
        self.failed += outcome.failed
        if outcome.reasons and len(self.reasons) < 10:
            self.reasons.extend(outcome.reasons)
        return seconds, outcome


def _repeat(budget_s: float, step, until=lambda: True) -> None:
    """Call ``step`` at least once, and again while another call of the same
    length would still end within ``budget_s`` seconds or ``until()`` fails."""
    start = time.perf_counter()
    while True:
        begun = time.perf_counter()
        step()
        now = time.perf_counter()
        if now - start + (now - begun) > budget_s and until():
            return


def warm_up(workload, seed: int, workdir: Path) -> tuple[float, list[str]]:
    """Run the workload once at its tiny size, unchecked; return its seconds
    and its command line.

    This pays the one-time costs of a first command (lazy imports, first
    allocations) outside the timed loop."""
    from d2dee import cli

    workdir.mkdir()
    argv = workload(seed, True, workdir).argvs[0]
    start = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        cli.main(argv)
    return time.perf_counter() - start, argv


def measure(job, runner: Runner, probe: Server, frozen: Server, seconds: float,
            record: dict, workdir: Path, warmup_argv: list[str]) -> dict:
    # Set-up probes run at the start and then every PROBE_EVERY_S seconds,
    # so that their median samples the whole run rather than one moment of it.
    setup = [setup_seconds(probe, job.argvs[0]) for _ in range(SETUP_PROBES)]
    # The frozen copy writes its outputs apart from the program's.
    frozen_argvs = [_with_out(argv, workdir / "reference") for argv in job.frozen_argvs]
    frozen.ask(_with_out(warmup_argv, workdir / "reference"))
    samples = []  # (program seconds, outcome, frozen copy seconds)
    last_probe = time.perf_counter()

    def step():
        # Each command runs on the program and on the frozen copy back to
        # back, in alternating order, so that neither always runs first.
        nonlocal last_probe
        index = runner.commands % len(job.argvs)
        if len(samples) % 2 == 0:
            reference_s = frozen.ask(frozen_argvs[index])
            program_s, outcome = runner.run()
        else:
            program_s, outcome = runner.run()
            reference_s = frozen.ask(frozen_argvs[index])
        samples.append((program_s, outcome, reference_s))
        if time.perf_counter() - last_probe >= PROBE_EVERY_S:
            setup.append(setup_seconds(probe, job.argvs[0]))
            last_probe = time.perf_counter()

    _repeat(seconds, step)
    probe.close()

    # The program's speed relative to the frozen copy, on the same command at
    # the same moment, cancels the machine's drift (see reference.py).  The
    # round time is that ratio times the frozen copy's round time on the
    # machine the benchmark was defined on, which only fixes the unit.
    ratio = _median([program_s / reference_s for program_s, _, reference_s in samples])
    round_s = ratio * job.reference_round_s
    round_ops = job.ops * len(job.argvs)
    se_time = round_s
    errs = [outcome.std_err_max for _, outcome, _ in samples if outcome.std_err_max]
    if isinstance(job, workloads.Validate) and errs:
        # time for both links to reach the target standard error, from the
        # measured time and the 1/sqrt(n) scaling of the error
        se_time *= (errs[0] / workloads.TARGET_STD_ERR) ** 2
    # this process's peak plus the largest peak of its finished children,
    # read while the frozen copy's helper still runs, so that it does not count
    rss_kb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
              + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    record.update(
        setup_samples_s=setup,
        command_samples_s=[program_s for program_s, _, _ in samples],
        reference_samples_s=[reference_s for _, _, reference_s in samples],
        ratio_to_reference=ratio,
        ops_unit=f"{job.ops_unit}/s",
        ops_per_command=job.ops,
        fail_frac=runner.failed / runner.attempted,
    )
    values = {
        "setup_s": (_median(setup), "s"),
        "ops_per_s": (round_ops / round_s, "1/s"),
        "se_time_s": (se_time, "s"),
        "ok_frac": (1.0 - runner.failed / runner.attempted, "frac"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
    }
    return {name: {"value": v, "unit": u} for name, (v, u) in values.items()}


def _with_out(argv: list[str], out: Path) -> list[str]:
    """The command line with its ``--out`` directory replaced."""
    at = argv.index("--out") + 1
    return [*argv[:at], str(out), *argv[at + 1:]]


def measure_traced(runner: Runner, seconds: float, record: dict, workdir: Path) -> dict:
    tracer = tracing.Tracer()
    plain, traced = [], []

    def step():
        if len(plain) == len(traced):
            plain.append(runner.run()[0])
            return
        tracer.install()
        try:
            traced.append(runner.run()[0])
        finally:
            tracer.uninstall()

    _repeat(seconds, step, until=lambda: bool(traced))
    overhead = _median(traced) / _median(plain) - 1.0
    tracer.write_spans(workdir / "spans.jsonl")
    record.update(
        untraced_samples_s=plain,
        traced_samples_s=traced,
        spans=len(tracer.spans),
        absent=tracer.absent,
        unreadable=sorted(tracer.unreadable),
        fail_frac=runner.failed / runner.attempted,
    )
    return tracer.layer_metrics(len(traced), overhead)


def git_commit() -> str | None:
    """HEAD of the checkout, if it is a git work tree (it need not be)."""
    if not shutil.which("git"):
        return None
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=30)
    return done.stdout.strip() if done.returncode == 0 else None


def environment(commit: str | None) -> dict:
    import numpy

    cpu = platform.processor() or ""
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    digest = hashlib.sha256()
    for path in sorted((SRC / "d2dee").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny inputs, for the smoke check")
    args = parser.parse_args(argv)

    if not (SRC / "d2dee" / "cli.py").is_file():
        print(f"error: program sources not found under {SRC}", file=sys.stderr)
        return 2
    # Helper processes start before this process imports anything large;
    # see Server for why.
    commit = git_commit()
    servers = [] if args.trace else [Server("probe.py", str(SRC)), Server("reference.py")]
    try:
        return run(args, commit, *servers)
    finally:
        for server in servers:
            server.close()


def run(args, commit: str | None, probe: Server | None = None,
        frozen: Server | None = None) -> int:
    sys.path.insert(0, str(SRC))
    import d2dee.cli

    if Path(d2dee.cli.__file__).resolve().parent != SRC / "d2dee":
        print(f"error: imported d2dee from {d2dee.cli.__file__}, not {SRC}", file=sys.stderr)
        return 2

    workdir = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    job = workloads.WORKLOADS[args.workload](args.seed, args.size == "tiny", workdir)
    runner = Runner(job)
    warmup_s, warmup_argv = warm_up(workloads.WORKLOADS[args.workload], args.seed,
                                    workdir / "warmup")
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "inputs": job.inputs,
        "environment": environment(commit),
        "warmup_s": warmup_s,
    }
    if args.trace:
        metrics = measure_traced(runner, args.seconds, record, workdir)
    else:
        metrics = measure(job, runner, probe, frozen, args.seconds, record, workdir, warmup_argv)
    record["failures"] = runner.reasons
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
