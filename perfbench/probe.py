"""Set-up probe: import the d2dee CLI, resolve one command's config, print the clock.

Usage: python3 perfbench/probe.py <src dir> <d2dee command line...>
       python3 perfbench/probe.py --serve <src dir>

The first form prints CLOCK_MONOTONIC, which is system-wide, once the config
is resolved.  The second reads one JSON command line per input line, runs
the first form on it, and answers with the JSON pair [launched, resolved].
``run.py`` starts the server before it grows: a process started with exec
inherits its parent's peak resident size in the kernel's accounting, so
probes launched from a small server keep the benchmark's children's peak
size their own.
"""

import json
import subprocess
import sys
import time


def probe(src: str, argv: list[str]) -> None:
    sys.path.insert(0, src)
    from d2dee import cli
    from d2dee.config import ExperimentConfig, load_config

    args = cli.build_parser().parse_args(argv)
    cfg = load_config(args.config) if args.config else ExperimentConfig()
    grid = getattr(args, "sweep_grid", None)
    cfg.with_overrides(
        seed=args.seed, trials=args.trials, workers=args.workers,
        sweep_variable=getattr(args, "sweep_var", None),
        sweep_grid=[float(v) for v in grid.split(",")] if grid else None,
    )
    print(time.clock_gettime(time.CLOCK_MONOTONIC))


def serve(src: str) -> None:
    for line in sys.stdin:
        launched = time.clock_gettime(time.CLOCK_MONOTONIC)
        done = subprocess.run(
            [sys.executable, __file__, src, *json.loads(line)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        print(json.dumps([launched, float(done.stdout.split()[-1])]), flush=True)


if __name__ == "__main__":
    if sys.argv[1] == "--serve":
        serve(sys.argv[2])
    else:
        probe(sys.argv[1], sys.argv[2:])
