"""Reference runs: the benchmark's frozen copy of d2dee, timed on its commands.

Usage: python3 perfbench/reference.py --serve

The machine the benchmark runs on is shared, and its speed drifts by up to
2x, in stretches of a second to minutes, as other tenants contend for it.
Wall time and CPU time drift alike, and fixed calibration kernels track the
drift only loosely, because code with another instruction mix feels the
contention to another degree.  ``run.py`` therefore times every command
twice, back to back: once on the program in ``src/`` and once on
``perfbench/reference/d2dee``, a copy of the program's sources frozen when
the benchmark was defined.  The copy feels the contention exactly as the
program did then, so the ratio of the two times cancels the drift, and a
change to the program moves the ratio as it moves the program's own time.

This helper imports the frozen copy and, for each JSON command line read
from stdin, runs it with ``cli.main`` and answers with its seconds.  It runs
as a process of its own, started before the benchmark grows, so that the
copy does not mix with the program's modules and its memory does not count
in the benchmark's peak resident size.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import sys
import time
from pathlib import Path

FROZEN = Path(__file__).resolve().parent / "reference"


def serve() -> None:
    sys.path.insert(0, str(FROZEN))
    from d2dee import cli

    if Path(cli.__file__).resolve().parent != FROZEN / "d2dee":
        raise SystemExit(f"error: imported d2dee from {cli.__file__}, not {FROZEN}")
    for line in sys.stdin:
        argv = json.loads(line)
        gc.collect()
        start = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            cli.main(argv)  # validate exits 2 when a tiny run misses its gates
        print(json.dumps(time.perf_counter() - start), flush=True)


if __name__ == "__main__":
    if sys.argv[1:] != ["--serve"]:
        raise SystemExit("usage: python3 perfbench/reference.py --serve")
    serve()
