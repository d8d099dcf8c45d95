"""One benchmark step in a fresh process; prints one JSON line.

    worker.py setup <workload> <seed> <container> <trace 0|1>
        import mxblock and write the workload's inputs
    worker.py command <trace 0|1> <mxblock argv...>
        import mxblock and run one command through ``mxblock.cli.main``

Each step runs in its own process so that its peak RSS and its import time
are its own. mxblock is imported from ``src/`` of the checkout this file
sits in, never from an installed copy.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def _import_mxblock():
    """(mxblock.cli, seconds the import took)."""
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import mxblock.cli
    elapsed = time.perf_counter() - t0
    if Path(mxblock.__file__).resolve().parent.parent != SRC:
        raise SystemExit(f"imported mxblock from {mxblock.__file__}, not {SRC}")
    return mxblock.cli, elapsed


def _tracer(on: str):
    if on != "1":
        return None
    from layertrace import Tracer
    tracer = Tracer()
    tracer.install()
    return tracer


def setup(workload: str, seed: str, container: str, trace: str) -> dict:
    _, import_s = _import_mxblock()
    import workloads
    tracer = _tracer(trace)
    t0 = time.perf_counter()
    if workload == "decompose-ckpt":
        workloads.write_container(int(seed), container)
    return {"setup_s": import_s + time.perf_counter() - t0,
            "stats": tracer.stats if tracer else {}}


def command(trace: str, *argv: str) -> dict:
    cli, _ = _import_mxblock()
    tracer = _tracer(trace)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        t0 = time.perf_counter()
        rc = cli.main(list(argv))
        wall = time.perf_counter() - t0
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {"rc": rc, "wall_s": wall, "peak_rss_mb": kib * 1024 / 1e6,
            "report": out.getvalue(), "stats": tracer.stats if tracer else {}}


if __name__ == "__main__":
    step = {"setup": setup, "command": command}[sys.argv[1]]
    print(json.dumps(step(*sys.argv[2:])))
