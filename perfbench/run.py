"""mxblock benchmark: seeded CLI workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload decompose-ckpt --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout; it imports mxblock from ``src/``.

Workloads (closed loop, one caller, one command at a time):

- ``decompose-ckpt``: ``mxblock decompose --input <container>`` on a seeded
  BF16 container (4096x4096 Student-t, 2048x2048 Gaussian, 64 vectors of
  4100). The only workload with a container load, short tail blocks and
  exact midpoint ties; its largest array is 128 MiB as float64.
- ``mbs-exhaustive``: ``mxblock mbs --synth gaussian:512x512 --macro-block
  128 --mbs-mode exhaustive``. The same quantize and formats kernels on
  256 prescaled trials per macro block: small input, no ties, no tails.
- ``temp-mc``: ``mxblock temp --vocab 100 --draws 20000`` at one noise
  level. Monte Carlo only; it never touches the quantizer, so it is the
  no-change control for quantizer work.

Each step runs in a fresh process (``worker.py``). Set-up runs
``SETUP_REPEATS`` times: import mxblock, then write the workload's inputs.
Then commands run one after another until ``--seconds`` have passed and at
least ``MIN_COMMANDS`` have run.

``--trace 0`` prints the end-to-end metrics: ``wall_s``, the median time in
``cli.main``; ``peak_rss_mb``, the median peak RSS of the command processes;
``setup_s``, the median set-up time. ``--trace 1`` alternates untraced and
traced commands and prints the per-layer metrics named in BENCHMARK.json.
Every command's output is checked and digested; the last stdout line is the
JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 5
MIN_COMMANDS = 3             # a median of fewer than 3 is a mean
STEP_TIMEOUT_S = 150
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORK_DIR = ROOT / ".perfbench-work"


class BenchError(RuntimeError):
    pass


# --- machine record ----------------------------------------------------------------


def _l3_bytes() -> int | None:
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            if (index / "level").read_text().strip() != "3":
                continue
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        units = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}
        return int(size[:-1]) * units[size[-1]] if size[-1] in units else int(size)
    return None


def child_env(nproc: int) -> dict[str, str]:
    """The environment of every step, with BLAS threads capped at nproc."""
    env = dict(os.environ)
    for var in BLAS_VARS:
        try:
            threads = min(int(env.get(var, nproc)), nproc)
        except ValueError:
            threads = nproc
        env[var] = str(max(threads, 1))
    return env


def machine_lines(workload: str, nproc: int, env: dict[str, str]) -> list[str]:
    mib = 1 << 20
    blas = ",".join(f"{v}={env[v]}" for v in BLAS_VARS)
    lines = [f"machine: nproc={nproc} python={platform.python_version()} "
             f"numpy={np.__version__} {blas}"]
    largest = workloads.LARGEST_INPUT_BYTES[workload]
    l3 = _l3_bytes()
    if l3 is None:
        lines.append(f"largest input array: {largest / mib:.3g} MiB as float64; "
                     "L3 size unknown")
    else:
        ratio = largest / l3
        where = ("inside L3" if ratio <= 1 else
                 "above L3 but under 4x L3" if ratio < 4 else "at least 4x L3")
        lines.append(f"largest input array: {largest / mib:.3g} MiB as float64, "
                     f"L3 {l3 / mib:.3g} MiB, ratio {ratio:.3g} ({where})")
    return lines


# --- steps -------------------------------------------------------------------------


def step(env: dict[str, str], *args: str) -> dict:
    """Run worker.py in a fresh process and return its JSON line. The
    process is killed and reaped if it outlives STEP_TIMEOUT_S."""
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *args],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=STEP_TIMEOUT_S)
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-5:]
        raise BenchError(f"worker {args[0]} exited {proc.returncode}: "
                         + " | ".join(tail))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def file_sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def results_digest(results: dict) -> str:
    """sha256 of the report's results block; duration_seconds sits outside it."""
    text = json.dumps(results, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def run_setups(workload: str, seed: int, trace: bool, work: Path,
               env: dict[str, str]) -> tuple[list[dict], Path]:
    """SETUP_REPEATS fresh set-ups; every one must write the same bytes."""
    outs, paths = [], []
    for k in range(SETUP_REPEATS):
        path = work / f"inputs-{k}.bin"
        outs.append(step(env, "setup", workload, str(seed), str(path), str(int(trace))))
        paths.append(path)
    if workload == "decompose-ckpt":
        digests = {file_sha256(p) for p in paths}
        if len(digests) != 1:
            raise BenchError(f"seed {seed} wrote {len(digests)} different containers")
        for p in paths[1:]:
            p.unlink()
    return outs, paths[0]


# --- per-layer metrics ---------------------------------------------------------------


def layer_values(names: list[str], workload: str, out: dict) -> dict:
    """Per-layer metrics of one traced command."""
    stats = out["stats"]
    values = {n: float(stats.get(n, 0.0)) for n in names}
    tensors = workloads.TENSORS[workload]
    calls = stats.get("decompose.decompose_tensor.calls", 0.0)
    macros = stats.get("corrections.mbs_qdq.macros", 0.0)
    values.update({
        "decompose.decompose_tensor.calls_per_tensor": calls / tensors if tensors else 0.0,
        "decompose.identity_margin": workloads.identity_margin(out["results"]),
        "corrections.qdq_blocks_per_macro":
            stats.get("quantize.qdq_views.from-corrections.blocks", 0.0) / macros
            if macros else 0.0,
        "cli.report_bytes": float(len(out["report"].encode("utf-8"))),
        "trace.coverage_frac": stats.get("trace.covered_s", 0.0) / out["wall_s"],
    })
    return values


# --- main ----------------------------------------------------------------------------


def measure(args, spec: dict, env: dict[str, str], work: Path) -> dict:
    setups, container = run_setups(args.workload, args.seed, args.trace, work, env)
    # relative to the working directory of every step, so the report does not
    # depend on where the checkout lives
    argv = workloads.argv(args.workload, args.seed, os.path.relpath(container, ROOT))
    ref = workloads.reference(args.workload, str(container))
    print("command: mxblock " + " ".join(argv))

    modes = [False, True] if args.trace else [False]
    runs = {False: [], True: []}
    attempted = failed = 0
    digest = None
    start = time.monotonic()
    while attempted < MIN_COMMANDS or time.monotonic() - start < args.seconds:
        traced = modes[attempted % len(modes)]
        attempted += 1
        try:
            out = step(env, "command", str(int(traced)), *argv)
            problems = [f"exit code {out['rc']}"] if out["rc"] != 0 else []
        except BenchError as exc:
            problems = [str(exc)]
        if not problems:
            try:
                results = json.loads(out["report"])["results"]
            except (json.JSONDecodeError, KeyError) as exc:
                problems.append(f"unreadable report: {exc!r}")
        if not problems:
            d = results_digest(results)
            digest = digest or d
            if d != digest:
                problems.append(f"results digest {d} != {digest}")
            problems += workloads.check(args.workload, results, ref)
        if problems:
            failed += 1
            print(f"FAILED ({'traced' if traced else 'untraced'}): " + "; ".join(problems))
            continue
        out["results"] = results
        runs[traced].append(out)

    if not runs[False] or (args.trace and not runs[True]):
        raise BenchError(f"all {attempted} commands failed")
    print(f"results digest {args.workload}: {digest}")
    print(f"fail_frac: {failed / attempted:.4g} ratio ({failed} of {attempted} commands)")

    untraced = runs[False]
    if not args.trace:
        metrics = {
            "wall_s": statistics.median(o["wall_s"] for o in untraced),
            "peak_rss_mb": statistics.median(o["peak_rss_mb"] for o in untraced),
            "setup_s": statistics.median(o["setup_s"] for o in setups),
        }
        counts = {"wall_s": len(untraced), "peak_rss_mb": len(untraced),
                  "setup_s": len(setups)}
        print("wall_s samples: " + " ".join(f"{o['wall_s']:.4f}" for o in untraced))
        print("setup_s samples: " + " ".join(f"{o['setup_s']:.4f}" for o in setups))
        for m in spec["end_to_end"]:
            print(f"{m['name']}: {metrics[m['name']]:.6g} {m['unit']} "
                  f"(median of {counts[m['name']]})")
    else:
        names = [m["name"] for m in spec["per_layer"]]
        per_cmd = [layer_values(names, args.workload, o) for o in runs[True]]
        metrics = {n: statistics.median(v[n] for v in per_cmd) for n in names}
        metrics["tensorstore.save_container.self_s"] = statistics.median(
            s["stats"].get("tensorstore.save_container.self_s", 0.0) for s in setups)
        metrics["trace.overhead_frac"] = (
            statistics.median(o["wall_s"] for o in runs[True])
            / statistics.median(o["wall_s"] for o in untraced) - 1.0)
        print(f"traced commands: {len(runs[True])}, untraced: {len(untraced)}")
        for m in spec["per_layer"]:
            print(f"{m['name']}: {metrics[m['name']]:.6g} {m['unit']}")

    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()}}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    if not (ROOT / "src" / "mxblock" / "cli.py").is_file():
        print(f"error: no mxblock sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    nproc = len(os.sched_getaffinity(0))
    env = child_env(nproc)
    for line in machine_lines(args.workload, nproc, env):
        print(line)

    WORK_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=WORK_DIR))
    try:
        result = measure(args, spec, env, work)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if not any(WORK_DIR.iterdir()):
            WORK_DIR.rmdir()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
