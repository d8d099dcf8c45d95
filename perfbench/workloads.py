"""The three benchmark workloads: their inputs, command lines and output checks.

Every input is a function of the workload seed. The checks recompute what
they can without the kernels under test, so a kernel that got faster by
getting wrong fails the run instead of improving it.
"""

from __future__ import annotations

import json
import math
import struct

import numpy as np

IDENTITY_TOL = 1e-9          # the CLI's own exit-3 threshold
MSE_REL_TOL = 1e-12
TEMP_GAP_MAX = 0.10          # acceptance clause c11
SHARE_SUM_TOL = 1e-9
SHARE_ABS_TOL = 1e-12

# decompose-ckpt container: name -> shape, all stored as BF16
STUDENT_T = (4096, 4096)
GAUSSIAN = (2048, 2048)
VECTORS = 64
VECTOR_LEN = 4100            # 128 full blocks of 32 plus a 4-element tail
CONTAINER_TENSORS = 2 + VECTORS


def _vector_name(i: int) -> str:
    return f"vec_{i:02d}"


def write_container(seed: int, path: str) -> None:
    """Write the decompose-ckpt container for ``seed`` through mxblock's own
    writer, the way a user would produce one."""
    from mxblock.tensorstore import TensorSet, save_container

    rng = np.random.default_rng(seed)
    tset = TensorSet()
    tset.add("student_t", rng.standard_t(5.0, size=STUDENT_T), "BF16")
    tset.add("gaussian", 0.02 * rng.standard_normal(GAUSSIAN), "BF16")
    vectors = 1.0 + 0.1 * rng.standard_normal((VECTORS, VECTOR_LEN))
    for i in range(VECTORS):
        tset.add(_vector_name(i), vectors[i], "BF16")
    save_container(tset, path)


def temp_sigma(seed: int, vocab: int = 100, ratio: float = 0.5) -> str:
    """Noise level at ``2 sigma^2 / Var(dl) = ratio`` for the logits the CLI
    draws from ``seed``: the ratio-0.5 point of its default sweep, where c11
    states its bound. A fixed sigma of 0.7 misses that bound on some seeds
    (seed 42 gives rel_gap 0.12) because the seed moves Var(dl)."""
    logits = np.random.default_rng(seed).standard_normal(vocab)
    i, j = np.triu_indices(vocab, k=1)
    var_dl = float((logits[i] - logits[j]).var(ddof=0))
    return repr(math.sqrt(ratio * var_dl / 2.0))


def argv(workload: str, seed: int, container: str | None) -> list[str]:
    if workload == "decompose-ckpt":
        return ["decompose", "--input", container]
    if workload == "mbs-exhaustive":
        return ["mbs", "--synth", "gaussian:512x512", "--macro-block", "128",
                "--mbs-mode", "exhaustive", "--seed", str(seed)]
    return ["temp", "--vocab", "100", "--draws", "20000",
            "--sigma-eta", temp_sigma(seed), "--seed", str(seed)]


# input tensors per command, and the largest one as float64 bytes
TENSORS = {"decompose-ckpt": CONTAINER_TENSORS, "mbs-exhaustive": 1, "temp-mc": 0}
LARGEST_INPUT_BYTES = {"decompose-ckpt": 8 * STUDENT_T[0] * STUDENT_T[1],
                       "mbs-exhaustive": 8 * 512 * 512,
                       "temp-mc": 8 * 100}
NAMES = tuple(TENSORS)


# --- reference for decompose-ckpt -------------------------------------------------

_GRID = np.array([0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 6.0])


def read_bf16_vectors(path: str) -> dict[str, np.ndarray]:
    """The container's vectors, decoded here rather than by mxblock."""
    with open(path, "rb") as f:
        (n,) = struct.unpack("<Q", f.read(8))
        header = json.loads(f.read(n))
        base = 8 + n
        out = {}
        for i in range(VECTORS):
            meta = header[_vector_name(i)]
            begin, end = meta["data_offsets"]
            f.seek(base + begin)
            raw = np.frombuffer(f.read(end - begin), dtype="<u2")
            out[_vector_name(i)] = (
                (raw.astype(np.uint32) << 16).view(np.float32).astype(np.float64))
    return out


def _ceil_pow2(s: float) -> float:
    f, e = math.frexp(s)
    return s if f == 0.5 else math.ldexp(1.0, e)


def _grid_round(b: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """scale * (nearest grid value to b / scale), by trying every grid value;
    a tie has two adjacent candidates and goes to the even index."""
    u = np.abs(b) / scale[:, None]
    dist = np.abs(u[:, :, None] - _GRID)
    best = dist == dist.min(axis=2, keepdims=True)
    even = best & (np.arange(_GRID.size) % 2 == 0)
    idx = np.where(best.sum(axis=2) > 1, even.argmax(axis=2), best.argmax(axis=2))
    return np.copysign(_GRID[idx] * scale[:, None], b)


def reference_stats(x: np.ndarray, block: int = 32) -> dict[str, float]:
    """mse_total and the four error shares of plain MXFP4 QDQ, by brute force.

    The scale is the ceiling power of two of max|x|/6, from math.frexp. The
    shares pin down the tie rule, which mse_total alone cannot see: both
    neighbours of a midpoint are equally far from it."""
    # zero padding changes no block maximum and quantizes to exact zero
    b = np.pad(x, (0, -x.size % block)).reshape(-1, block)
    m = np.abs(b).max(axis=1)
    s_star = np.where(m > 0, m / 6.0, 1.0)
    s_ceil = np.array([_ceil_pow2(v) for v in s_star.tolist()])
    qdq = _grid_round(b, s_ceil)
    qstar = _grid_round(b, s_star)
    dead = np.abs(b) < (m / 24.0)[:, None]
    resid = qstar - b
    e_scale = qdq - qstar
    e_dz = np.where(dead, resid, 0.0)
    e_grid = np.where(dead, 0.0, resid)
    n2_total = float(((qdq - b) ** 2).sum())
    return {"mse_total": n2_total / x.size,
            "share_scale": float((e_scale ** 2).sum()) / n2_total,
            "share_dz": float((e_dz ** 2).sum()) / n2_total,
            "share_grid": float((e_grid ** 2).sum()) / n2_total,
            "cross_share": 2.0 * float((e_scale * e_grid).sum()) / n2_total}


def reference(workload: str, container: str | None) -> dict[str, dict[str, float]]:
    if workload != "decompose-ckpt":
        return {}
    return {name: reference_stats(x)
            for name, x in read_bf16_vectors(container).items()}


# --- output checks ------------------------------------------------------------


def _print_slack(v: float) -> float:
    """One unit in the twelfth significant digit: the CLI prints %.12g."""
    return 10.0 ** (math.floor(math.log10(abs(v))) - 11) if v else 0.0


def check(workload: str, results: dict, ref: dict[str, float]) -> list[str]:
    """Problems found in one command's ``results`` block; empty when correct."""
    problems = []
    if workload == "decompose-ckpt":
        records = results["records"]
        if len(records) != CONTAINER_TENSORS:
            problems.append(f"{len(records)} records, expected {CONTAINER_TENSORS}")
        for r in records:
            total = r["share_scale"] + r["share_dz"] + r["share_grid"] + r["cross_share"]
            if abs(total - 1.0) > SHARE_SUM_TOL:
                problems.append(f"{r['name']}: shares sum to {total!r}")
            for key, want in ref.get(r["name"], {}).items():
                # mse_total to a relative tolerance, shares (fractions of 1)
                # to an absolute one, each plus the report's print rounding
                tol = (MSE_REL_TOL * abs(want) if key == "mse_total"
                       else SHARE_ABS_TOL) + _print_slack(want)
                if abs(r[key] - want) > tol:
                    problems.append(f"{r['name']}: {key} {r[key]!r} "
                                    f"!= reference {want!r}")
        missing = set(ref) - {r["name"] for r in records}
        if missing:
            problems.append(f"vectors missing from report: {sorted(missing)}")
    elif workload == "mbs-exhaustive":
        if not results["records"]:
            problems.append("no records")
        for r in results["records"]:
            if not r["mse_after"] < r["mse_before"]:
                problems.append(f"{r['name']}: mse_after {r['mse_after']!r} "
                                f">= mse_before {r['mse_before']!r}")
    else:
        if not results["rows"]:
            problems.append("no rows")
        for r in results["rows"]:
            if not r["rel_gap"] <= TEMP_GAP_MAX:
                problems.append(f"rel_gap {r['rel_gap']!r} > {TEMP_GAP_MAX}")
            if not r["t_hat"] >= 1.0:
                problems.append(f"t_hat {r['t_hat']!r} < 1")
    return problems


def identity_margin(results: dict) -> float:
    """Largest identity residual in the report over the CLI's tolerance."""
    residuals = [r["identity_residual"] for r in results.get("records", ())
                 if "identity_residual" in r]
    return max(residuals, default=0.0) / IDENTITY_TOL
