"""Three-way error decomposition and its exact identities.

For each block, with Q the coded-scale quantizer and Q* the ideal-scale
quantizer:

    e_scale = Q(x) - Q*(x)
    e_dz    = (Q*(x) - x) on deadzone elements, 0 elsewhere
    e_grid  = (Q*(x) - x) off the deadzone, 0 elsewhere

The two deadzone inner products <e_scale, e_dz> and <e_dz, e_grid> are
structural zeros: the ceiling scale is >= s_star, so every element dead
under s_star is also rounded to zero by Q, making every product term carry
an exact 0.0 factor. The squared-norm identity then has exactly one cross
term, 2<e_scale, e_grid>.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from .quantize import BlockQuantConfig, block_view, qdq_views

__all__ = [
    "ErrorDecomposition",
    "DecompReport",
    "InvariantViolation",
    "decompose_tensor",
    "verify_identity",
    "orthogonality_check",
    "tensor_stats",
    "scale_precision_sweep",
]

_COS_BINS = 201          # odd, so a point mass at 0 lands in the center bin
_IDENTITY_TOL = 1e-9


@dataclass
class ErrorDecomposition:
    """Per-tensor error components and their derived statistics."""

    e_scale: np.ndarray
    e_dz: np.ndarray
    e_grid: np.ndarray
    e_total: np.ndarray
    n2_scale: float
    n2_dz: float
    n2_grid: float
    n2_total: float
    ip_scale_grid: float
    ip_scale_dz: float
    ip_dz_grid: float
    cos_scale_grid: float
    cos_scale_dz: float
    cos_dz_grid: float
    cos_defined: dict[str, bool]
    dz_fraction: float


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.dot(a.ravel(), b.ravel()))


def _cos(ip: float, n2a: float, n2b: float) -> tuple[float, bool]:
    # zero-vector cosine reported as 0 with defined=False, never NaN; the
    # norms are rooted before multiplying, so far from unit scale the
    # product neither overflows nor underflows
    if n2a <= 0.0 or n2b <= 0.0:
        return 0.0, False
    return ip / (np.sqrt(n2a) * np.sqrt(n2b)), True


def decompose_tensor(x: np.ndarray, config: BlockQuantConfig) -> ErrorDecomposition:
    view = block_view(x, config)
    qdq, qstar, dead, _ = qdq_views(view, config)

    resid = qstar - view.blocks
    eb_scale = qdq - qstar
    eb_dz = np.where(dead, resid, 0.0)
    eb_grid = np.where(dead, 0.0, resid)
    eb_grid[~view.valid] = 0.0          # padding carries no error

    e_scale = view.restore(eb_scale)
    e_dz = view.restore(eb_dz)
    e_grid = view.restore(eb_grid)
    e_total = view.restore(qdq - view.blocks)

    n2_scale = _dot(e_scale, e_scale)
    n2_dz = _dot(e_dz, e_dz)
    n2_grid = _dot(e_grid, e_grid)
    n2_total = _dot(e_total, e_total)
    ip_sg = _dot(e_scale, e_grid)
    ip_sd = _dot(e_scale, e_dz)
    ip_dg = _dot(e_dz, e_grid)

    cos_sg, def_sg = _cos(ip_sg, n2_scale, n2_grid)
    cos_sd, def_sd = _cos(ip_sd, n2_scale, n2_dz)
    cos_dg, def_dg = _cos(ip_dg, n2_dz, n2_grid)

    dz_fraction = float(dead[view.valid].mean()) if x.size else 0.0

    return ErrorDecomposition(
        e_scale=e_scale, e_dz=e_dz, e_grid=e_grid, e_total=e_total,
        n2_scale=n2_scale, n2_dz=n2_dz, n2_grid=n2_grid, n2_total=n2_total,
        ip_scale_grid=ip_sg, ip_scale_dz=ip_sd, ip_dz_grid=ip_dg,
        cos_scale_grid=cos_sg, cos_scale_dz=cos_sd, cos_dz_grid=cos_dg,
        cos_defined={"scale_grid": def_sg, "scale_dz": def_sd, "dz_grid": def_dg},
        dz_fraction=dz_fraction)


class InvariantViolation(AssertionError):
    """An exact identity of the decomposition did not hold. Raised
    explicitly, so ``python -O`` cannot strip the check."""


def verify_identity(d: ErrorDecomposition, eps: float = 1e-300) -> float:
    """Relative residual of ||e||^2 against the component expansion."""
    expanded = d.n2_scale + d.n2_dz + d.n2_grid + 2.0 * d.ip_scale_grid
    return abs(d.n2_total - expanded) / max(d.n2_total, eps)


def orthogonality_check(d: ErrorDecomposition) -> tuple[float, float]:
    """The two deadzone inner products; both must be exactly 0.0."""
    return d.ip_scale_dz, d.ip_dz_grid


@dataclass
class DecompReport:
    """Aggregated per-tensor decomposition statistics."""

    records: list[dict]
    aggregates: dict[str, dict[str, float]]
    cos_histogram: dict[str, list]
    config: dict

    def to_json_dict(self) -> dict:
        return {"records": self.records, "aggregates": self.aggregates,
                "cos_histogram": self.cos_histogram, "config": self.config}

    def csv_rows(self) -> tuple[list[str], list[list]]:
        cols = ["name", "shape", "mse_total", "share_scale", "share_dz",
                "share_grid", "cross_share", "cos_scale_grid", "cos_scale_dz",
                "cos_dz_grid", "dz_fraction", "zero_error"]
        rows = [[r[c] for c in cols] for r in self.records]
        return cols, rows


_SHARE_KEYS = ("share_scale", "share_dz", "share_grid", "cross_share",
               "cos_scale_grid", "dz_fraction", "mse_total")


def tensor_stats(tensors: Mapping[str, np.ndarray], config: BlockQuantConfig
                 ) -> DecompReport:
    """Per-tensor shares/cosines plus aggregates, sorted by tensor name.

    Shares divide component norms^2 by ||e||^2 per tensor, then aggregate
    across tensors; tensors quantizing exactly (mse 0) are flagged and
    excluded from share aggregates.
    """
    if not tensors:
        raise ValueError("empty tensor set")
    records = []
    for name in sorted(tensors):
        x = np.asarray(tensors[name], dtype=np.float64)
        d = decompose_tensor(x, config)
        numel = x.size
        mse = d.n2_total / numel
        zero_error = d.n2_total == 0.0
        if zero_error:
            shares = dict.fromkeys(("share_scale", "share_dz", "share_grid",
                                    "cross_share"), 0.0)
        else:
            shares = {"share_scale": d.n2_scale / d.n2_total,
                      "share_dz": d.n2_dz / d.n2_total,
                      "share_grid": d.n2_grid / d.n2_total,
                      "cross_share": 2.0 * d.ip_scale_grid / d.n2_total}
        records.append({
            "name": name, "shape": list(x.shape), "mse_total": mse,
            **shares,
            "cos_scale_grid": d.cos_scale_grid, "cos_scale_dz": d.cos_scale_dz,
            "cos_dz_grid": d.cos_dz_grid,
            "cos_defined": d.cos_defined, "dz_fraction": d.dz_fraction,
            "zero_error": zero_error,
            "identity_residual": verify_identity(d),
            "dz_inner_products": list(orthogonality_check(d)),
        })

    live = [r for r in records if not r["zero_error"]]
    aggregates = {}
    for key in _SHARE_KEYS:
        vals = np.array([r[key] for r in live]) if live else np.array([0.0])
        aggregates[key] = {"mean": float(vals.mean()), "std": float(vals.std())}

    cosines = np.array([r["cos_scale_grid"] for r in live]) if live else np.array([])
    edges = np.linspace(-1.0, 1.0, _COS_BINS + 1)
    counts, _ = np.histogram(cosines, bins=edges)
    hist = {"bin_edges": edges.tolist(), "counts": counts.tolist()}

    cfg = {"block_size": config.block_size,
           "scale_mantissa_bits": config.scale_mantissa_bits}
    return DecompReport(records, aggregates, hist, cfg)


def scale_precision_sweep(x: np.ndarray, m_list: Iterable[int] = range(9),
                          block_size: int = 32) -> list[dict]:
    """Decomposition series over scale mantissa widths.

    e_grid and e_dz must be bitwise constant across M (they depend only on
    s_star); a violation raises, because it can only be a kernel bug. Total
    MSE is reported with a monotonicity flag rather than asserted: it is
    non-increasing on every tensor family tested, but nothing forbids a
    small tensor from trading a lucky rounding away as the scale tightens.
    """
    m_list = list(m_list)
    if not m_list:
        raise ValueError("empty M list")
    x = np.asarray(x, dtype=np.float64)
    numel = x.size
    out = []
    ref_grid = ref_dz = None
    for m in m_list:
        cfg = BlockQuantConfig(block_size=block_size, scale_mantissa_bits=m)
        d = decompose_tensor(x, cfg)
        if ref_grid is None:
            ref_grid, ref_dz = d.e_grid, d.e_dz
        elif not (np.array_equal(ref_grid, d.e_grid)
                  and np.array_equal(ref_dz, d.e_dz)):
            raise InvariantViolation("grid/deadzone error changed with scale precision")
        out.append({"M": m,
                    "mse_total": d.n2_total / numel,
                    "mse_scale": d.n2_scale / numel,
                    "mse_dz": d.n2_dz / numel,
                    "mse_grid": d.n2_grid / numel,
                    "cross": 2.0 * d.ip_scale_grid / numel})
    totals = [r["mse_total"] for r in out]
    monotone = all(b <= a * (1 + 1e-12) for a, b in zip(totals, totals[1:]))
    for r in out:
        r["mse_monotone"] = monotone
    return out
