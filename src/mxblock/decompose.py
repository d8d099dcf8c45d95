"""Three-way error decomposition and its exact identities.

For each block, with x_hat the quantizer output being measured (by default
Q(x), the coded-scale quantizer) and Q* the ideal-scale quantizer:

    e_scale = x_hat - Q*(x)
    e_dz    = (Q*(x) - x) on deadzone elements, 0 elsewhere
    e_grid  = (Q*(x) - x) off the deadzone, 0 elsewhere
    e_total = x_hat - x

<e_dz, e_grid> is exactly 0.0 for any x_hat: the supports are disjoint.
<e_scale, e_dz> is exactly 0.0 for Q: the ceiling scale is >= s_star, so Q
also rounds every element dead under s_star to zero. Macro-block scaling
(corrections.mbs_qdq) keeps that zero: it runs Q on the prescaled block p*x,
whose deadzone holds the same elements. Outlier fallback does not: its
residual pass writes where Q* is zero, so e_scale = x_hat meets e_dz = -x.
verify_identity checks the full expansion n2_scale + n2_dz + n2_grid +
2(ip_scale_grid + ip_scale_dz), the one-cross-term identity when ip_scale_dz = 0,
relative to the norms the expansion adds up.

The decomposition streams the tensor through the quantizer in cache-sized
pieces of whole blocks (quantize._CHUNK_ELEMS elements) and adds up each
piece's norms and inner products. Every error element is the one the
whole-tensor computation gives; the sums differ from one-shot dot products
only in summation order. The pieces are slices of an in-memory array, or,
for a tensorstore.StoredTensor, read from its container file one at a time;
the same pieces in the same order either way, so the sums are the same bits.
Every piece-sized temporary lives in one workspace for the whole call.
Without the error arrays (tensor_stats), the working memory is the input plus
one piece for an array, and one piece for a stored tensor.

Each piece is rounded by quantize.qdq_views, once for Q* and once for Q,
both on |x|. With s the sign of x, each error is s times the same expression
on the magnitudes, so the sums are taken on magnitudes and no sign is
applied. Only the error arrays and a given x_hat need the signs, which are
applied once per rounding; a piece without padding writes its errors
straight into the arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from .quantize import (
    _CHUNK_ELEMS,
    BlockQuantConfig,
    BlockView,
    _pad_rows,
    _Workspace,
    block_view,
    qdq_views,
)
from .tensorstore import StoredTensor

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
    """Per-tensor error components and their derived statistics.

    The four e_* arrays have the input's shape. The sums-only path
    (decompose_tensor with keep_errors=False) leaves them None; its sums and
    cosines are the same as with the arrays."""

    e_scale: np.ndarray | None
    e_dz: np.ndarray | None
    e_grid: np.ndarray | None
    e_total: np.ndarray | None
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
    dz_fraction: float                 # ideal-deadzone elements / all elements
    dz_zero_fraction: float            # those of them x_hat leaves at 0.0 / all


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.dot(a.ravel(), b.ravel()))


def _cos(ip: float, n2a: float, n2b: float) -> tuple[float, bool]:
    # zero-vector cosine reported as 0 with defined=False, never NaN; the
    # norms are rooted before multiplying, so far from unit scale the
    # product neither overflows nor underflows
    if n2a <= 0.0 or n2b <= 0.0:
        return 0.0, False
    return ip / (np.sqrt(n2a) * np.sqrt(n2b)), True


# (i, j) of each sum over the pieces' (e_scale, e_dz, e_grid, e_total):
# n2_scale, n2_dz, n2_grid, n2_total, ip_scale_grid, ip_scale_dz, ip_dz_grid
_SUM_PAIRS = ((0, 0), (1, 1), (2, 2), (3, 3), (0, 2), (0, 1), (1, 2))


def _pieces(n_rows: int, n: int, block_size: int):
    """Index pairs cutting an (n_rows, n) row matrix into pieces of about
    _CHUNK_ELEMS elements: whole rows, or, for a row longer than that, runs
    of whole blocks. A block never crosses a row, so the pieces hold exactly
    the blocks of the whole matrix."""
    cols = n if n <= _CHUNK_ELEMS else max(1, _CHUNK_ELEMS // block_size) * block_size
    step = max(1, _CHUNK_ELEMS // cols)
    for r in range(0, n_rows, step):
        for c in range(0, n, cols):
            yield slice(r, r + step), slice(c, c + cols)


def _as_tensor(x) -> np.ndarray | StoredTensor:
    """x as a float64 array, or a StoredTensor as it is; never empty."""
    if not isinstance(x, StoredTensor):
        x = np.asarray(x, dtype=np.float64)
    if x.size == 0:
        raise ValueError("empty tensor")
    return x


def _row_pieces(x: np.ndarray | StoredTensor, block_size: int):
    """(rows, cols, piece) for each of _pieces' pieces of x's (n_rows, n)
    row matrix: a slice of an array, or read from a stored tensor's file
    into its reader's one reused buffer, valid until the next piece. A piece
    is whole rows or part of one row, so it is one contiguous run of x."""
    n = x.shape[-1] if x.ndim else 1
    n_rows = x.size // n
    matrix = None if isinstance(x, StoredTensor) else x.reshape(n_rows, n)
    for r, c in _pieces(n_rows, n, block_size):
        if matrix is None:
            height = min(r.stop, n_rows) - r.start
            width = min(c.stop, n) - c.start
            flat = x.read(r.start * n + c.start, height * width)
            yield r, c, flat.reshape(height, width)
        else:
            yield r, c, matrix[r, c]


def _unpadded(view: BlockView, blocked: np.ndarray, work: _Workspace, name: str) -> np.ndarray:
    """blocked without its padding, as a contiguous array for the dot
    products: a view when the piece has no padding, else a copy into work."""
    e = view.restore(blocked)
    if e.flags.c_contiguous:
        return e
    dst = work.take(name, e.shape)
    dst[...] = e
    return dst


def _piece_sums(piece: np.ndarray, config: BlockQuantConfig,
                out: list[np.ndarray] | None, hat: np.ndarray | None,
                work: _Workspace) -> tuple[np.ndarray, int, int]:
    """The _SUM_PAIRS sums, the deadzone count and its count of zero outputs
    of one 2-D piece, measuring hat (the matching piece of x_hat) or, when
    None, Q. Its (e_scale, e_dz, e_grid, e_total) are written into out,
    directly when the piece has no padding. Every other piece-sized array
    is one of work's.

    Without out or hat, the errors stay magnitudes: with s the sign of x,
    each e_* is s times the same expression on |x|, so every product in
    the sums is the same. Only the sign of a zero product can differ, and
    np.dot starts from +0.0 from two elements on; a one-element piece keeps
    the signs, since np.dot of one element is the product itself."""
    view = block_view(piece, config, work)
    shape = view.blocks.shape
    signs = out is not None or hat is not None or piece.size == 1
    if hat is None:
        q, qstar, dead, _ = qdq_views(view, config, work, signed=signs)
        total_buf = q                   # e_total overwrites Q
    else:
        _, qstar, dead, _ = qdq_views(view, None, work)
        q = _pad_rows(hat, config.block_size).reshape(shape)
        total_buf = work.take("q", shape)   # q may view the caller's x_hat
    x = view.blocks if signs else view.mag
    if view.padded:
        dead &= view.valid              # padding is not counted
    zero = np.equal(q, 0.0, out=work.take("scratch", shape, bool))
    zero &= dead
    zeros = int(np.count_nonzero(zero))         # before e_total overwrites Q

    direct = out is not None and not view.padded
    if direct:
        e_scale, e_dz, e_grid, e_total = (e.reshape(shape) for e in out)
    else:
        # |x| is not read past e_total and Q* - x: its buffer takes e_dz
        e_scale, e_dz, e_grid, e_total = (work.take("e_scale", shape), view.mag,
                                          qstar, total_buf)
    np.subtract(q, qstar, out=e_scale)
    np.subtract(q, x, out=e_total)
    resid = np.subtract(qstar, x, out=qstar)    # Q*(x) - x
    np.multiply(resid, dead, out=e_dz)  # -0.0 off the deadzone where resid < 0,
    if signs:
        e_dz += 0.0                     # which is +0.0 with signs
    np.subtract(resid, e_dz, out=e_grid)    # +0.0 on the deadzone, resid off it
    if direct:
        errors = out
    else:
        errors = [_unpadded(view, e, work, f"unpadded_{i}")
                  for i, e in enumerate((e_scale, e_dz, e_grid, e_total))]
        if out is not None:
            for dst, e in zip(out, errors):
                dst[...] = e
    sums = np.array([_dot(errors[i], errors[j]) for i, j in _SUM_PAIRS])
    return sums, int(np.count_nonzero(dead)), zeros


def decompose_tensor(x: np.ndarray | StoredTensor, config: BlockQuantConfig, *,
                     keep_errors: bool = True,
                     x_hat: np.ndarray | None = None) -> ErrorDecomposition:
    """The three-way split of x_hat - x, its norms, inner products and
    cosines, and the deadzone fractions.

    x is an array or a tensorstore.StoredTensor, whose pieces are read from
    its file. x_hat, with x's shape, is the quantizer output to measure
    (default: the plain coded-scale Q(x)); it is only read. Q*(x) and the
    deadzone always come from x, so only e_scale and e_total depend on x_hat.

    The sums accumulate piece by piece (see the module docstring). With
    keep_errors=False the e_* fields are None and no full-size array is
    allocated; tensor_stats and the outlier-fallback and MBS reports need
    only the sums."""
    x = _as_tensor(x)
    n = x.shape[-1] if x.ndim else 1
    if x_hat is not None:
        x_hat = np.asarray(x_hat, dtype=np.float64)
        if x_hat.shape != x.shape:
            raise ValueError(f"x_hat shape {x_hat.shape} does not match x shape {x.shape}")
        x_hat = x_hat.reshape(-1, n)
    errors = [np.empty(x.shape) for _ in range(4)] if keep_errors else None
    work = _Workspace()
    sums = None
    dead_count = zero_count = 0
    for r, c, piece in _row_pieces(x, config.block_size):
        out = [e.reshape(-1, n)[r, c] for e in errors] if keep_errors else None
        hat = None if x_hat is None else x_hat[r, c]
        piece_sums, dead, zero = _piece_sums(piece, config, out, hat, work)
        sums = piece_sums if sums is None else sums + piece_sums
        dead_count += dead
        zero_count += zero

    n2_scale, n2_dz, n2_grid, n2_total, ip_sg, ip_sd, ip_dg = (float(v) for v in sums)
    cos_sg, def_sg = _cos(ip_sg, n2_scale, n2_grid)
    cos_sd, def_sd = _cos(ip_sd, n2_scale, n2_dz)
    cos_dg, def_dg = _cos(ip_dg, n2_dz, n2_grid)
    e_scale, e_dz, e_grid, e_total = errors if keep_errors else (None,) * 4

    return ErrorDecomposition(
        e_scale=e_scale, e_dz=e_dz, e_grid=e_grid, e_total=e_total,
        n2_scale=n2_scale, n2_dz=n2_dz, n2_grid=n2_grid, n2_total=n2_total,
        ip_scale_grid=ip_sg, ip_scale_dz=ip_sd, ip_dz_grid=ip_dg,
        cos_scale_grid=cos_sg, cos_scale_dz=cos_sd, cos_dz_grid=cos_dg,
        cos_defined={"scale_grid": def_sg, "scale_dz": def_sd, "dz_grid": def_dg},
        dz_fraction=dead_count / x.size, dz_zero_fraction=zero_count / x.size)


class InvariantViolation(AssertionError):
    """An exact identity of the decomposition did not hold. Raised
    explicitly, so ``python -O`` cannot strip the check."""


def _expansion_residual(total: float, n2_scale: float, n2_dz: float,
                        n2_grid: float, ip_scale_grid: float, ip_scale_dz: float,
                        ip_dz_grid: float) -> float:
    """|total - full expansion| relative to the norms the expansion adds up:
    verify_identity's residual, and the GEMM traces' (analysis)."""
    expanded = n2_scale + n2_dz + n2_grid + 2.0 * (ip_scale_grid + ip_scale_dz + ip_dz_grid)
    return abs(total - expanded) / max(n2_scale + n2_dz + n2_grid + total, 1e-300)


def verify_identity(d: ErrorDecomposition) -> float:
    """Residual of ||e||^2 against the full expansion (module docstring),
    relative to n2_scale + n2_dz + n2_grid + n2_total: ip_scale_dz is 0.0 for
    Q and MBS, not for outlier fallback. The rounding of the expansion scales
    with the norms it adds up, not with n2_total, which is far smaller when
    x_hat is within rounding of x but Q*(x) is not: at x = [1, 0.75 + 1e-15],
    B = 2, n2_total is 1e-30 against n2_scale 6.9e-3."""
    return _expansion_residual(d.n2_total, d.n2_scale, d.n2_dz, d.n2_grid,
                               d.ip_scale_grid, d.ip_scale_dz, d.ip_dz_grid)


def orthogonality_check(d: ErrorDecomposition) -> tuple[float, float]:
    """The two deadzone inner products (ip_scale_dz, ip_dz_grid)."""
    return d.ip_scale_dz, d.ip_dz_grid


def _check_identity(name: str, residual: float, ip_scale_dz: float = 0.0,
                    ip_dz_grid: float = 0.0, keeps_deadzone: bool = True) -> None:
    """The one split rule behind exit code 3: residual within _IDENTITY_TOL,
    ip_dz_grid == 0.0, and ip_scale_dz == 0.0 unless keeps_deadzone is False (OF)."""
    if not residual <= _IDENTITY_TOL:   # a nan residual fails too
        raise InvariantViolation(f"identity residual {residual:.3e} on {name}")
    if ip_dz_grid != 0.0 or (keeps_deadzone and ip_scale_dz != 0.0):
        raise InvariantViolation(f"deadzone inner product nonzero on {name}")


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
    across tensors. A tensor whose ||e||^2 is below the split's resolution
    (_IDENTITY_TOL of the summed norms; 0 if it quantizes exactly) is flagged
    zero_error, with shares of 0, and left out of the aggregates and the
    histogram: its shares would be noise over a total near 0. The norms and
    inner products are accumulated over cache-sized pieces and no error
    array is kept, so the working memory is the input plus one piece, or one
    piece when the tensors are tensorstore.StoredTensors streamed from their
    file.
    """
    if not tensors:
        raise ValueError("empty tensor set")
    records = []
    for name in sorted(tensors):
        x = _as_tensor(tensors[name])
        d = decompose_tensor(x, config, keep_errors=False)
        numel = x.size
        mse = d.n2_total / numel
        norms = d.n2_scale + d.n2_dz + d.n2_grid + d.n2_total
        zero_error = d.n2_total <= _IDENTITY_TOL * norms
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
                          block_size: int = 32, name: str = "tensor") -> list[dict]:
    """Decomposition series over scale mantissa widths.

    e_grid and e_dz must be bitwise constant across M (they depend only on
    s_star) and each split must pass _check_identity; a violation raises,
    naming the tensor and M, because it can only be a kernel bug. Total MSE
    is reported with a
    monotonicity flag rather than asserted: it is non-increasing on every
    tensor family tested, but nothing forbids a small tensor from trading a
    lucky rounding away as the scale tightens.
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
        _check_identity(f"{name}, M={m}", verify_identity(d), *orthogonality_check(d))
        if ref_grid is None:
            ref_grid, ref_dz = d.e_grid, d.e_dz
        elif not (np.array_equal(ref_grid, d.e_grid)
                  and np.array_equal(ref_dz, d.e_dz)):
            raise InvariantViolation(f"grid/deadzone error changed with scale "
                                     f"precision on {name}, M={m}")
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
