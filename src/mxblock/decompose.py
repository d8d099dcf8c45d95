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

One pass measures any number of quantizers against the one Q*(x)
(decompose_quantizers): the sweep over scale precisions, MBS and outlier
fallback against plain Q. A quantizer is a BlockQuantConfig, the plain Q at
its scale precision; a corrections.Correction, run on each piece; or a
caller's x_hat of x's shape, read at each piece's rows and columns.
decompose_tensor is the one-quantizer case.

The decomposition streams the tensor in cache-sized pieces of whole blocks
(quantize._CHUNK_ELEMS elements), or of whole units of each correction's
align (a macro block under MBS), and adds up each piece's norms and inner
products. Each piece is blocked, rounded to Q*(x) and its deadzone once, and
e_dz and e_grid are formed once; only e_scale and e_total are formed per
quantizer. Every error element is the one the whole-tensor computation
gives; the sums differ from one-shot dot products only in summation order.
The pieces are slices of an in-memory array, or read one at a time from a
tensorstore.TensorSource: a StoredTensor reads them from its container
file, a SynthTensor draws them from its seeded generator. The pieces are
the same, in the same order, either way. Each piece's sum is a fixed-order
sum of sub-dots too short for OpenBLAS to split between threads, added
left to right (_dots), and the pieces' sums are added in the pieces'
order, so on one numpy/BLAS build the sums are the same bits at any BLAS
thread count. A piece's four error arrays are the rows of one stacked
array, so its seven sums take two stacked np.matmul calls (two more for
the rests past the whole sub-dots), a ddot per sub-dot, the same ddots as
_dot of one pair at a time. Every piece-sized temporary lives in one
workspace (quantize._Workspace), whose block of memory the phases of each
piece take in turn: each correction's, then the split's. So a correction's
scratch, such as the MBS steps of the mbs command, shares that memory with
the split rather than holding its own. Without the error arrays, the
working memory is the input plus one piece for an array, and one piece for
a TensorSource, plus each correction's x_hat of the piece.

Each piece is rounded to Q* by quantize.qdq_views and to each plain Q by
quantize._coded_qdq, both on |x|. With s the sign of x, each error is s
times the same expression on the magnitudes, so the sums are taken on
magnitudes and no sign is applied: a correction's or a caller's x_hat is
multiplied by s instead. Only the error arrays need the signs, which are
applied once per rounding, and each piece's errors are copied into them.
"""

from __future__ import annotations

import contextlib
import math
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .quantize import (
    _CHUNK_ELEMS,
    BlockQuantConfig,
    BlockView,
    _coded_qdq,
    _Workspace,
    block_view,
    qdq_views,
)
from .tensorstore import TensorSource, TensorStoreError

if TYPE_CHECKING:
    from .corrections import Correction

__all__ = [
    "ErrorDecomposition",
    "DecompReport",
    "InvariantViolation",
    "decompose_tensor",
    "decompose_quantizers",
    "verify_identity",
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


# Elements per sub-dot of a sum. OpenBLAS on x86-64 threads ddot only above
# 10,000 elements, so a sub-dot's bits do not depend on the thread count.
_SUB_DOT = 1 << 13


def _dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """<a_i, b_i> for each pair of rows of a and b, stacks (..., n) whose
    leading dimensions broadcast as np.matmul's do, each a fixed-order sum
    of sub-dots of at most _SUB_DOT elements: one stacked matmul over every
    row's whole sub-dots and one over the rests, a ddot each, and each row's
    partials added left to right from the first. Their bits are the same at
    any BLAS thread count; a rest of one element is the product itself,
    signed zero included."""
    n = a.shape[-1]
    full = n - n % _SUB_DOT
    total = None
    if full:
        parts = np.matmul(a[..., :full].reshape(*a.shape[:-1], -1, 1, _SUB_DOT),
                          b[..., :full].reshape(*b.shape[:-1], -1, _SUB_DOT, 1))
        total = np.add.accumulate(parts[..., 0, 0], axis=-1)[..., -1]
    if full < n:
        if n - full == 1:
            rest = a[..., full] * b[..., full]
        else:
            rest = np.matmul(a[..., None, full:], b[..., full:, None])[..., 0, 0]
        total = rest if total is None else total + rest
    return total


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """<a, b> as _dots adds it, over the flattened arrays."""
    return float(_dots(a.reshape(1, -1), b.reshape(1, -1))[0])


def _cos(ip: float, n2a: float, n2b: float) -> tuple[float, bool]:
    # zero-vector cosine reported as 0 with defined=False, never NaN; the
    # norms are rooted before multiplying, so far from unit scale the
    # product neither overflows nor underflows
    if n2a <= 0.0 or n2b <= 0.0:
        return 0.0, False
    return ip / (math.sqrt(n2a) * math.sqrt(n2b)), True


# (i, j) of each sum over the pieces' (e_scale, e_dz, e_grid, e_total):
# n2_scale, n2_dz, n2_grid, n2_total, ip_scale_grid, ip_scale_dz, ip_dz_grid
_SUM_PAIRS = ((0, 0), (1, 1), (2, 2), (3, 3), (0, 2), (0, 1), (1, 2))


def _pieces(n_rows: int, n: int, unit: int, elems: int | None = None):
    """Index pairs cutting an (n_rows, n) row matrix into pieces of about
    elems elements (default _CHUNK_ELEMS): whole rows, or, for a row longer
    than that, runs of whole units (blocks or macro blocks). A unit never
    crosses a row, so the pieces hold exactly the units of the whole
    matrix."""
    elems = _CHUNK_ELEMS if elems is None else elems
    cols = n if n <= elems else max(1, elems // unit) * unit
    step = max(1, elems // cols)
    for r in range(0, n_rows, step):
        for c in range(0, n, cols):
            yield slice(r, r + step), slice(c, c + cols)


def _as_tensor(x) -> np.ndarray | TensorSource:
    """x as a float64 array, or a tensorstore.TensorSource as it is; never
    empty."""
    if not isinstance(x, TensorSource):
        x = np.asarray(x, dtype=np.float64)
    if x.size == 0:
        raise ValueError("empty tensor")
    return x


@contextlib.contextmanager
def _naming(name: str | None):
    """Re-raise a ValueError from within with the name of the tensor it
    concerns, such as formats.ceil_scale_array's refusal of a block scale
    past E8M0's range, so that the bad tensor of a container is named. A
    TensorStoreError names its tensor already, and a name of None adds
    nothing."""
    try:
        yield
    except TensorStoreError:
        raise
    except ValueError as exc:
        if name is None:
            raise
        raise ValueError(f"{exc} (tensor {name})") from exc


def _row_pieces(x: np.ndarray | TensorSource, unit: int, elems: int | None = None):
    """(rows, cols, piece) for each of _pieces' pieces of x's (n_rows, n)
    row matrix: a slice of an array, or read from a tensorstore.TensorSource
    (a container file, or a seeded draw) into its one reused buffer, valid
    until the next piece. A piece is whole rows or part of one row, so it is
    one contiguous run of x, and the pieces come in x's order."""
    n = x.shape[-1] if x.ndim else 1
    n_rows = x.size // n
    matrix = None if isinstance(x, TensorSource) else x.reshape(n_rows, n)
    for r, c in _pieces(n_rows, n, unit, elems):
        if matrix is None:
            height = min(r.stop, n_rows) - r.start
            width = min(c.stop, n) - c.start
            flat = x.read(r.start * n + c.start, height * width)
            yield r, c, flat.reshape(height, width)
        else:
            yield r, c, matrix[r, c]


# A quantizer measured by the decomposition, as _piece_sums takes it: a
# BlockQuantConfig, measuring its plain Q; a corrections.Correction, whose
# qdq runs on each piece, before the piece is blocked and rounded, in a
# phase of the decomposition's workspace of its own, and returns a new
# array, since the piece's split reuses the memory; or a caller's x_hat as
# x's row matrix, read at each piece's [rows, cols] (_quantizers).
if TYPE_CHECKING:
    Quantizer = BlockQuantConfig | Correction | np.ndarray


def _quantizers(x: np.ndarray | TensorSource, block_size: int,
                quantizers: Iterable) -> list[Quantizer]:
    """quantizers as _piece_sums takes them, checked: a BlockQuantConfig or
    a Correction of block_size as it is, an x_hat of x's shape as x's row
    matrix."""
    from .corrections import Correction     # corrections imports this module

    out = []
    for q in quantizers:
        if isinstance(q, (BlockQuantConfig, Correction)):
            size = (q if isinstance(q, BlockQuantConfig) else q.quant).block_size
            if size != block_size:
                raise ValueError(f"quantizer block size {size} is not {block_size}")
            out.append(q)
        else:
            hat = np.asarray(q, dtype=np.float64)
            if hat.shape != x.shape:
                raise ValueError(f"x_hat shape {hat.shape} does not match x shape {x.shape}")
            out.append(hat.reshape(-1, x.shape[-1] if x.ndim else 1))
    if not out:
        raise ValueError("no quantizer to measure")
    return out


def _measured(hat: np.ndarray, view: BlockView, signs: bool, work: _Workspace) -> np.ndarray:
    """A correction's or a caller's x_hat rows, blocked as view.blocks with
    zero padding, in work's "q". Without signs, each element is multiplied by
    the sign of x (its sign bit flipped where x's is set), so that x_hat -
    Q*(x) and x_hat - x are s times the same expressions on |x|."""
    shape = view.blocks.shape
    q = work.take("q", shape)
    rows = q.reshape(hat.shape[0], -1)
    rows[:, :hat.shape[1]] = hat
    rows[:, hat.shape[1]:] = 0.0
    if not signs:                       # x ^ |x| is the sign bit of x
        bits = q.view(np.int64)
        bits ^= view.blocks.view(np.int64)
        bits ^= view.mag.view(np.int64)
    return q


def _piece_sums(rows: slice, cols: slice, piece: np.ndarray, config: BlockQuantConfig,
                quantizers: list[Quantizer], out: list[np.ndarray] | None,
                work: _Workspace) -> tuple[np.ndarray, int, np.ndarray]:
    """The _SUM_PAIRS sums of each quantizer (one row each), the deadzone
    count, and each quantizer's count of zero outputs on it, of the 2-D
    piece of x at [rows, cols]. With one quantizer, its (e_scale, e_dz,
    e_grid, e_total) are copied into out.

    Each correction runs first, in a phase of work of its own, and its
    x_hat is kept, as is the piece's view of a caller's x_hat; then, in one
    more phase, the piece is blocked, rounded and summed. The piece's Q, Q*,
    rounding scratch and |x| are the rows of one stacked array of work's
    (_Workspace.take_rows), which become e_scale, e_grid, e_total and e_dz
    in place: e_scale overwrites Q, which held Q*'s spread scales before
    it, and e_total takes the scratch. With more than one quantizer, |x|
    and Q* are read by each of them, so e_grid and e_dz get rows of their
    own. A padded piece's errors are copied
    without their padding into one more stacked array, since the sums run
    over the piece's own elements; a piece of one row is summed in place,
    since its padding is the rows' tail. The seven sums are then two stacked
    _dots: the squared norms of e_scale, e_grid and e_total, and e_scale
    and e_dz each against e_dz and e_grid. A later quantizer takes only its
    own, and shares the sums of e_dz and e_grid alone.

    Q's zero count is the deadzone count: its ceiling scale is at least
    s_star, so it rounds every dead element to zero. Should a bug leave one
    nonzero, <e_scale, e_dz> has a product of at most -2^-128 * 2^-129 on
    it (Q at least half E8M0's least scale, |x| at least a quarter of the
    scale) and none above 0, so every command's ip_scale_dz == 0.0 check
    fails. A correction's or a caller's x_hat's zeros are counted.

    Without out, the errors stay magnitudes: with s the sign of x, each e_*
    is s times the same expression on |x|, so every product in the sums is
    the same. Only the sign of a zero product can differ. _dots' sub-dots
    of two elements or more start from +0.0, and its running sum starts
    from the first partial: a zero sum of a piece of two elements or more
    is +0.0 either way. A one-element piece keeps the signs, since its sum
    is the product itself."""
    hats = []                           # each quantizer's x_hat, None for a config
    for quantizer in quantizers:
        hat = None
        if isinstance(quantizer, np.ndarray):
            hat = quantizer[rows, cols]
        elif not isinstance(quantizer, BlockQuantConfig):
            work.reset()
            hat = quantizer.qdq(piece, work)
        hats.append(hat)
    work.reset()
    height, width = piece.shape
    B = config.block_size
    per_row = -(-width // B)
    shape = (height * per_row, B)                   # the piece's blocks
    names = (("q", "qstar", "scratch", "mag") if len(quantizers) == 1
             else ("mag", "qstar", "q", "e_grid", "scratch", "e_dz"))
    errors = work.take_rows(names, shape)[-4:]
    e_scale, e_grid, e_total, e_dz = errors
    view = block_view(piece, config, work)
    signs = out is not None or piece.size == 1
    _, qstar, dead, _ = qdq_views(view, None, work, signed=signs)
    x = view.blocks if signs else view.mag
    if view.padded:
        dead &= view.valid              # padding is not counted
    # the errors without their padding: in place on one row, whose padding
    # is its tail; copied into one more stacked array from more rows
    compact = view.padded and height > 1
    if compact:
        dense = work.take("dense", (4, height, width))
        flat = dense.reshape(4, -1)
    else:
        flat = errors.reshape(4, -1)[:, :width * height]
    dead_count = int(np.count_nonzero(dead))
    sums = np.empty((len(quantizers), len(_SUM_PAIRS)))
    zeros = np.empty(len(quantizers), dtype=np.int64)
    for i, (quantizer, hat) in enumerate(zip(quantizers, hats)):
        if hat is None:
            q = _coded_qdq(view, quantizer, e_scale, work)[0]
            if signs:
                view.signed(q, q)
            zeros[i] = dead_count
        else:
            q = _measured(hat, view, signs, work)
            zero = np.equal(q, 0.0, out=work.take("zero", shape, bool))
            zero &= dead
            zeros[i] = np.count_nonzero(zero)
        np.subtract(q, x, out=e_total)
        np.subtract(q, qstar, out=e_scale)
        if i == 0:
            resid = np.subtract(qstar, x, out=e_grid)   # Q*(x) - x
            # the deadzone as 1.0 and 0.0, then times resid: a float64
            # multiply, twice as fast as one by the bool array, which numpy
            # casts in buffered chunks. -0.0 off the deadzone where resid < 0,
            np.copyto(e_dz, dead)
            e_dz *= resid
            if signs:
                e_dz += 0.0                     # which is +0.0 with signs
            np.subtract(resid, e_dz, out=e_grid)    # +0.0 on the deadzone, resid off it
        # the rows this quantizer wrote: all four, or e_scale and e_total
        own = slice(0, 4) if i == 0 else slice(0, 3, 2)
        if compact:
            dense[own] = errors[own].reshape(-1, height, per_row * B)[:, :, :width]
        if i == 0:
            # n2_scale, n2_grid, n2_total; e_scale and e_dz against e_dz and
            # e_grid: ip_scale_dz, ip_scale_grid, n2_dz, ip_dz_grid
            sums[i, [0, 2, 3]] = _dots(flat[:3], flat[:3])
            sums[i, [5, 4, 1, 6]] = _dots(flat[0::3, None], flat[None, 3:0:-2]).ravel()
        else:
            sums[i, [0, 3]] = _dots(flat[0:3:2], flat[0:3:2])
            sums[i, [5, 4]] = _dots(flat[:1], flat[3:0:-2])
    if len(quantizers) > 1:             # the sums of e_dz and e_grid alone
        sums[1:, [1, 2, 6]] = sums[0, [1, 2, 6]]
    if out is not None:
        for dst, row in zip(out, (0, 3, 1, 2)):    # e_scale, e_dz, e_grid, e_total
            dst[...] = flat[row].reshape(height, width)
    return sums, dead_count, zeros


def _decompose(x: np.ndarray | TensorSource, config: BlockQuantConfig,
               quantizers: list[Quantizer], errors: list[np.ndarray] | None = None,
               align: int = 1, work: _Workspace | None = None) -> list[ErrorDecomposition]:
    """Each quantizer's ErrorDecomposition over the pieces of x, cut at
    multiples of the block size, of each correction's align and of align
    columns. errors, for one quantizer, are the four e_* arrays to fill.
    work, a fresh workspace by default, holds every piece-sized temporary
    (_piece_sums)."""
    n = x.shape[-1] if x.ndim else 1
    work = _Workspace() if work is None else work
    aligns = [q.align for q in quantizers
              if not isinstance(q, (BlockQuantConfig, np.ndarray))]    # the corrections'
    sums = None
    dead_count = 0
    zero_count = np.zeros(len(quantizers), dtype=np.int64)
    for r, c, piece in _row_pieces(x, math.lcm(config.block_size, align, *aligns)):
        out = None if errors is None else [e.reshape(-1, n)[r, c] for e in errors]
        piece_sums, dead, zeros = _piece_sums(r, c, piece, config, quantizers, out, work)
        sums = piece_sums if sums is None else sums + piece_sums
        dead_count += dead
        zero_count += zeros

    result = []
    for row, zero in zip(sums, zero_count):
        n2_scale, n2_dz, n2_grid, n2_total, ip_sg, ip_sd, ip_dg = (float(v) for v in row)
        cos_sg, def_sg = _cos(ip_sg, n2_scale, n2_grid)
        cos_sd, def_sd = _cos(ip_sd, n2_scale, n2_dz)
        cos_dg, def_dg = _cos(ip_dg, n2_dz, n2_grid)
        e_scale, e_dz, e_grid, e_total = errors if errors is not None else (None,) * 4
        result.append(ErrorDecomposition(
            e_scale=e_scale, e_dz=e_dz, e_grid=e_grid, e_total=e_total,
            n2_scale=n2_scale, n2_dz=n2_dz, n2_grid=n2_grid, n2_total=n2_total,
            ip_scale_grid=ip_sg, ip_scale_dz=ip_sd, ip_dz_grid=ip_dg,
            cos_scale_grid=cos_sg, cos_scale_dz=cos_sd, cos_dz_grid=cos_dg,
            cos_defined={"scale_grid": def_sg, "scale_dz": def_sd, "dz_grid": def_dg},
            dz_fraction=dead_count / x.size, dz_zero_fraction=int(zero) / x.size))
    return result


def decompose_tensor(x: np.ndarray | TensorSource, config: BlockQuantConfig | Correction,
                     *, keep_errors: bool = True, x_hat: np.ndarray | None = None,
                     work: _Workspace | None = None) -> ErrorDecomposition:
    """The three-way split of x_hat - x, its norms, inner products and
    cosines, and the deadzone fractions.

    x is an array or a tensorstore.TensorSource, whose pieces are read one
    at a time. The quantizer measured is config's: the plain coded-scale
    Q(x) of a BlockQuantConfig, or a corrections.Correction, run on each
    piece; or x_hat, with x's shape, which is only read, when it is given.
    Q*(x) and the deadzone always come from x, at config's block size, so
    only e_scale and e_total depend on x_hat.

    The sums accumulate piece by piece (see the module docstring). With
    keep_errors=False the e_* fields are None and no full-size array is
    allocated; tensor_stats needs only the sums. work, if given, is the
    workspace of the pieces' temporaries, which a caller splitting many
    tensors can pass to every call."""
    x = _as_tensor(x)
    quant = config if isinstance(config, BlockQuantConfig) else config.quant
    quantizers = _quantizers(x, quant.block_size, [config if x_hat is None else x_hat])
    errors = [np.empty(x.shape) for _ in range(4)] if keep_errors else None
    return _decompose(x, quant, quantizers, errors, work=work)[0]


def decompose_quantizers(x: np.ndarray | TensorSource, block_size: int,
                         quantizers: Sequence[BlockQuantConfig | Correction | np.ndarray],
                         *, work: _Workspace | None = None) -> list[ErrorDecomposition]:
    """decompose_tensor's sums for each quantizer, in one pass over x: each
    x_hat is split against the one Q*(x) of blocks of block_size, which is
    rounded once per piece, and no error array is kept.

    A quantizer is a BlockQuantConfig of that block size, measuring its
    plain Q; a corrections.Correction of that block size, run on each
    piece; or an x_hat of x's shape. The pieces are cut at multiples of
    each correction's align, so a correction local to a macro block has
    the whole macro in one piece. work, if given, is the pieces' workspace,
    which the corrections use too: their scratch and the split's then take
    turns in one block of memory."""
    x = _as_tensor(x)
    return _decompose(x, BlockQuantConfig(block_size=block_size),
                      _quantizers(x, block_size, quantizers), work=work)


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


def _check_norms(name: str, *norms: float) -> None:
    """A squared norm of +inf, such as a GEMM trace at a large input
    variance, is a ValueError; a nan norm, which no overflow makes, is left
    to _check_identity."""
    if math.inf in norms:
        raise ValueError(f"squared norms overflow float64 on {name}")


def _check_split(name: str, d: ErrorDecomposition, keeps_deadzone: bool = True) -> None:
    """_check_identity on the split d of a tensor."""
    _check_identity(name, verify_identity(d), d.ip_scale_dz, d.ip_dz_grid,
                    keeps_deadzone=keeps_deadzone)


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
    piece when the tensors are tensorstore.TensorSources, read one piece at
    a time; one workspace serves every tensor. Each split must pass
    _check_split, or InvariantViolation names the tensor. A tensor whose
    block scales E8M0 cannot code is a ValueError that names it
    (formats.ceil_scale_array), and below that range no squared norm can
    overflow: every block maximum is below 12 * 2^127.
    """
    if not tensors:
        raise ValueError("empty tensor set")
    records = []
    work = _Workspace()                 # one for every tensor's pieces
    for name in sorted(tensors):
        x = _as_tensor(tensors[name])
        with _naming(name):
            d = decompose_tensor(x, config, keep_errors=False, work=work)
        _check_split(name, d)
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
            "dz_inner_products": [d.ip_scale_dz, d.ip_dz_grid],
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


def scale_precision_sweep(x: np.ndarray | TensorSource, m_list: Iterable[int] = range(9),
                          block_size: int = 32, name: str = "tensor") -> list[dict]:
    """Decomposition series over scale mantissa widths, in one pass over x
    (an array or a TensorSource) that measures Q at every M against the one
    Q*(x): e_grid and e_dz, which depend only on s_star, are the same at
    every M by construction. Each split must pass _check_identity; a
    violation raises, naming the tensor and M, because it can only be a
    kernel bug. A ValueError, such as a block scale past E8M0's range, names
    the tensor too. Total MSE is reported with a monotonicity flag rather than
    asserted: it is non-increasing on every tensor family tested, but
    nothing forbids a small tensor from trading a lucky rounding away as the
    scale tightens.
    """
    m_list = list(m_list)
    if not m_list:
        raise ValueError("empty M list")
    x = _as_tensor(x)
    numel = x.size
    configs = [BlockQuantConfig(block_size=block_size, scale_mantissa_bits=m)
               for m in m_list]
    with _naming(name):
        splits = decompose_quantizers(x, block_size, configs)
    out = []
    for m, d in zip(m_list, splits):
        _check_split(f"{name}, M={m}", d)
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
