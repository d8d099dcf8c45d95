"""Block quantizer: Q (coded scale), Q* (ideal scale), deadzone, QDQ.

Blocks run along the innermost axis; the last block of a row may be short
and behaves exactly like a full block of its own length. All arithmetic is
float64; narrower inputs are widened on entry.

All-zero blocks have no codable scale. They quantize to exact zeros under
a sentinel unit scale, and every error component on them is zero.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .formats import (
    _EXPONENT_MASK,
    _MANTISSA_BITS,
    GRID_MAGNITUDES,
    Q_MAX,
    ScaleCode,
    _round_magnitude,
    ceil_scale_array,
    grid_index_array,
)

__all__ = [
    "BlockQuantConfig",
    "BlockQuant",
    "QuantizedTensor",
    "BlockView",
    "block_view",
    "ideal_scale",
    "quantize_block",
    "quantize_block_ideal",
    "deadzone_mask",
    "quantize_tensor",
    "qdq_tensor",
]


@dataclass(frozen=True)
class BlockQuantConfig:
    """Quantizer settings shared by every call. The element grid is always
    E2M1 (formats.E2M1)."""

    block_size: int = 32
    scale_mantissa_bits: int = 0

    def __post_init__(self) -> None:
        if self.block_size < 1:
            raise ValueError("block_size must be >= 1")
        if not 0 <= self.scale_mantissa_bits <= 8:
            raise ValueError("scale_mantissa_bits must be in [0, 8]")


@dataclass(frozen=True)
class BlockQuant:
    """One quantized block. ``scale`` is None for the ideal-scale quantizer,
    whose scale is the uncoded real s_star; ``scale_value`` is always the
    factor used for dequantization."""

    element_codes: np.ndarray          # int8, sign * magnitude index
    scale: ScaleCode | None
    scale_value: float
    s_star: float
    m_b: float

    def dequantize(self) -> np.ndarray:
        idx = np.abs(self.element_codes).astype(np.int64)
        return self.scale_value * np.copysign(
            GRID_MAGNITUDES[idx], self.element_codes.astype(np.float64))


@dataclass
class QuantizedTensor:
    """Packed per-block codes and scales for a whole tensor."""

    shape: tuple[int, ...]
    config: BlockQuantConfig
    element_codes: np.ndarray          # int8, (n_blocks, B), padded with 0
    scale_exponents: np.ndarray        # int64, (n_blocks,)
    scale_mantissas: np.ndarray        # int64, (n_blocks,)
    s_star: np.ndarray                 # float64, (n_blocks,)
    m_b: np.ndarray                    # float64, (n_blocks,)

    @property
    def n_blocks(self) -> int:
        return self.element_codes.shape[0]

    def block(self, i: int) -> BlockQuant:
        code = ScaleCode(int(self.scale_exponents[i]), int(self.scale_mantissas[i]),
                         self.config.scale_mantissa_bits)
        length = _row_block_length(self.shape, self.config.block_size, i)
        return BlockQuant(self.element_codes[i, :length], code, code.decode(),
                          float(self.s_star[i]), float(self.m_b[i]))

    def dequantize(self) -> np.ndarray:
        scale = np.ldexp(1.0 + self.scale_mantissas /
                         (1 << self.config.scale_mantissa_bits),
                         self.scale_exponents)
        idx = np.abs(self.element_codes).astype(np.int64)
        vals = scale[:, None] * np.copysign(
            GRID_MAGNITUDES[idx], self.element_codes.astype(np.float64))
        return _unblock(vals, self.shape, self.config.block_size)


# --- block layout ------------------------------------------------------------

# Elements per working piece of the loops that stream a large tensor through
# the kernels: the exhaustive MBS trials in corrections and the decomposition
# in decompose. Each piece goes through two dozen elementwise passes, the dot
# products included, over half a dozen live arrays, so it is sized for the
# cache, not for numpy's per-call overhead: at 2^17 one float64 array is
# 1 MiB. On a 2-core Xeon with 4 MiB L2, the MBS trials on 512x512 took
# 0.9-1.0 s at 2^16-2^17 against 2.0-2.3 s at 2^23, and tensor_stats on a
# 4096x4096 Student-t tensor took 0.93-1.14 s at 2^14-2^20 against 1.64 s
# at 2^22 and 1.47 s in one piece. With the magnitude kernel (qdq_views) it
# takes 0.41-0.45 s at 2^14-2^18 and 0.56 s at 2^13. The decomposition's
# sums are added piece by piece, so this constant also fixes their bits.
_CHUNK_ELEMS = 1 << 17


class _Workspace:
    """Named scratch arrays that a loop over pieces reuses for its whole run.
    A kernel given one writes into take(name, shape, dtype) rather than into
    a new array. Each name keeps the largest byte buffer it has handed out,
    in any dtype, so one name holds one live array at a time. Fresh
    piece-sized temporaries on every piece cost page faults: the allocator
    hands the freed pages back to the system and faults them in again on
    the next piece."""

    def __init__(self) -> None:
        self._buffers: dict[str, np.ndarray] = {}

    def take(self, name: str, shape: tuple[int, ...], dtype=np.float64) -> np.ndarray:
        dtype = np.dtype(dtype)
        nbytes = math.prod(shape) * dtype.itemsize
        buf = self._buffers.get(name)
        if buf is None or buf.size < nbytes:
            buf = self._buffers[name] = np.empty(nbytes, np.uint8)
        return buf[:nbytes].view(dtype).reshape(shape)


def _take(work: _Workspace | None, name: str, shape: tuple[int, ...],
          dtype=np.float64) -> np.ndarray:
    """work's scratch array for name, or a new array without a workspace."""
    return np.empty(shape, dtype) if work is None else work.take(name, shape, dtype)


def _blocks_per_row(n: int, B: int) -> int:
    return (n + B - 1) // B


def _row_block_length(shape: tuple[int, ...], B: int, i: int) -> int:
    n = shape[-1] if shape else 1
    per_row = _blocks_per_row(n, B)
    tail = n - (per_row - 1) * B
    return tail if (i % per_row) == per_row - 1 else B


def _pad_rows(rows: np.ndarray, B: int) -> np.ndarray:
    """(n_rows, n) rows zero-padded to whole blocks of B; rows itself when
    n is a multiple of B. block_view and decompose's x_hat pieces use it."""
    pad = -rows.shape[1] % B
    return np.pad(rows, ((0, 0), (0, pad))) if pad else rows


def _unblock(blocks: np.ndarray, shape: tuple[int, ...], B: int) -> np.ndarray:
    n = shape[-1] if shape else 1
    per_row = _blocks_per_row(n, B)
    rows = blocks.reshape(-1, per_row * B)[:, :n]
    return rows.reshape(shape)


@dataclass
class BlockView:
    """Padded (n_blocks, B) working view of a tensor plus everything the
    decomposition needs. Padding is zeros and is sliced away by restore()."""

    shape: tuple[int, ...]
    block_size: int
    blocks: np.ndarray                 # float64, (n_blocks, B)
    m_b: np.ndarray                    # (n_blocks,)
    s_star: np.ndarray                 # (n_blocks,), 0 on all-zero blocks
    nonzero: np.ndarray                # bool, (n_blocks,)
    _mag: np.ndarray | None = dataclasses.field(default=None, repr=False)

    @property
    def mag(self) -> np.ndarray:
        """|blocks|: block_view's workspace array, or made on first use. A
        view made without a workspace does not hold it until then."""
        if self._mag is None:
            self._mag = np.abs(self.blocks)
        return self._mag

    @property
    def padded(self) -> bool:
        return (self.shape[-1] if self.shape else 1) % self.block_size != 0

    @property
    def valid(self) -> np.ndarray:
        """bool (n_blocks, B): False on padding. Built on each access."""
        n = self.shape[-1] if self.shape else 1
        rows = np.ones((self.blocks.size // _blocks_per_row(n, self.block_size)
                        // self.block_size, n), dtype=bool)
        return _pad_rows(rows, self.block_size).reshape(self.blocks.shape)

    def restore(self, blocked: np.ndarray) -> np.ndarray:
        return _unblock(blocked, self.shape, self.block_size)

    def signed(self, mag: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Magnitudes given the signs of blocks, into out (mag itself may be
        out): a zero keeps the sign of its element, as copysign gives it,
        except on all-zero blocks, which are +0.0 throughout. These are the
        bits of rounding the signed blocks directly."""
        out = np.copysign(mag, self.blocks, out=out)
        if not self.nonzero.all():
            out[~self.nonzero] = 0.0
        return out


def block_view(x: np.ndarray, config: BlockQuantConfig,
               work: _Workspace | None = None) -> BlockView:
    """Split along the innermost axis, zero-padding short tail blocks. With
    a workspace, |blocks| is formed once, into its "mag", and kept as the
    view's mag."""
    x = np.asarray(x, dtype=np.float64)
    if x.size == 0:
        raise ValueError("empty tensor")
    B = config.block_size
    shape = x.shape
    n = shape[-1] if shape else 1
    blocks = _pad_rows(x.reshape(-1, n), B).reshape(-1, B)
    mag = np.abs(blocks, out=_take(work, "mag", blocks.shape))
    # On |x|, the int64 order of the bit patterns is the float order, and
    # inf and nan have the largest patterns: a block holding either has a
    # non-finite maximum. The integer reduction is the faster one.
    m_b = mag.view(np.int64).max(axis=1).view(np.float64)
    if not np.isfinite(m_b).all():
        raise ValueError("non-finite input")
    s_star = m_b / Q_MAX
    return BlockView(shape, B, blocks, m_b, s_star, m_b > 0,
                     None if work is None else mag)


# --- core kernels (array in, array out) --------------------------------------

# Scale exponents e for which _mag_round_pow2 folds 2^e into the grid step.
# With |x| <= 6 * 2^e (1 + 2^-52), the step 2^e * 2^max(k - 2, -1) of an element
# in [2^(e + k - 1), 2^(e + k)) has k <= 3, so its biased exponent lies in
# [1022 + e, 1024 + e]. That is a normal power of two for e in [-1021, 1022],
# and 6 * 2^e is finite for e <= 1021.
_FOLD_EXPONENTS = (-1021, 1021)


def _mag_round(mag: np.ndarray, scale: np.ndarray, out: np.ndarray | None = None,
               work: _Workspace | None = None) -> np.ndarray:
    """scale * grid_magnitude(mag / scale) for magnitudes mag >= 0, one scale
    > 0 per row, into out or a new array."""
    s = scale[:, None]
    q = np.divide(mag, s, out=out)
    _round_magnitude(q, _take(work, "scratch", q.shape, np.int64))
    q *= s
    return q


def _mag_round_pow2(mag: np.ndarray, exponent: np.ndarray,
                    out: np.ndarray | None = None,
                    work: _Workspace | None = None) -> np.ndarray:
    """_mag_round at the scale 2^exponent of each row, int64 exponents
    within _FOLD_EXPONENTS, with the scale folded into the grid step.

    The step of u = |x| / 2^e is 2^max(k - 2, -1) for u in [2^(k-1), 2^k)
    (formats._round_magnitude); times 2^e, its biased exponent field is
    max(field(|x|), 1023 + e) - 1. So the rounding is one divide by that
    step, rint and one multiply, with no divide or multiply by the scale.
    The same bits as _mag_round: every step is normal in the range, so
    |x| / step is exact unless it is below 2^-1022, where both round to 0."""
    field = np.bitwise_and(mag.view(np.int64), _EXPONENT_MASK,
                           out=_take(work, "scratch", mag.shape, np.int64))
    np.maximum(field, ((1023 + exponent) << _MANTISSA_BITS)[:, None], out=field)
    field -= 1 << _MANTISSA_BITS
    step = field.view(np.float64)
    q = np.divide(mag, step, out=out)
    np.rint(q, out=q)
    q *= step
    return q


def _scaled_round(blocks: np.ndarray, scale: np.ndarray, nonzero: np.ndarray,
                  out: np.ndarray | None = None,
                  work: _Workspace | None = None) -> np.ndarray:
    """scale * grid_round(blocks / scale), one scale per row, into out or a
    new array; all-zero rows stay zero. The signed rounding of a whole
    tensor, _mag_round on |blocks|: qdq_tensor and the exhaustive MBS trials
    in corrections run it for Q alone."""
    q = np.abs(blocks, out=out)
    _mag_round(q, np.where(nonzero, scale, 1.0), q, work)
    np.copysign(q, blocks, out=q)
    q[~nonzero] = 0.0                  # +0.0, where a -0.0 input rounded to -0.0
    return q


def _deadzone(view: BlockView, work: _Workspace | None = None) -> np.ndarray:
    """The ideal-scale deadzone |x| < m_b/24, strict. False on all-zero
    blocks, whose threshold is 0; True on the padding of the others."""
    thr = (view.m_b / 24.0)[:, None]
    return np.less(view.mag, thr, out=_take(work, "dead", view.blocks.shape, bool))


def _element_codes(view: BlockView, scale: np.ndarray) -> np.ndarray:
    """int8 sign * grid index of blocks / scale; padding and all-zero blocks
    round to code 0."""
    u = view.blocks / np.where(view.nonzero, scale, 1.0)[:, None]
    return (np.sign(u) * grid_index_array(np.abs(u))).astype(np.int8)


def qdq_views(view: BlockView, config: BlockQuantConfig | None,
              work: _Workspace | None = None, *, signed: bool = True
              ) -> tuple[np.ndarray | None, np.ndarray, np.ndarray, np.ndarray | None]:
    """(qdq, qstar, dead, s_decoded) on the blocked view: the one rounding
    kernel of the decomposition.

    dead is the ideal-scale deadzone (_deadzone). qstar uses s_star, and
    qdq the ceiling-coded scale of config; config None skips Q, so qdq and
    s_decoded are None (the decomposition of a given x_hat needs only Q*).
    With signed=False, qdq and qstar are magnitudes, the roundings of
    view.mag: the decomposition's sums need no signs. With a workspace the
    three arrays are its "q", "qstar" and "dead".

    Both roundings work on |x|. Q* divides it by s_star (1 on blocks whose
    s_star is 0: all-zero ones and those whose maximum is at most 3
    subnormal units). At M = 0, Q folds its power-of-two scale into the
    grid step (_mag_round_pow2) when every block's exponent allows it.
    """
    shape = view.blocks.shape
    qstar = _mag_round(view.mag, np.where(view.s_star > 0, view.s_star, 1.0),
                       _take(work, "qstar", shape), work)
    dead = _deadzone(view, work)
    qdq = s_dec = None
    if config is not None:
        s_dec, e, _ = ceil_scale_array(view.s_star, config.scale_mantissa_bits)
        q = _take(work, "q", shape)
        lo, hi = _FOLD_EXPONENTS
        if config.scale_mantissa_bits == 0 and ((e >= lo) & (e <= hi)).all():
            qdq = _mag_round_pow2(view.mag, e, q, work)
        else:
            qdq = _mag_round(view.mag, s_dec, q, work)
    if signed:
        view.signed(qstar, qstar)
        if qdq is not None:
            view.signed(qdq, qdq)
    return qdq, qstar, dead, s_dec


# --- public operations -------------------------------------------------------


def ideal_scale(block: np.ndarray) -> float:
    """max|x| / q_max; 0 for an all-zero block."""
    block = np.asarray(block, dtype=np.float64)
    if block.size == 0:
        raise ValueError("empty block")
    if not np.isfinite(block).all():
        raise ValueError("non-finite input")
    return float(np.abs(block).max() / Q_MAX)


def _single_block(block: np.ndarray, config: BlockQuantConfig) -> np.ndarray:
    block = np.asarray(block, dtype=np.float64)
    if block.ndim != 1 or not 1 <= block.size <= config.block_size:
        raise ValueError("block must be 1-D with 1..block_size elements")
    return block


def quantize_block(block: np.ndarray, config: BlockQuantConfig) -> BlockQuant:
    return quantize_tensor(_single_block(block, config), config).block(0)


def quantize_block_ideal(block: np.ndarray, config: BlockQuantConfig) -> BlockQuant:
    """Q*: same rounding, scale = s_star exactly (left uncoded)."""
    view = block_view(_single_block(block, config), config)
    s_star = float(view.s_star[0])
    codes = _element_codes(view, view.s_star)[0, :view.shape[0]]
    return BlockQuant(codes, None, s_star or 1.0, s_star, float(view.m_b[0]))


def deadzone_mask(block: np.ndarray) -> np.ndarray:
    """|x_i| < m_b / 24, strict, the array taken as one block; all False if all zero."""
    block = np.asarray(block, dtype=np.float64)
    view = block_view(block.reshape(1, -1), BlockQuantConfig(max(1, block.size)))
    return _deadzone(view).reshape(block.shape)


def quantize_tensor(x: np.ndarray, config: BlockQuantConfig) -> QuantizedTensor:
    view = block_view(x, config)
    s_dec, e, k = ceil_scale_array(view.s_star, config.scale_mantissa_bits)
    codes = _element_codes(view, s_dec)
    return QuantizedTensor(view.shape, config, codes, e, k, view.s_star, view.m_b)


def qdq_tensor(x: np.ndarray, config: BlockQuantConfig) -> np.ndarray:
    """Quantize-dequantize emulation, Q(x) alone: the qdq of qdq_views
    without Q* or the deadzone. Deterministic and idempotent."""
    view = block_view(x, config)
    s_dec, _, _ = ceil_scale_array(view.s_star, config.scale_mantissa_bits)
    return view.restore(_scaled_round(view.blocks, s_dec, view.nonzero))
