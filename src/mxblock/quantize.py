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
    _INDEX_BY_HALVES,
    GRID_MAGNITUDES,
    Q_MAX,
    _ceil_scales,
    _round_at,
    _round_magnitude,
    ceil_scale_array,
)

__all__ = [
    "BlockQuantConfig",
    "QuantizedTensor",
    "BlockView",
    "block_view",
    "quantize_tensor",
    "qdq_tensor",
]


@dataclass(frozen=True)
class BlockQuantConfig:
    """Quantizer settings shared by every call. The element grid is always
    E2M1."""

    block_size: int = 32
    scale_mantissa_bits: int = 0

    def __post_init__(self) -> None:
        if self.block_size < 1:
            raise ValueError("block_size must be >= 1")
        if not 0 <= self.scale_mantissa_bits <= 8:
            raise ValueError("scale_mantissa_bits must be in [0, 8]")


@dataclass
class QuantizedTensor:
    """Packed per-block codes and scales for a whole tensor."""

    shape: tuple[int, ...]
    config: BlockQuantConfig
    element_codes: np.ndarray          # int8, (n_blocks, B), padded with 0
    scale_exponents: np.ndarray        # int64 in [-127, 127], (n_blocks,)
    scale_mantissas: np.ndarray        # int64, (n_blocks,)
    s_star: np.ndarray                 # float64, (n_blocks,)
    m_b: np.ndarray                    # float64, (n_blocks,)

    @property
    def n_blocks(self) -> int:
        return self.element_codes.shape[0]

    def dequantize(self) -> np.ndarray:
        scale = np.ldexp(1.0 + self.scale_mantissas /
                         (1 << self.config.scale_mantissa_bits),
                         self.scale_exponents)
        idx = np.abs(self.element_codes).astype(np.int64)
        vals = scale[:, None] * np.copysign(
            GRID_MAGNITUDES[idx], self.element_codes.astype(np.float64))
        return _unblock(vals, self.shape, self.config.block_size)


# --- block layout ------------------------------------------------------------

# Elements per piece of the decomposition (decompose), whose sums are added
# piece by piece. A piece goes through about 30 elementwise passes over a
# few live float64 arrays, so it is sized for the 2 MiB of L2 each core has
# on a 2-core Xeon: at 2^15 one array is 256 KiB and the working set, a
# piece's phase of its _Workspace, 1.03 MiB with one quantizer (four rows
# and the deadzone) and 1.53 MiB with more (e_dz and e_grid get rows of
# their own), 1.56 MiB with a piece function's zero mask. A piece
# function's phases, such as the MBS steps of the mbs command, take the
# same memory before it. There, tensor_stats on a BF16 container of a
# 4096x4096 Student-t tensor, a 2048x2048 Gaussian one and 64 vectors of
# 4100 elements took a median 0.280 s at 2^15 (quartiles 0.268-0.286 s),
# against 0.293 s at 2^16 and 0.325 s at 2^14, 15 alternating runs each.
# Each size moves the sums' last bits, since it moves where pieces start.
# The temperature fit (analysis) runs its quadrature, Monte Carlo and search
# objective in tiles of the same size.
_CHUNK_ELEMS = 1 << 15
# Elements per piece of the other streaming loops, at the size each was
# measured at: the container reader's and writer's pieces (tensorstore), the
# MBS trial errors and the AQN pieces (corrections) and the Monte Carlo
# chunks of gemm (analysis). The MBS trials on 512x512 took 0.9-1.0 s at
# 2^16-2^17 against 2.0-2.3 s at 2^23; gemm on 2048x2048 took 4.1-4.6 s with
# chunks of 2^15 against 2.6-2.9 s at 2^17.
_STREAM_ELEMS = 1 << 17


# Bytes each region of a workspace's block is aligned to: a cache line, so
# no two arrays share one.
_ALIGN = 64


class _Workspace:
    """Scratch arrays for a loop over pieces, in one reused block of memory.
    A kernel given one writes into take(name, shape, dtype) rather than into
    a new array: fresh piece-sized temporaries on every piece cost page
    faults, as the allocator hands the freed pages back to the system and
    faults them in again on the next piece.

    The takes come in phases, which reset() separates: a phase is one split
    piece, or one MBS step. Within a phase each name has one region of the
    block, and a name taken again gets the same region, or a new one if it
    must grow: one name holds one live array at a time, and two names never
    overlap. reset() ends the phase, and every array taken in it with it;
    the next phase hands the block out again from its start. So phases that
    run one after the other, such as a piece's MBS steps and then its
    split, hold one working set, the largest phase's, not one each.

    A take the block has no room for gets a buffer of its own for the rest
    of the phase. At the next reset those buffers are dropped first, and
    then the block grows to all that the phase took; it never grows while
    an array in it is live. A phase's first take, when nothing in the block
    is live, instead grows the block to its size when it is larger, so a
    phase that begins with most of its memory in one take, as a split piece
    does, does not hold that take beside the old block. A workspace that is
    never reset keeps an empty block, so each name keeps the largest buffer
    it has handed out, in any dtype, for the workspace's life: the container
    reader's and writer's reused buffers and those of the synthetic draws
    are such names."""

    def __init__(self) -> None:
        self._block = np.empty(0, np.uint8)
        self._top = 0                   # bytes of the block taken this phase
        self._own = 0                   # bytes of this phase's own buffers
        self._regions: dict[str, np.ndarray] = {}

    def take(self, name: str, shape: tuple[int, ...], dtype=np.float64) -> np.ndarray:
        dtype = np.dtype(dtype)
        return np.ndarray(shape, dtype, self._region(name, math.prod(shape) * dtype.itemsize))

    def take_rows(self, names: tuple[str, ...], shape: tuple[int, ...],
                  dtype=np.float64) -> np.ndarray:
        """One region for an array of shape per name, as the rows of the
        (len(names), *shape) array returned, each row on its own cache
        lines. For the rest of the phase a take of one of the names gets its
        row, so kernels that write into their named arrays fill the rows of
        one stacked array."""
        dtype = np.dtype(dtype)
        size = math.prod(shape)
        row = -(-size * dtype.itemsize // _ALIGN) * _ALIGN
        buf = self._region(" ".join(names), len(names) * row)
        for i, name in enumerate(names):
            self._regions[name] = buf[i * row:(i + 1) * row]
        rows = np.ndarray((len(names), size), dtype, buf, strides=(row, dtype.itemsize))
        return rows.reshape(len(names), *shape)

    def _region(self, name: str, nbytes: int) -> np.ndarray:
        """name's bytes of the phase: its region if it holds nbytes, else a
        new one from the block, or a buffer of its own."""
        buf = self._regions.get(name)
        if buf is None or buf.size < nbytes:
            size = -(-nbytes // _ALIGN) * _ALIGN
            if self._top == 0 and 0 < self._block.size < size:
                self._grow(size)
            if self._top + size <= self._block.size:
                buf = self._block[self._top:self._top + size]
                self._top += size
            else:
                buf = np.empty(size, np.uint8)
                self._own += size
            self._regions[name] = buf
        return buf

    def reset(self) -> None:
        """End the phase: no array taken since the last reset is used
        again."""
        need = self._top + self._own
        self._regions.clear()
        if need > self._block.size:
            self._grow(need)
        self._top = self._own = 0

    def _grow(self, nbytes: int) -> None:
        """A block of nbytes in place of the old one, which no live array
        is in."""
        self._block = None              # dropped before the larger one is made
        raw = np.empty(nbytes + _ALIGN, np.uint8)
        start = -raw.ctypes.data % _ALIGN
        self._block = raw[start:start + nbytes]


def _take(work: _Workspace | None, name: str, shape: tuple[int, ...],
          dtype=np.float64) -> np.ndarray:
    """work's scratch array for name, or a new array without a workspace."""
    return np.empty(shape, dtype) if work is None else work.take(name, shape, dtype)


def _blocks_per_row(n: int, B: int) -> int:
    return (n + B - 1) // B


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


def _block_maxima(mag: np.ndarray, B: int) -> np.ndarray:
    """Maxima of each run of B consecutive elements of mag, a C-contiguous
    array of magnitudes: one flat np.maximum.reduceat over its int64 view. On
    |x| the int64 order of the bit patterns is the float order, so the
    maxima are exact. By timeit on a (1024, 32) piece this took 21-35 us,
    against 49-56 us for an int64 max along axis 1."""
    flat = mag.view(np.int64).reshape(-1)
    return np.maximum.reduceat(flat, np.arange(0, flat.size, B)).view(np.float64)


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
    # inf and nan have the largest patterns: a block holding either has a
    # non-finite maximum
    m_b = _block_maxima(mag, B)
    if not np.isfinite(m_b).all():
        raise ValueError("non-finite input")
    s_star = m_b / Q_MAX
    return BlockView(shape, B, blocks, m_b, s_star, m_b > 0,
                     None if work is None else mag)


# --- core kernels (array in, array out) --------------------------------------

# Scale exponents e for which _mag_round_pow2 folds 2^e into the rounding
# constant. An element |x| <= m_b of a block at scale 2^e >= s_star = fl(m_b
# / 6) is below 8 * 2^e (m_b / 6 rounds by at most 2^-1075 below 2^-1022),
# so u = |x| / 2^e lies in [2^(k-1), 2^k) with k <= 3, and u's grid step
# 2^max(k - 2, -1), times 2^e, is 2^max(E - 1, e - 1) for E the exponent of
# |x|. In biased fields, 2 step has the field max(F, 1023 + e) for F the
# field of |x| (a subnormal |x| has F = 0 and E < e). The fold reads 1023 +
# e from the bits of the scale, which hold it for a normal scale: e >=
# -1022. The constant C = 1.5 * 2^52 * step has the field max(F, 1023 + e)
# + 51, at most 1076 + e (F <= 1025 + e): C is normal, and finite while
# 1076 + e <= 2046, e <= 970. Every E8M0 exponent, -127 to 127, lies within.
_FOLD_EXPONENTS = (-1022, 970)
# s_star from which on s_star / 4, the deadzone threshold fl(m_b / 24), is
# a normal float
_QUARTER_NORMAL = 2.0 ** -1020


def _mag_round(mag: np.ndarray, scale: np.ndarray, out: np.ndarray | None = None,
               work: _Workspace | None = None,
               dead: np.ndarray | None = None) -> np.ndarray:
    """scale * grid_magnitude(mag / scale) for magnitudes mag >= 0, one scale
    > 0 per row, into out or a new array. scale is an (n, 1) column, or the
    column spread over mag's shape, which spares the divide and the
    multiply numpy's slower broadcast loops.

    With dead, a bool array of mag's shape, this is Q* (scale s_star): dead
    receives the deadzone as fl(mag / scale) < 1/4, before the quotient is
    rounded, and the quotient is not saturated. Both are exact on rows whose
    s_star / 4 is a normal float (_ideal_round): fl(mag / s_star) < 1/4
    exactly when mag < (s_star / 4)(1 - 2^-54), which on floats is mag <
    s_star / 4 = fl(m_b / 24); and the quotient is at most 6 (1 + 2^-52),
    which rounds to 6."""
    q = np.divide(mag, scale, out=out)
    if dead is not None:
        np.less(q, 0.25, out=dead)
    _round_magnitude(q, _take(work, "scratch", q.shape, np.int64),
                     saturate=dead is None)
    q *= scale
    return q


def _mag_round_pow2(mag: np.ndarray, scale: np.ndarray,
                    out: np.ndarray | None = None,
                    work: _Workspace | None = None) -> np.ndarray:
    """_mag_round at power-of-two scales 2^e, one per row, e within
    _FOLD_EXPONENTS, with the scale folded into the rounding constant.

    The field of 2 step (the step of |x| / 2^e, times 2^e) is max(field(|x|),
    field(2^e)), and the scale's bits are its field. On magnitudes the int64
    order of the bit patterns is the float order, and 2^e has no mantissa
    bits, so that is the mask of max(bits(|x|), bits(2^e)): the scales'
    bits are copied to each element of their row, then one max and one mask
    on the bit patterns, and formats._round_at adds C = 1.5 * 2^52 * step
    and takes it away. The copy, unlike a max against the broadcast scales,
    needs no numpy iterator buffer (64 KiB). No division or multiply by the
    scale, and the same bits as _mag_round: the fold rounds |x| / 2^e
    exactly, and in the range _mag_round's quotient and product are exact
    unless the quotient is below 2^-1022, where both round to 0."""
    field = _take(work, "scratch", mag.shape, np.int64)
    np.copyto(field, scale.view(np.int64)[:, None])
    np.maximum(field, mag.view(np.int64), out=field)
    field &= _EXPONENT_MASK
    return _round_at(mag, field, out)


def _coded_round(mag: np.ndarray, scale: np.ndarray, pow2: bool,
                 out: np.ndarray | None = None,
                 work: _Workspace | None = None) -> np.ndarray:
    """_mag_round at coded scales. Power-of-two scales (pow2, M = 0) are
    folded into the rounding constant (_mag_round_pow2), the same bits:
    every E8M0 power of two lies in _FOLD_EXPONENTS."""
    if pow2:
        return _mag_round_pow2(mag, scale, out, work)
    return _mag_round(mag, scale[:, None], out, work)


def _below_threshold(mag: np.ndarray, m_b: np.ndarray,
                     out: np.ndarray | None = None) -> np.ndarray:
    """mag < m_b/24 per row: the ideal-scale deadzone by its definition,
    strict. False on all-zero blocks, whose threshold is 0; True on the
    padding of the others."""
    return np.less(mag, (m_b / 24.0)[:, None], out=out)


def _ideal_round(view: BlockView, work: _Workspace | None = None
                 ) -> tuple[np.ndarray, np.ndarray]:
    """(Q* magnitudes, deadzone) of the view: _mag_round at s_star, which
    takes the deadzone from its quotient, into work's "qstar" and "dead".
    The scales are spread over work's "q", the array that Q, rounded after
    Q* in qdq_views, overwrites.

    Rows whose s_star / 4 is not a normal float (subnormal scales, and the
    blocks rounded at the sentinel scale 1 because s_star is 0: all-zero
    ones and those whose maximum is at most 3 subnormal units) are redone
    by the definitions: the saturating _mag_round and |x| < m_b/24."""
    shape = view.blocks.shape
    some_odd = view.s_star.min() < _QUARTER_NORMAL
    s = np.where(view.s_star > 0, view.s_star, 1.0) if some_odd else view.s_star
    spread = _take(work, "q", shape)
    np.copyto(spread, s[:, None])
    dead = _take(work, "dead", shape, bool)
    qstar = _mag_round(view.mag, spread, _take(work, "qstar", shape), work, dead)
    if some_odd:
        odd = np.flatnonzero(view.s_star < _QUARTER_NORMAL)
        mag = view.mag[odd]
        qstar[odd] = _mag_round(mag, s[odd, None])
        dead[odd] = _below_threshold(mag, view.m_b[odd])
    return qstar, dead


def _packed_codes(view: BlockView, scale: np.ndarray) -> np.ndarray:
    """int8 sign(x) * grid index of view.mag / scale, rounded by
    _round_magnitude; padding and all-zero blocks get code 0. A scale of 0
    (s_star of a block whose maximum is at most 3 subnormal units) is the
    sentinel 1, as in _ideal_round."""
    s = np.where(scale > 0, scale, 1.0)[:, None]
    halves = 2.0 * _round_magnitude(view.mag / s)
    codes = _INDEX_BY_HALVES[halves.astype(np.intp)]
    return np.negative(codes, out=codes, where=np.signbit(view.blocks))


def _coded_qdq(view: BlockView, config: BlockQuantConfig, out: np.ndarray,
               work: _Workspace | None = None) -> tuple[np.ndarray, np.ndarray]:
    """(Q magnitudes, decoded scales): view.mag rounded at config's
    ceiling-coded scales into out, the qdq of qdq_views before its signs."""
    s_dec = _ceil_scales(view.s_star, config.scale_mantissa_bits)
    q = _coded_round(view.mag, s_dec, config.scale_mantissa_bits == 0, out, work)
    return q, s_dec


def qdq_views(view: BlockView, config: BlockQuantConfig | None,
              work: _Workspace | None = None, *, signed: bool = True
              ) -> tuple[np.ndarray | None, np.ndarray, np.ndarray, np.ndarray | None]:
    """(qdq, qstar, dead, s_decoded) on the blocked view: the one rounding
    kernel of the decomposition.

    dead is the ideal-scale deadzone, the bits of _below_threshold. qstar
    uses s_star, and qdq the ceiling-coded scale of config; config None
    skips Q, so qdq and s_decoded are None (the decomposition of a given
    x_hat needs only Q*). With signed=False, qdq and qstar are magnitudes,
    the roundings of view.mag: the decomposition's sums need no signs. With
    a workspace the three arrays are its "q", "qstar" and "dead".

    Both roundings work on |x|. Q* divides it by s_star (1 on blocks whose
    s_star is 0: all-zero ones and those whose maximum is at most 3
    subnormal units) and takes the deadzone from that quotient
    (_ideal_round). At M = 0, Q folds its power-of-two scale into the
    rounding constant (_mag_round_pow2).
    """
    shape = view.blocks.shape
    qstar, dead = _ideal_round(view, work)
    qdq = s_dec = None
    if config is not None:
        qdq, s_dec = _coded_qdq(view, config, _take(work, "q", shape), work)
    if signed:
        view.signed(qstar, qstar)
        if qdq is not None:
            view.signed(qdq, qdq)
    return qdq, qstar, dead, s_dec


# --- public operations -------------------------------------------------------


def quantize_tensor(x: np.ndarray, config: BlockQuantConfig) -> QuantizedTensor:
    view = block_view(x, config)
    s_dec, e, k = ceil_scale_array(view.s_star, config.scale_mantissa_bits)
    codes = _packed_codes(view, s_dec)
    return QuantizedTensor(view.shape, config, codes, e, k, view.s_star, view.m_b)


def qdq_tensor(x: np.ndarray, config: BlockQuantConfig) -> np.ndarray:
    """Quantize-dequantize emulation, Q(x) alone: the qdq of qdq_views
    without Q* or the deadzone. Deterministic and idempotent."""
    view = block_view(x, config)
    q, _ = _coded_qdq(view, config, view.mag)     # rounds |x| in place
    return view.restore(view.signed(q, q))
