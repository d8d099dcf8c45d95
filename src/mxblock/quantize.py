"""Block quantizer: Q (coded scale), Q* (ideal scale), deadzone, QDQ.

Blocks run along the innermost axis; the last block of a row may be short
and behaves exactly like a full block of its own length. All arithmetic is
float64; narrower inputs are widened on entry.

All-zero blocks have no codable scale. They quantize to exact zeros under
a sentinel unit scale, and every error component on them is zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .formats import (
    GRID_MAGNITUDES,
    Q_MAX,
    ScaleCode,
    _grid_magnitude,
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
    mbs_mantissas: np.ndarray | None = None   # int64, (n_macros,), optional

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
# in decompose. Each piece goes through a dozen elementwise passes over
# several live arrays, so it is sized for the cache, not for numpy's per-call
# overhead: at 2^17 one float64 array is 1 MiB and the working set fits a
# 4 MiB L2. On a 2-core Xeon with 4 MiB L2, the MBS trials on 512x512 took
# 0.9-1.0 s at 2^16-2^17 against 2.0-2.3 s at 2^23, and tensor_stats on a
# 4096x4096 Student-t tensor took 0.93-1.14 s at 2^14-2^20 against 1.64 s
# at 2^22 and 1.47 s in one piece.
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
    valid: np.ndarray                  # bool, (n_blocks, B)
    m_b: np.ndarray                    # (n_blocks,)
    s_star: np.ndarray                 # (n_blocks,), 0 on all-zero blocks
    nonzero: np.ndarray                # bool, (n_blocks,)

    def restore(self, blocked: np.ndarray) -> np.ndarray:
        return _unblock(blocked, self.shape, self.block_size)


def block_view(x: np.ndarray, config: BlockQuantConfig) -> BlockView:
    """Split along the innermost axis, zero-padding short tail blocks."""
    x = np.asarray(x, dtype=np.float64)
    if x.size == 0:
        raise ValueError("empty tensor")
    if not np.isfinite(x).all():
        raise ValueError("non-finite input")
    B = config.block_size
    shape = x.shape
    n = shape[-1] if shape else 1
    rows = x.reshape(-1, n)
    blocks = _pad_rows(rows, B).reshape(-1, B)
    valid = _pad_rows(np.ones(rows.shape, dtype=bool), B).reshape(-1, B)

    m_b = np.abs(blocks).max(axis=1)
    s_star = m_b / Q_MAX
    return BlockView(shape, B, blocks, valid, m_b, s_star, m_b > 0)


# --- core kernels (array in, array out) --------------------------------------


def _scaled_round(blocks: np.ndarray, scale: np.ndarray, nonzero: np.ndarray,
                  out: np.ndarray | None = None,
                  work: _Workspace | None = None) -> np.ndarray:
    """scale * grid_round(blocks / scale), one scale per row, into out or a
    new array; all-zero rows stay zero. The one QDQ rounding step: qdq_views
    runs it for Q and Q*, _ideal_views for Q* alone, qdq_tensor and the
    exhaustive MBS trials in corrections for Q alone."""
    safe = np.where(nonzero, scale, 1.0)[:, None]
    q = np.divide(blocks, safe, out=out)
    _grid_magnitude(q, q, _take(work, "scratch", q.shape, np.int64))
    np.copysign(q, blocks, out=q)      # the sign of blocks / safe: safe > 0
    q *= safe
    q[~nonzero] = 0.0                  # +0.0, where a -0.0 input rounded to -0.0
    return q


def _deadzone(view: BlockView, work: _Workspace | None = None) -> np.ndarray:
    """The ideal-scale deadzone |x| < m_b/24, strict, False on all-zero
    blocks."""
    thr = (view.m_b / 24.0)[:, None]
    mag = np.abs(view.blocks, out=_take(work, "scratch", view.blocks.shape))
    dead = np.less(mag, thr, out=_take(work, "dead", mag.shape, bool))
    dead &= view.nonzero[:, None]
    return dead


def _element_codes(view: BlockView, scale: np.ndarray) -> np.ndarray:
    """int8 sign * grid index of blocks / scale; padding and all-zero blocks
    round to code 0."""
    u = view.blocks / np.where(view.nonzero, scale, 1.0)[:, None]
    return (np.sign(u) * grid_index_array(np.abs(u))).astype(np.int8)


def _ideal_views(view: BlockView, work: _Workspace | None = None
                 ) -> tuple[np.ndarray, np.ndarray]:
    """(qstar, dead) on the blocked view: the half of qdq_views that does not
    depend on the scale code. The decomposition of a given x_hat needs only
    this half."""
    qstar = _take(work, "qstar", view.blocks.shape)
    return (_scaled_round(view.blocks, view.s_star, view.nonzero, qstar, work),
            _deadzone(view, work))


def qdq_views(view: BlockView, config: BlockQuantConfig,
              work: _Workspace | None = None
              ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(qdq, qstar, dead, s_decoded) on the blocked view.

    dead is the ideal-scale deadzone |x| < m_b/24, strict, False on
    all-zero blocks. qstar uses s_star; qdq uses the ceiling-coded scale.
    With a workspace the three arrays are its "q", "qstar" and "dead".
    """
    s_dec, _, _ = ceil_scale_array(view.s_star, config.scale_mantissa_bits)
    qdq = _scaled_round(view.blocks, s_dec, view.nonzero,
                        _take(work, "q", view.blocks.shape), work)
    qstar, dead = _ideal_views(view, work)
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
