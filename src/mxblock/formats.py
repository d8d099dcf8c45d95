"""E2M1 element grid and generalized E8Mk block-scale codec.

Conventions, fixed once here and relied on everywhere else:

- Element grid: magnitudes {0, 0.5, 1, 1.5, 2, 3, 4, 6} with a sign bit.
  ``q_max = 6`` is the largest magnitude, ``q_min = 0.5`` the smallest
  nonzero one.
- Rounding to the grid is nearest-value; ties between two grid neighbours
  resolve to the even magnitude *index* (midpoints 0.25, 0.75, 1.25, 1.75,
  2.5, 3.5, 5 go to indices 0, 2, 2, 4, 4, 6, 6). The grid is non-uniform,
  so tie-to-even on values would be ill-defined; index parity is not.
- That rule is IEEE round-half-even on a 1-bit mantissa, the roundTiesToEven
  of the OCP MX v1.0 FP4 format. The grid is uniform within each binade:
  step 0.5 below 2 (0.5 is the subnormal step), 1 in [2, 4), 2 in [4, 6].
  So one kernel rounds everything: ``rint(|u| / step) * step`` with
  ``step = 2^max(e - 2, -1)`` for the frexp exponent e of min(|u|, q_max).
  The integer rint picks has the parity of the magnitude index, so rint's
  ties-to-even is the even-index tie table.
- Magnitudes above q_max saturate to q_max. Ceiling scales make overflow
  impossible in the plain quantizer, but prescaled intermediates may hit it.
- Block scale: ``2^exponent * (1 + mantissa_code / 2^M)`` with M mantissa
  bits, 0 <= M <= 8. M = 0 is the plain power-of-two scale. Encoding uses
  ceiling semantics: the smallest representable value >= the ideal scale,
  so ``|x/s| <= q_max`` holds at every M.
- The exponent is an unbounded Python int. Range clamping belongs to a
  hardware backend, not to this emulation.

All kernels are exact in float64: the grid values and every representable
scale are dyadic rationals, and frexp/ldexp manipulate exponents without
rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "GRID_MAGNITUDES",
    "GRID_MIDPOINTS",
    "Q_MAX",
    "Q_MIN",
    "ElementGrid",
    "E2M1",
    "GridCode",
    "ScaleCode",
    "nearest_grid_code",
    "decode_grid",
    "encode_scale_ceiling",
    "grid_round_array",
    "grid_index_array",
    "ceil_scale_array",
]

# --- element grid constants -------------------------------------------------

GRID_MAGNITUDES = np.array([0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 6.0])
GRID_MIDPOINTS = np.array([0.25, 0.75, 1.25, 1.75, 2.5, 3.5, 5.0])
Q_MAX = 6.0
Q_MIN = 0.5

_MANTISSA_BITS = 52                     # float64 exponent field starts here
_EXPONENT_MASK = 0x7FF << _MANTISSA_BITS
# grid index by twice the magnitude: 0, 1, 2, 3, 4, 6, 8, 12 -> 0..7
_INDEX_BY_HALVES = np.array([0, 1, 2, 3, 4, -1, 5, -1, 6, -1, -1, -1, 7])


@dataclass(frozen=True)
class ElementGrid:
    """The element value set, as the frozen constant E2M1 below. It is a
    record of the grid the kernels implement, not a setting: no quantizer
    reads it. The checks keep the record consistent with its own fields."""

    values: tuple[float, ...] = tuple(GRID_MAGNITUDES.tolist())
    q_max: float = Q_MAX
    q_min: float = Q_MIN

    def __post_init__(self) -> None:
        vals = self.values
        if len(vals) < 2 or vals[0] != 0.0:
            raise ValueError("grid must start at 0")
        if any(b <= a for a, b in zip(vals, vals[1:])):
            raise ValueError("grid magnitudes must be strictly increasing")
        if vals[-1] != self.q_max:
            raise ValueError("q_max must equal the largest magnitude")
        if vals[1] != self.q_min:
            raise ValueError("q_min must equal the smallest nonzero magnitude")


E2M1 = ElementGrid()


@dataclass(frozen=True)
class GridCode:
    """Signed element code: sign in {-1, 0, +1} and magnitude index."""

    sign: int
    index: int

    def __post_init__(self) -> None:
        if self.sign not in (-1, 0, 1):
            raise ValueError("sign must be -1, 0, or +1")
        if not 0 <= self.index < len(GRID_MAGNITUDES):
            raise ValueError("magnitude index out of range")
        if self.index == 0 and self.sign != 0:
            raise ValueError("zero magnitude carries sign 0")
        if self.index != 0 and self.sign == 0:
            raise ValueError("nonzero magnitude needs a sign")


@dataclass(frozen=True)
class ScaleCode:
    """Block scale 2^exponent * (1 + mantissa_code / 2^mantissa_bits)."""

    exponent: int
    mantissa_code: int = 0
    mantissa_bits: int = 0

    def __post_init__(self) -> None:
        if not 0 <= self.mantissa_bits <= 8:
            raise ValueError("mantissa_bits must be in [0, 8]")
        if not 0 <= self.mantissa_code < (1 << self.mantissa_bits):
            raise ValueError("mantissa_code out of range for mantissa_bits")

    def decode(self) -> float:
        return math.ldexp(1.0 + self.mantissa_code / (1 << self.mantissa_bits),
                          self.exponent)


# --- vector kernels ----------------------------------------------------------


def _grid_magnitude(u: np.ndarray, out: np.ndarray | None = None,
                    field: np.ndarray | None = None) -> np.ndarray:
    """Nearest grid magnitude to |u|, into out (u itself may be out) or a
    new float64 array. field, if given, is an int64 scratch array of u's
    shape."""
    u = np.asarray(u, dtype=np.float64)
    if out is None:
        out = np.empty(u.shape)             # an array also for 0-d input
    return _round_magnitude(np.abs(u, out=out), field)


def _round_magnitude(a: np.ndarray, field: np.ndarray | None = None) -> np.ndarray:
    """Round the magnitudes a >= 0 to the grid in place and return a. field,
    if given, is an int64 scratch array of a's shape.

    min(a, q_max) lies in [2^(e-1), 2^e) with e <= 3, and the grid step
    there is 2^max(e - 2, -1). Its biased exponent field is e + 1022, so the
    step's field is max(field, 1023) - 1: three integer ops on the bit
    pattern with the field kept in place (mask, max, subtract), where frexp
    and ldexp would cost more than the rounding.
    Exact: dividing by a power of two, rint and multiplying back lose no
    bits. fmin, unlike minimum, also saturates nan to q_max."""
    np.fmin(a, Q_MAX, out=a)
    if field is None:
        field = np.empty(a.shape, dtype=np.int64)
    np.bitwise_and(a.view(np.int64), _EXPONENT_MASK, out=field)
    np.maximum(field, 1023 << _MANTISSA_BITS, out=field)
    field -= 1 << _MANTISSA_BITS
    step = field.view(np.float64)
    a /= step
    np.rint(a, out=a)
    a *= step
    return a


def grid_index_array(mag: np.ndarray) -> np.ndarray:
    """Magnitude -> grid index, vectorized. Saturates above q_max.

    The index of the nearest grid magnitude from the rounding kernel, which
    rounds half to even on a 1-bit mantissa; the integer it rounds to has
    the parity of the index, so exact midpoints land on even indices, the
    frozen tie table."""
    return _INDEX_BY_HALVES[(2.0 * _grid_magnitude(mag)).astype(np.intp)]


def grid_round_array(u: np.ndarray) -> np.ndarray:
    """Round scaled values to the signed grid, vectorized. A value that
    rounds to zero keeps its sign, as copysign gives it."""
    u = np.asarray(u, dtype=np.float64)
    r = _grid_magnitude(u)
    return np.copysign(r, u, out=r)


def ceil_scale_array(s_star: np.ndarray, mantissa_bits: int
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Smallest representable E8Mk scale >= s_star, elementwise.

    Returns (decoded, exponent, mantissa_code), the codes int64. Entries
    with s_star <= 0 are passed through as decoded 1.0 with code (0, 0);
    callers mask them.

    Exact by construction: with s* = f * 2^p (frexp, f in [0.5, 1)) write
    s* = 2^(p-1) * t, t = 2f in [1, 2). The mantissa step is 2^-M, so
    k = ceil((t - 1) * 2^M) is the ceiling code; k = 2^M carries into the
    next exponent. (t - 1) is exact in binary64, and the k comparison
    against (t - 1) * 2^M involves only scaled dyadics, so no double
    rounding can understate the ceiling.
    """
    if not 0 <= mantissa_bits <= 8:
        raise ValueError("mantissa_bits must be in [0, 8]")
    s_star = np.asarray(s_star, dtype=np.float64)
    levels = 1 << mantissa_bits

    f, p = np.frexp(s_star)
    ok = s_star > 0
    f = np.where(ok, f, 0.5)
    p = np.where(ok, p, 1)

    t = 2.0 * f                      # exact: doubling a binary64
    e = p - 1
    k = np.ceil((t - 1.0) * levels).astype(np.int64)
    carry = k == levels
    e = np.where(carry, e + 1, e)
    k = np.where(carry, 0, k)

    decoded = np.ldexp(1.0 + k / levels, e)
    decoded = np.where(ok, decoded, 1.0)
    e = np.where(ok, e, 0).astype(np.int64)    # frexp's exponents are int32
    k = np.where(ok, k, 0)
    return decoded, e, k


# --- scalar operations -------------------------------------------------------


def nearest_grid_code(u: float) -> GridCode:
    """Nearest signed grid code for one value. |u| > q_max saturates."""
    u = float(u)
    if not math.isfinite(u):
        raise ValueError("non-finite input")
    idx = int(grid_index_array(np.array([abs(u)]))[0])
    if idx == 0:
        return GridCode(0, 0)
    return GridCode(1 if u > 0 else -1, idx)


def decode_grid(code: GridCode) -> float:
    """Exact grid value for a signed code."""
    return float(code.sign) * float(GRID_MAGNITUDES[code.index])


def encode_scale_ceiling(s_star: float, mantissa_bits: int) -> ScaleCode:
    """Smallest representable E8Mk scale >= s_star, as a code."""
    s_star = float(s_star)
    if not math.isfinite(s_star) or s_star <= 0:
        raise ValueError("scale must be positive and finite")
    _, e, k = ceil_scale_array(np.array([s_star]), mantissa_bits)
    return ScaleCode(int(e[0]), int(k[0]), mantissa_bits)
