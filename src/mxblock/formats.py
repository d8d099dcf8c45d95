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
  So one kernel rounds everything, by addition: ``(|u| + C) - C`` with
  ``C = 1.5 * 2^52 * step`` and ``step = 2^max(e - 2, -1)`` for the frexp
  exponent e of min(|u|, q_max). C lies in [2^52 step, 2^53 step), the
  binade whose ulp is step, and |u| is far below it, so the sum rounds
  |u| to a multiple of step, ties to an even multiple; taking C away is
  exact. C / step = 1.5 * 2^52 is even, so the even multiple is the even
  grid index: the tie table.
- Magnitudes above q_max saturate to q_max. Ceiling scales make overflow
  impossible in the plain quantizer, but prescaled intermediates may hit it.
- Block scale: ``2^exponent * (1 + mantissa_code / 2^M)`` with M mantissa
  bits, 0 <= M <= 8. M = 0 is the plain power-of-two scale. Encoding uses
  ceiling semantics: the smallest representable value >= the ideal scale,
  so ``|x/s| <= q_max`` holds at every M.
- ``ceil_scale_array`` returns the exponent and mantissa codes as int64
  arrays, within E8M0's range of the OCP MX v1.0 spec: exponents -127 to
  127. A block scale below 2^-127 is coded as 2^-127, and one whose ceiling
  needs an exponent above 127 is refused.

All kernels are exact in float64: the grid values and every representable
scale are dyadic rationals, and the exponents are worked on the bit
patterns without rounding.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "GRID_MAGNITUDES",
    "GRID_MIDPOINTS",
    "Q_MAX",
    "Q_MIN",
    "grid_round_array",
    "ceil_scale_array",
]

# --- element grid constants -------------------------------------------------

GRID_MAGNITUDES = np.array([0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 6.0])
GRID_MIDPOINTS = np.array([0.25, 0.75, 1.25, 1.75, 2.5, 3.5, 5.0])
Q_MAX = 6.0
Q_MIN = 0.5

_MANTISSA_BITS = 52                     # float64 exponent field starts here
_EXPONENT_MASK = 0x7FF << _MANTISSA_BITS
_ONE_FIELD = 1023 << _MANTISSA_BITS        # the exponent field of 1.0
# The bits of the rounding constant C = 1.5 * 2^52 * step, added to the
# exponent field of 2 step: 51 binades up, and the top mantissa bit for 1.5
_ROUNDER_BITS = (51 << _MANTISSA_BITS) + (1 << (_MANTISSA_BITS - 1))
# E8M0's largest exponent, and its least scale, a normal float
_E8M0_EMAX = 127
_E8M0_MIN = 2.0 ** -127
# grid index by twice the magnitude: 0, 1, 2, 3, 4, 6, 8, 12 -> 0..7
_INDEX_BY_HALVES = np.array([0, 1, 2, 3, 4, -1, 5, -1, 6, -1, -1, -1, 7], np.int8)


# --- vector kernels ----------------------------------------------------------


def _round_magnitude(a: np.ndarray, field: np.ndarray | None = None, *,
                     saturate: bool = True) -> np.ndarray:
    """Round the magnitudes a >= 0 to the grid in place and return a. field,
    if given, is an int64 scratch array of a's shape.

    min(a, q_max) lies in [2^(e-1), 2^e) with e <= 3, and the grid step
    there is 2^max(e - 2, -1): the field of 2 step is max(field(a), field(1)),
    two integer ops on the bit pattern (mask, max), and _round_at turns it
    into the rounding constant C and rounds by adding it. fmin, unlike
    minimum, also saturates nan to q_max. saturate=False skips it, for
    callers whose magnitudes are below 7: the step there is 2, and every
    value in [6, 7) rounds to 6 unsaturated."""
    if saturate:
        np.fmin(a, Q_MAX, out=a)
    if field is None:
        field = np.empty(a.shape, dtype=np.int64)
    np.bitwise_and(a.view(np.int64), _EXPONENT_MASK, out=field)
    np.maximum(field, _ONE_FIELD, out=field)
    return _round_at(a, field, a)


def _round_at(a: np.ndarray, field: np.ndarray, out: np.ndarray | None = None
              ) -> np.ndarray:
    """a >= 0 rounded to the nearest multiple of its step, ties to the even
    multiple, into out (a itself may be out). field holds the biased
    exponent field of 2 step per element, and is turned into the bits of C.

    Exact while C = 1.5 * 2^52 * step is a finite normal float: C lies in
    [2^52 step, 2^53 step), whose ulp is step, and a < 2^52 step keeps a + C
    in that binade. So fl(a + C) is the multiple of step nearest a + C, an
    exact tie going to the even multiple, and since C / step is even that
    is the even multiple of step nearest a; subtracting C is then exact."""
    field += _ROUNDER_BITS
    c = field.view(np.float64)
    out = np.add(a, c, out=out)
    out -= c
    return out


def grid_round_array(u: np.ndarray) -> np.ndarray:
    """Round scaled values to the signed grid, vectorized. A value that
    rounds to zero keeps its sign, as copysign gives it."""
    u = np.asarray(u, dtype=np.float64)
    r = _round_magnitude(np.abs(u, out=np.empty(u.shape)))    # also for 0-d u
    return np.copysign(r, u, out=r)


def ceil_scale_array(s_star: np.ndarray, mantissa_bits: int
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Smallest representable E8Mk scale >= max(s_star, 2^-127), elementwise.

    Returns (decoded, exponent, mantissa_code), the codes int64 and the
    exponents in [-127, 127]. Entries with s_star <= 0 or nan are passed
    through as decoded 1.0 with code (0, 0); callers mask them. A ValueError
    naming E8M0's limit refuses any entry whose ceiling needs an exponent
    above 127 (+inf among them). The codes are read from the bits of the
    decoded scales, _ceil_scales', which is all that a rounding needs."""
    decoded = _ceil_scales(s_star, mantissa_bits)
    bits = decoded.reshape(-1).view(np.int64)
    e = (bits >> _MANTISSA_BITS) - 1023
    k = (bits >> (_MANTISSA_BITS - mantissa_bits)) & ((1 << mantissa_bits) - 1)
    return decoded, e.reshape(decoded.shape), k.reshape(decoded.shape)


def _largest_scale(mantissa_bits: int) -> float:
    """E8Mk's largest scale, 2^127 (2 - 2^-M): a ceiling needs an exponent
    above 127 exactly when what it rounds up is larger."""
    return math.ldexp(2.0 - math.ldexp(1.0, -mantissa_bits), _E8M0_EMAX)


def _ceil_scales(s_star: np.ndarray, mantissa_bits: int) -> np.ndarray:
    """ceil_scale_array's decoded scales, of s_star's shape, and its
    refusal, without the codes.

    Exact, from the bits of the normal max(s*, 2^-127): adding 2^(52-M) - 1
    carries into the top M mantissa bits, or past them into the exponent,
    unless the low 52 - M bits are all 0, and masking those off leaves the
    ceiling. The range check compares the largest entry with
    _largest_scale; only a refusal works out the exponent its ceiling
    needs."""
    if not 0 <= mantissa_bits <= 8:
        raise ValueError("mantissa_bits must be in [0, 8]")
    s_star = np.asarray(s_star, dtype=np.float64)
    shape = s_star.shape
    s_star = s_star.reshape(-1)
    s = np.maximum(s_star, _E8M0_MIN)
    if not s.size:
        return s.reshape(shape)
    if not s_star.min() > 0:            # a zero or a nan: the sentinel 1.0
        s = np.where(s_star > 0, s, 1.0)
    dropped = _MANTISSA_BITS - mantissa_bits
    top = s.max()
    if top > _largest_scale(mantissa_bits):
        ceiling = (int(top.view(np.int64)) + (1 << dropped) - 1) & (-1 << dropped)
        raise ValueError(f"block scale past E8M0's range: its ceiling needs exponent "
                         f"{(ceiling >> _MANTISSA_BITS) - 1023}, above the largest, "
                         f"{_E8M0_EMAX}")
    bits = s.view(np.int64)
    bits += (1 << dropped) - 1
    bits &= -1 << dropped
    return s.reshape(shape)
