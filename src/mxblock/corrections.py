"""Quantization corrections: macro-block scaling, outlier fallback, and the
adaptive noise schedule.

Macro-block scaling (MBS) stores one extra 8-bit mantissa per macro block
(default 128 elements, four sub-blocks) and applies it as
prescale -> quantize -> postscale:

    x_hat = Q((1 + m) x) / (1 + m),   m = k / 256

Two selection modes for k:

- "exhaustive": argmin over all 256 codes of the macro reconstruction MSE,
  ties to the smallest k. Minimizes total error; does not specifically
  drive the scale ratio to 1. At M = 0 a closed form ranks all 256 codes
  in O(macro + 256) per macro: each element's grid value changes only at
  its grid crossings (at most four) and at its sub-block's one scale
  switch, and only those changes are placed at their codes. A macro for
  which it leaves one code near the minimum, almost every macro, takes
  that code untried; only the codes of a macro left in doubt are quantized
  as trials. At M > 0 every code is a trial, O(256 macro) per macro.
  Either way the code is the one that quantizing all 256 trials picks,
  bit for bit.
- "closed_form": k = floor((2^delta_M - 1) * 256) from the macro max.
  Floor, not nearest: rounding up would push the prescaled macro max past
  the next power of two and double the ceiling scale. This mode pins the
  macro-max block's scale ratio to within one mantissa step of 1.

mbs_qdq runs in one pass over steps of whole macros. Each step is blocked
once, at the macro size: its sub-block maxima are taken once, its codes
picked, and its x_hat written from that same view. A macro decided
without a trial, in either mode, has its x_hat row evaluated once at its
code, with the step's other such macros; a tried macro's x_hat is the row
of its winning trial, kept as the trials are evaluated. No macro is
quantized again for the output. A macro's code and x_hat depend on that
macro alone, so the decomposition can measure mbs_qdq piece by piece, on
pieces cut at whole macros, as it measures of_qdq.

Outlier fallback (OF) runs the quantizer twice and blends the residual
pass: x_hat = Q(x) + alpha * Q(x - Q(x)). Deadzone values killed by pass 1
are usually representable in pass 2's finer scale.

AQN adds seeded Gaussian weight noise at sigma * multiplier * rms(tensor),
decaying sigma exponentially over stages. It runs in two passes over pieces
of the tensor, the rms and then the noise, so the aqn command never holds a
whole tensor; only its noise stream, keyed by sha256, loads hashlib.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .decompose import _as_tensor, _dot, _row_pieces
from .formats import (
    GRID_MAGNITUDES,
    GRID_MIDPOINTS,
    Q_MAX,
    _INDEX_BY_HALVES,
    _round_magnitude,
    ceil_scale_array,
)
from .quantize import (
    _STREAM_ELEMS,
    BlockQuantConfig,
    _block_maxima,
    _coded_round,
    _Workspace,
    block_view,
    qdq_tensor,
)

__all__ = [
    "MbsConfig",
    "OfConfig",
    "AqnSchedule",
    "OfResult",
    "mbs_qdq",
    "of_qdq",
    "aqn_pieces",
]

MBS_LEVELS = 256
_MBS_MODES = ("exhaustive", "closed_form")


@dataclass(frozen=True)
class MbsConfig:
    macro_block_size: int = 128

    def __post_init__(self) -> None:
        if self.macro_block_size < 1:
            raise ValueError("macro_block_size must be >= 1")

    def validate_against(self, quant: BlockQuantConfig) -> None:
        if self.macro_block_size % quant.block_size:
            raise ValueError("macro_block_size must be a multiple of block_size")


@dataclass(frozen=True)
class OfConfig:
    alpha: float = 0.5

    def __post_init__(self) -> None:
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError("alpha must be in [0, 1]")


@dataclass(frozen=True)
class AqnSchedule:
    """Exponential decay sigma_start -> sigma_end over num_stages stages;
    sigma_start is finite."""

    sigma_start: float = 0.01
    sigma_end: float = 0.001
    num_stages: int = 10
    multipliers: dict[str, float] = field(
        default_factory=lambda: {"post_attention_layernorm": 1.414})

    def __post_init__(self) -> None:
        if not math.isfinite(self.sigma_start):
            raise ValueError(f"sigma_start must be finite, got {self.sigma_start}")
        if not (self.sigma_start >= self.sigma_end > 0):
            raise ValueError("need sigma_start >= sigma_end > 0")
        if self.num_stages < 1:
            raise ValueError("num_stages must be >= 1")

    def stage_sigmas(self) -> np.ndarray:
        """Stage magnitudes sigma_start * (sigma_end/sigma_start)^(k/(K-1))."""
        if self.num_stages == 1:
            return np.array([float(self.sigma_start)])
        k = np.arange(self.num_stages)
        return self.sigma_start * (self.sigma_end / self.sigma_start) ** (
            k / (self.num_stages - 1))

    def multiplier_for(self, name: str) -> float:
        for pattern, mult in self.multipliers.items():
            if pattern in name:
                return mult
        return 1.0


# --- macro-block scaling -------------------------------------------------------


def _closed_form_codes(m_m: np.ndarray) -> np.ndarray:
    """k = floor((2^delta_M - 1) * 256) per macro max, 0 where s = m_m / 6 is
    0: 2^delta_M is the power-of-two ceiling of s over s, rounded once. The
    ceiling is E8M0's, so where it clamps (s <= 2^-128) the ratio is at least
    2 and k is clipped to 255: with the scale held at 2^-127, the largest
    prescale uses the most of the grid."""
    s = m_m / Q_MAX
    live = s > 0
    k = np.floor((ceil_scale_array(s, 0)[0] / np.where(live, s, 1.0) - 1.0) * MBS_LEVELS)
    return np.where(live, np.clip(k, 0, MBS_LEVELS - 1), 0).astype(np.int64)


# p_k = 1 + k/256 for k = 0..256. p_256 = 2 is never a code: it caps the
# search for the scale switch in _grid_sums.
_PRESCALES = 1.0 + np.arange(MBS_LEVELS + 1) / MBS_LEVELS
_CODE_STEP = 1.0 / MBS_LEVELS                        # p_{k+1} - p_k, exact
_GRID_STEPS = np.diff(GRID_MAGNITUDES)               # 0.5 ... 2: powers of two
_GRID_SQ_STEPS = np.diff(GRID_MAGNITUDES ** 2)
# u rounds above midpoint j exactly when u > _PASSED[j]: the midpoint where
# its tie stays at the even index j, the float just below it where the tie
# rounds up to the even index j + 1.
_PASSED = np.where(np.arange(len(GRID_MIDPOINTS)) % 2 == 1,
                   np.nextafter(GRID_MIDPOINTS, 0.0), GRID_MIDPOINTS)
# Crossings by jj = j + 7r, midpoint j in scale regime r (scale 2^r s0), in
# units of the sub-block's s0: the threshold on fl(p |x|) / s0, and the
# steps of s g / s0 and (s g / s0)^2. Doubling is exact.
_N_MIDPOINTS = len(GRID_MIDPOINTS)
_CROSS_THRESHOLDS = np.concatenate([_PASSED, 2.0 * _PASSED])
_CROSS_STEPS = np.concatenate([_GRID_STEPS, 2.0 * _GRID_STEPS])
_CROSS_SQ_STEPS = np.concatenate([_GRID_SQ_STEPS, 4.0 * _GRID_SQ_STEPS])
# fl(1 / p^2) and fl(2 / p) of every code, for _approx_errors
_INV_SQ_PRESCALES = 1.0 / _PRESCALES[:MBS_LEVELS] ** 2
_TWO_INV_PRESCALES = 2.0 / _PRESCALES[:MBS_LEVELS]
# Elements per step of mbs_qdq: code selection and x_hat alike. The
# workspace phase of an exhaustive step at M = 0 (macro 128, a Gaussian: 1.4
# crossings per element, every macro decided without a trial) is 25
# arrays, its largest the complex sums and the crossings' weights: 1.60 MiB
# at 2^13 elements, under a 2 MiB L2 per core, against 3.18 MiB at 2^14; at
# M = 3, where every code is a trial, it is 3.14 MiB. Each macro's code and
# x_hat do not depend on its step, so the step size moves no output bit. On
# 512x512 (a 2-core Xeon) the smaller step lowered the mbs command's peak
# RSS from 46.9 to 44.5 MB, and mbs_qdq took 38.9 ms against 38.2 ms at 2^14
# (first quartile of 80 interleaved calls each). A 2^15 step was no faster
# than 2^14 and raised that peak from 46 to 52 MB. In the mbs command the
# steps and the split's pieces (1.56 MiB) take one workspace block in turn,
# sized by the larger of the two.
_STEP_ELEMS = 1 << 13
# Macros take the closed form when every sub-block maximum m is 0 or above
# this floor; the others are swept. At code k a sub-block's scale is the
# ceiling of max(fl(fl(p_k m) / 6), 2^-127), and the clamp moves it only
# where fl(fl(p_k m) / 6) <= 2^-128: a value in (2^-128, 2^-127] has the
# ceiling 2^-127 either way. p_0 m = m is the least product, so no code is
# clamped exactly when fl(m / 6) > 2^-128, that is m > 6 * 2^-128 = 3 *
# 2^-127: 6 * 2^-128 divides to 2^-128 exactly, and the float above it to
# the float above 2^-128. Below the floor s0 is the clamp, m / s0 is not in
# (3, 6], and _grid_sums would look for a scale switch that never comes.
# Above it, with mbs_qdq's domain keeping m below 2^130, the rounding bound
# of _approx_errors holds: every scale, weight and crossing it forms is a
# normal float, since an element with a nonzero grid value at some code is
# at least s0 / 8 >= 2^-130. A smaller element is 0 at every code, in the
# closed form and in the sweep, and only its square can underflow, which
# the bound covers.
_RANKED_FLOOR = 3.0 * 2.0 ** -127


def _prescaled_qdq(mag: np.ndarray, sub_max: np.ndarray, pres: np.ndarray,
                   quant: BlockQuantConfig, out: np.ndarray,
                   work: _Workspace) -> np.ndarray:
    """|Q(p x) / p| of each row of the magnitudes mag = |x| at its prescale
    (pres, shape (n, 1)), into out: the one evaluation of a prescaled macro,
    a trial's, whose row is mbs_qdq's output when the trial wins.

    Q is quantize._coded_round, so each row holds the bits of
    |qdq_tensor(p x) / p|, and at M = 0 it folds the power-of-two scale into
    the rounding constant, as qdq_views does. The blocks are not built with
    block_view: their maxima come from the macro's own sub-block maxima
    sub_max, exactly, since rounding is monotone and fl(p * max|x_i|) = max
    fl(p * |x_i|), the maximum block_view would find on the prescaled
    block. That gives s_star and the ceiling scale at 1/B of the cost, for
    any M."""
    B = quant.block_size
    m_b = sub_max * pres                                        # (n, macro / B)
    s_dec, _, _ = ceil_scale_array(m_b / Q_MAX, quant.scale_mantissa_bits)
    y = np.multiply(mag, pres, out=out)
    _coded_round(y.reshape(-1, B), s_dec.ravel(), quant.scale_mantissa_bits == 0,
                 y.reshape(-1, B), work)
    y /= pres
    return y


def _trial_errors(mag: np.ndarray, sub_max: np.ndarray, cand: np.ndarray,
                  quant: BlockQuantConfig, work: _Workspace):
    """The trials are the True entries of cand, (n, 256): the macro of
    magnitudes mag[i] (sub-block maxima sub_max[i]) at code k where
    cand[i, k], taken by macro, then by k. Yields them in chunks of about
    quantize._STREAM_ELEMS elements, as (rows, k, errors, y): trial j of a
    chunk is macro rows[j] at code k[j], y[j] is its |Q(p x) / p| by
    _prescaled_qdq, and errors[j] its squared error sum(Q(p x) / p - x)^2,
    taken as sum(|Q(p x) / p| - |x|)^2, the same bits. y is an array of
    work, valid until the next chunk.

    The one evaluation of a trial, so its float64 error and row are those
    of every other caller. Each trial is one row of macro elements and is
    summed along that row, so its pairwise summation does not depend on
    which other trials share the chunk. Only a chunk's trials are listed at
    a time: at M > 0 a step has 256 per macro."""
    macro = mag.shape[1]
    step = max(1, _STREAM_ELEMS // macro)
    ends = np.cumsum(cand.sum(axis=1))                 # trials through each macro
    total = int(ends[-1]) if len(ends) else 0
    for lo in range(0, total, step):
        hi = min(lo + step, total)
        first, last = np.searchsorted(ends, (lo, hi - 1), side="right")
        skip = lo - (int(ends[first - 1]) if first else 0)
        # flatnonzero: np.nonzero on the 2-D mask takes 10x as long
        at = np.flatnonzero(cand[first:last + 1])[skip:skip + hi - lo]
        rows, k = np.divmod(at, MBS_LEVELS)
        rows += first
        # mode="clip": with "raise", take buffers its out= through a copy
        x = np.take(mag, rows, axis=0, out=work.take("x", (len(rows), macro)), mode="clip")
        y = _prescaled_qdq(x, sub_max[rows], _PRESCALES[k][:, None], quant,
                           work.take("y", x.shape), work)
        np.subtract(y, x, out=x)
        np.square(x, out=x)
        errors = x.sum(axis=1)
        yield rows, k, errors, y


def _first_past(a: np.ndarray, thr: np.ndarray | float, out: np.ndarray,
                work: _Workspace) -> np.ndarray:
    """First code k with fl(p_k a) > thr, elementwise, as float64 into out,
    for a > 0 whose first such code lies in [1, 256].

    The real crossing is r = (thr / a - 1) * 256, and the computed r is
    within 2^-44 of it: thr / a rounds once and lies in [1, 2], so taking 1
    away and scaling by 256 are exact. fl(p_k a) differs from p_k a by less
    than a relative 2^-52, which moves the crossing by less than 2^-42. So
    the first code is the estimate floor(r) + 1 or a neighbour, and the
    sweep's own product fl(p_k a) at the estimate and at the code below it
    settles which. Each p_k is formed exactly, as (f + 257) / 256 for the
    integer f = floor(r), so no code is looked up or clipped."""
    f = np.divide(thr, a, out=out)
    f *= MBS_LEVELS
    f -= MBS_LEVELS
    np.floor(f, out=f)
    p = np.multiply(f, _CODE_STEP, out=work.take("p", a.shape))
    p += 1.0 + _CODE_STEP                              # p at the estimate f + 1
    pa = work.take("pa", a.shape)
    past = work.take("past", a.shape, bool)
    f += 2.0
    f -= np.greater(np.multiply(p, a, out=pa), thr, out=past)
    p -= _CODE_STEP
    f -= np.greater(np.multiply(p, a, out=pa), thr, out=past)
    return f


def _grid_sums(mag: np.ndarray, sub_max: np.ndarray,
               work: _Workspace | None = None) -> tuple[np.ndarray, np.ndarray]:
    """(S2, SX), each (n, 256): sum (s g_i)^2 and sum s g_i |x_i| over each
    macro of magnitudes mag, with sub-block maxima sub_max, at every code at
    M = 0, where s is the element's sub-block scale and g_i its grid
    magnitude in the trial at that code.

    Units. A sub-block with maximum m starts at the scale s0 =
    ceil_pow2(fl(m / 6)). Dividing by a power of two is exact and commutes
    with rounding, so each sub-block is worked in units of its s0: v_i =
    |x_i| / s0, and fl(p_k |x_i|) / s0 = fl(p_k v_i).

    Scale regimes. The scale at code k is ceil_pow2(fl(fl(p_k m) / 6)). As
    fl(p_k m) <= 2m, it can only double, once, at the first k where
    fl(fl(p_k m) / 6) > s0, which is where fl(p_k m / s0) > 6: 6 s0 divides
    to s0 and the float after it to above s0. _first_past finds that k,
    ksw.

    Breakpoints. In regime r (scale 2^r s0) g_i(k) rounds u = fl(p_k v_i) /
    2^r, which is exact and monotone in k. formats._round_magnitude rounds
    it at the regime's first and last codes, without saturating: u <= 6. u
    grows by less than a factor of 2 in a regime, and midpoints two apart
    differ by a factor of at least 2, so an element crosses at most two
    midpoints per regime, the ones between its grid indices at the two
    ends. It crosses midpoint c_j at the first k with fl(p_k v_i) > 2^r
    _PASSED[j], which applies the tie table; _first_past finds it. Every
    g_i(k) is therefore the sweep's.

    Sums. Each element's s g_i(k) is its k = 0 value s0 g_i, plus s (g_{j+1}
    - g_j) at each crossing, plus, at ksw, the jump from its last regime-0
    value to its first regime-1 value. The k = 0 values and the jumps are
    summed once per sub-block. Those sums and the crossings are placed at
    their codes by one scatter-add for both sums, from workspace buffers
    that hold S2's weights in even slots and SX's in odd ones: the result
    is the complex array S2 + i SX, and one cumsum over k gives all 256
    codes. Every weight of one sub-block is a multiple of s^2/4 in S2, so
    S2 is exact for a macro of one sub-block.

    Every array is taken from work (a fresh workspace without one), so that
    the steps of one mbs_qdq call make them once, rather than faulting them
    in afresh on every step; S2 and SX view its "sums"."""
    work = _Workspace() if work is None else work
    n, S = sub_max.shape
    n_sub = n * S
    B = mag.shape[1] // S
    m = sub_max.ravel()
    s0, _, _ = ceil_scale_array(m / Q_MAX, 0)          # 1.0 on all-zero sub-blocks
    # |x| / s0, exact: s0 is a power of two
    v = np.multiply(mag.reshape(n_sub, B), (1.0 / s0)[:, None], out=work.take("v", (n_sub, B)))
    m = m / s0
    live = m > 0
    ksw = _first_past(np.where(live, m, Q_MAX), Q_MAX, np.empty(n_sub), work)
    ksw = np.where(live, ksw, MBS_LEVELS).astype(np.intp)   # nothing to switch
    scratch = work.take("scratch", v.shape, np.int64)

    def grid_value(name, p, regime):                   # s g / s0 at prescales p
        u = np.multiply(v, p * 0.5 ** regime, out=work.take(name, v.shape))
        _round_magnitude(u, scratch, saturate=False)
        u *= 2.0 ** regime
        return u

    def grid_index(name, value, regime):               # index of g from s g / s0
        halves = np.multiply(value, 2.0 ** (1 - regime), casting="unsafe",
                             out=work.take("halves", v.shape, np.int8))   # 2 g <= 12
        return np.take(_INDEX_BY_HALVES, halves, out=work.take(name, v.shape, np.int8),
                       mode="clip").ravel()

    # s g / s0 at the first and last code of each regime: k = 0, ksw - 1, ksw, 255
    start0 = grid_value("start0", 1.0, 0)
    end0 = grid_value("end0", _PRESCALES[ksw - 1][:, None], 0)
    start1 = grid_value("start1", _PRESCALES[ksw][:, None], 1)
    end1 = grid_value("end1", _PRESCALES[MBS_LEVELS - 1], 1)
    first0 = grid_index("first0", start0, 0)
    crossed0 = grid_index("crossed0", end0, 0)
    crossed0 -= first0
    first1 = grid_index("first1", start1, 1)
    crossed1 = grid_index("crossed1", end1, 1)
    crossed1 -= first1                                 # < 0 where ksw = 256

    # crossing c: element pos[c] crosses midpoint jj[c] = j + 7r of regime r
    lists = [(np.flatnonzero(crossed > t), first, regime * _N_MIDPOINTS + t)
             for regime, (crossed, first) in enumerate(((crossed0, first0),
                                                        (crossed1, first1)))
             for t in (0, 1)]
    n_cross = sum(len(p) for p, _, _ in lists)
    # int32: a step of mbs_qdq holds at most 2^13 macros, its positions and
    # its bins (below 2 * 257 * 2^13) stay far below 2^31
    pos = work.take("pos", (n_cross,), np.int32)
    jj = work.take("jj", (n_cross,), np.int8)
    at = 0
    for p, first, offset in lists:
        pos[at:at + len(p)] = p
        np.add(np.take(first, p), offset, out=jj[at:at + len(p)])
        at += len(p)
    v_c = np.take(v, pos, out=work.take("v_c", (n_cross,)), mode="clip")
    thr = np.take(_CROSS_THRESHOLDS, jj, out=work.take("thr", (n_cross,)), mode="clip")
    k = _first_past(v_c, thr, work.take("k", (n_cross,)), work)

    # The weights, and their bins 2 (macro * 257 + code) for S2 and the next
    # one for SX: first the crossings, then each sub-block's k = 0 sums and
    # its jumps at ksw. Bin 256 takes the jumps at ksw = 256 and is not read.
    # A crossing's weights are s0^2 times its steps and, for SX, v_c: s0^2
    # and the steps of s g / s0 are powers of two, so the order of the
    # products does not change their bits.
    nbins = MBS_LEVELS + 1
    bins = work.take("bins", (2, n_cross + 2 * n_sub), np.int32)
    w = work.take("w", (2, n_cross + 2 * n_sub))
    sub = np.floor_divide(pos, B, out=bins[0, :n_cross])
    w2 = np.take(s0 * s0, sub, out=w[0, :n_cross], mode="clip")
    wx = np.multiply(w2, v_c, out=w[1, :n_cross])
    steps = thr                                        # free since k is found
    wx *= np.take(_CROSS_STEPS, jj, out=steps, mode="clip")
    w2 *= np.take(_CROSS_SQ_STEPS, jj, out=steps, mode="clip")
    code_bin = bins[0]
    code_bin[:n_cross] //= S                           # sub-block -> macro
    code_bin[:n_cross] *= nbins
    np.add(code_bin[:n_cross], k, out=code_bin[:n_cross], casting="unsafe")
    sub_bin = code_bin[n_cross:].reshape(2, n_sub)     # [k = 0 or jump, sub-block]
    sub_bin[:] = np.arange(n_sub) // S * nbins
    sub_bin[1] += ksw
    code_bin *= 2
    np.add(code_bin, 1, out=bins[1])
    jump = np.subtract(start1, end0, out=end1)         # exact: multiples of 1/2
    np.add(start1, end0, out=start1)
    sub_w = w[:, n_cross:].reshape(2, 2, n_sub)        # [S2 or SX, k = 0 or jump, sub-block]
    np.einsum("ij,ij->i", start0, start0, out=sub_w[0, 0])
    np.einsum("ij,ij->i", start0, v, out=sub_w[1, 0])
    np.einsum("ij,ij->i", jump, start1, out=sub_w[0, 1])     # start1^2 - end0^2
    np.einsum("ij,ij->i", jump, v, out=sub_w[1, 1])
    sub_w *= s0 * s0
    sums = work.take("sums", (n, nbins), np.complex128)
    sums.fill(0.0)
    np.add.at(sums.reshape(-1).view(np.float64), bins.ravel(), w.ravel())
    np.cumsum(sums, axis=1, out=sums)
    return sums.real[:, :MBS_LEVELS], sums.imag[:, :MBS_LEVELS]


def _approx_errors(mag: np.ndarray, sub_max: np.ndarray,
                   work: _Workspace | None = None) -> tuple[np.ndarray, np.ndarray]:
    """(A, D): A, (n, 256), every trial's macro error at M = 0 in closed
    form, and D, (n, 1), one bound per macro on |A(k) - E(k)|, the distance
    from the value E that _trial_errors computes, for macros of magnitudes
    mag and sub-block maxima sub_max above _RANKED_FLOOR (or 0).

    With S2 and SX from _grid_sums, a_i = s g_i / p and X2 = sum x^2, the
    real error is

        e = sum (a_i - |x_i|)^2 = S2 / p^2 - 2 SX / p + X2,

    which costs O(macro + 256 sub-blocks) per macro instead of 256 trials.
    A = fl(fl(S2 fl(1/p^2)) - fl(SX fl(2/p))) + X2.

    Bound, with u = 2^-53, gamma_j = j u / (1 - j u), n = macro elements,
    and q_i = s g_i: g <= 2 fl(p |x|) / s for every grid value, so q_i / p
    <= 2(1 + u)|x_i|.

    - _trial_errors rounds q / p, the difference and the square, which
      moves each element's square by at most gamma_5 (q_i / p + |x_i|)^2,
      then sums n terms, in any order: |E - e| <= gamma_{n+4} 9(1 + u)^2
      X2. Underflow in its squares adds at most n 2^-1075, as it does to
      X2's, and the ranked floor puts each below 2^-21 n u X2: X2 >= m^2 >
      2^-251.
    - S2(k) and SX(k) are float sums of at most 6 weights per element (the
      k = 0 value, a jump, up to four crossings), in whatever order the
      sub-block sums, the scatter-add and the cumsum take them: an error of
      at most gamma_{6n} times the sum of the weights' magnitudes. The S2
      weights are exact, and an SX weight rounds at most once (fused
      products round less). The weights of an element telescope: their
      magnitudes add up to at most q_i(k)^2 + 2 q_i(ksw - 1)^2 <= 12 p^2
      (1 + u)^2 x_i^2 in S2 and 6 p (1 + u) x_i^2 in SX. Through 1/p^2 and
      2/p both errors are below gamma_{6n} 12 (1 + u)^4 X2.
    - fl(1/p^2), fl(2/p) and the two products add two roundings to each of
      S2 / p^2 and 2 SX / p, each at most 4(1 + u)^2 X2; the difference and
      the sum with X2 round once each, on at most 4(1 + u)^2 X2 and (1 +
      2u)^2 X2; X2 itself rounds n squares and n - 1 sums.

    To first order |A - E| <= (154 n + 57) u X2. D = c u X2 with c = 160 n +
    64: the slack covers the higher-order terms, the underflow and the
    rounding of D itself. The constant is derived, not tuned: a larger D
    would only widen the candidate set. A is formed in place of S2, in a
    view of work's "sums" (a fresh workspace without one): with the
    workspace of an mbs_qdq call, it is valid until that call's next step."""
    work = _Workspace() if work is None else work
    macro = mag.shape[1]
    s2, sx = _grid_sums(mag, sub_max, work)          # views of work's arrays
    s2 *= _INV_SQ_PRESCALES
    sx *= _TWO_INV_PRESCALES
    approx = np.subtract(s2, sx, out=s2)
    x2 = np.einsum("ij,ij->i", mag, mag)[:, None]
    approx += x2
    c = 160 * macro + 64
    return approx, (c * 2.0 ** -53) * x2


def _step_codes(mag: np.ndarray, sub_max: np.ndarray, macro_max: np.ndarray,
                mode: str, quant: BlockQuantConfig, work: _Workspace,
                out: np.ndarray) -> np.ndarray:
    """Codes of the macros of magnitudes mag = |x| with sub-block maxima
    sub_max and maxima macro_max, one step of mbs_qdq, and their |Q(p x) /
    p| rows into out: each live macro's x_hat is the row of its code, as
    _prescaled_qdq evaluated it, and no row is evaluated twice. All-zero
    macros get k = 0: every trial of theirs is 0.0 and errs by exactly 0.0.

    "closed_form" evaluates one row per macro, at _closed_form_codes,
    straight into out. In "exhaustive" the code is the argmin_k of the
    macro's _trial_errors value over all 256 prescales, ties to the
    smallest k, but not every trial is evaluated, and all-zero macros none,
    their rows of out untouched. At M = 0 (a power-of-two scale) and for
    macros whose sub-block maxima are above _RANKED_FLOOR (or 0), so that
    no code's scale is clamped, _approx_errors gives every code's
    error A(k) in closed form, in O(macro + 256 sub-blocks) per macro, with
    a rigorous bound D on |A(k) - E(k)|, where E is the float value
    _trial_errors computes. E(k*) <= E(k') for the k' minimizing A, so the
    code k* has A(k*) <= min A + 2D, and the float sum min A + 3D cannot
    round below that, as D exceeds its rounding. The codes at or below it
    are its candidates, argmin A among them; where a NaN in A or D leaves
    none, argmin A is the one candidate, so no macro is left without. A
    macro with one candidate, almost every macro, takes it without a trial:
    it is the 256-trial argmin. The rows of all such macros come from one
    _prescaled_qdq call, as in the closed form, straight into out when they
    are the whole step. At M > 0 the
    scale takes many values over k and s is no longer a power of two, so u
    = fl(p x) / s is rounded. There, and for the other macros, the
    candidates are all 256 codes: the sweep.

    Only the macros left in doubt, with two or more candidates, and the
    swept ones form a (macros, 256) bool mask, which _trial_errors
    evaluates chunk by chunk, by macro, then by k. Each macro keeps its
    first least error: in a chunk, the first trial at the macro's least,
    and a macro continued from the last chunk takes a later trial only at a
    strictly smaller error. So ties go to the smallest k, as an argmin over
    all 256 trials takes them, bit for bit, and the winner's row is copied
    out before the next chunk reuses its buffer: no error matrix or
    per-trial array outlives its chunk, and a step without such macros
    makes neither the mask nor the trials' buffers. Every array, those of
    _approx_errors included, lives in work."""
    if mode == "closed_form":
        k = _closed_form_codes(macro_max)
        _prescaled_qdq(mag, sub_max, _PRESCALES[k][:, None], quant, out, work)
        return k
    codes = np.zeros(len(mag), dtype=np.int64)
    left = macro_max > 0                               # live macros not yet decided
    doubt = np.empty(0, dtype=np.intp)                 # ranked macros left in doubt
    if quant.scale_mantissa_bits == 0:
        ranked = np.flatnonzero(
            left & ~((sub_max > 0) & (sub_max <= _RANKED_FLOOR)).any(axis=1))
        if len(ranked):
            sel = _all_or(ranked, len(mag))
            approx, bound = _approx_errors(mag[sel], sub_max[sel], work)
            best = approx.argmin(axis=1)
            top = approx[np.arange(len(best)), best][:, None] + 3.0 * bound
            near = np.less_equal(approx, top, out=work.take("near", approx.shape, bool))
            # one code at or below top is argmin A; none (a NaN) leaves argmin A.
            # Where two or more are, argmin A is one of them.
            alone = np.count_nonzero(near, axis=1) <= 1
            one = ranked[alone]
            codes[one] = best[alone]
            left[one] = False
            if len(one):
                sel = _all_or(one, len(mag))
                hat = out if len(one) == len(out) else work.take("hat", (len(one), mag.shape[1]))
                _prescaled_qdq(mag[sel], sub_max[sel], _PRESCALES[codes[one]][:, None],
                               quant, hat, work)
                if hat is not out:
                    out[one] = hat
            doubt = ranked[~alone]
    tried = np.flatnonzero(left)
    if not len(tried):
        return codes
    cand = work.take("cand", (len(tried), MBS_LEVELS), bool)
    cand.fill(True)
    if len(doubt):
        at = np.searchsorted(tried, doubt)
        cand[at] = near[~alone]
    sel = _all_or(tried, len(mag))
    mag, sub_max = mag[sel], sub_max[sel]
    k_best = np.zeros(len(mag), dtype=np.int64)
    hat = out if len(mag) == len(out) else work.take("hat", mag.shape)
    carry, least = -1, np.inf         # the last chunk's last macro and its least error
    for rows, k, errors, y in _trial_errors(mag, sub_max, cand, quant, work):
        # the chunk holds trials of the macros m0..m1 - 1, each at least one;
        # win is each one's first least
        m0, m1 = rows[0], rows[-1] + 1
        starts = np.searchsorted(rows, np.arange(m0, m1))
        low = np.minimum.reduceat(errors, starts)
        hits = np.flatnonzero(errors == low[rows - m0])
        win = hits[np.searchsorted(hits, starts)]
        if m0 == carry and not errors[win[0]] < least:  # the earlier k stands
            m0, win = m0 + 1, win[1:]
        np.take(k, win, out=k_best[m0:m1])
        np.take(y, win, axis=0, out=hat[m0:m1])
        if len(win):
            carry, least = m1 - 1, errors[win[-1]]
    if hat is not out:
        out[tried] = hat
    codes[tried] = k_best
    return codes


def _all_or(rows: np.ndarray, n: int) -> np.ndarray | slice:
    """rows, ascending indices below n, as an index: all of them as a
    slice, so that indexing by it views rather than copies."""
    return slice(None) if len(rows) == n else rows


def mbs_qdq(x: np.ndarray, mbs: MbsConfig, quant: BlockQuantConfig,
            mode: str = "exhaustive",
            work: _Workspace | None = None) -> tuple[np.ndarray, np.ndarray]:
    """MBS-corrected QDQ. Returns (x_hat, mantissa_codes); code count is
    ceil(n / macro) per innermost row, one uint8 each.

    One pass over steps of whole macros, about _STEP_ELEMS elements each.
    A step is blocked once, at the macro size; it takes its sub-block
    maxima and picks its codes, and its x_hat is the |Q(p x) / p| row of
    each macro at its code (_step_codes), then signed: a zero keeps the
    sign of its element, except in all-zero blocks, which are +0.0
    throughout.

    The domain is one for both modes: the coded scale of every sub-block at
    the largest prescale p_255 = 511/256 lies in E8M0's range. Past it
    ceil_scale_array's ValueError is raised, before the step's codes.

    Besides the input, the output and the codes, the working memory is
    that of one step, in work, which a caller running many small tensors
    or pieces can pass to every call: fresh step-sized buffers cost page
    faults. Each step is a phase of work (quantize._Workspace.reset), so no
    array the caller took from work before the call is valid after it."""
    x = np.asarray(x, dtype=np.float64)
    if x.size == 0:
        raise ValueError("empty tensor")
    if mode not in _MBS_MODES:
        raise ValueError(f"unknown MBS mode: {mode}")
    mbs.validate_against(quant)
    work = _Workspace() if work is None else work
    macro = mbs.macro_block_size
    n = x.shape[-1] if x.ndim else 1
    rows = x.reshape(-1, n)
    codes = np.empty((len(rows), -(-n // macro)), dtype=np.uint8)
    x_hat = np.empty(x.shape)
    hat_rows = x_hat.reshape(-1, n)
    for r, c, step in _row_pieces(rows, macro, _STEP_ELEMS):
        work.reset()                    # a step is a phase of work
        k = _mbs_step(step, macro, mode, quant, work, hat_rows[r, c])
        codes[r, c.start // macro:c.start // macro + k.shape[1]] = k
    return x_hat, codes.ravel()


def _mbs_step(step: np.ndarray, macro: int, mode: str, quant: BlockQuantConfig,
              work: _Workspace, out: np.ndarray) -> np.ndarray:
    """One step of mbs_qdq: the rows step, of whole macros, MBS-quantized
    into out, and their codes, (rows, macros per row). Its scratch is
    work's, and no array of work is referenced once it returns, so that the
    next step's reset can grow work's block without holding the old one."""
    B = quant.block_size
    view = block_view(step, BlockQuantConfig(block_size=macro), work)
    mag = view.mag
    sub_max = _block_maxima(mag, B).reshape(len(mag), -1)
    # the step's largest maximum has the largest coded scale at p_255;
    # Python floats take its product past the largest float without a warning
    top = float(view.m_b.max()) * float(_PRESCALES[MBS_LEVELS - 1])
    ceil_scale_array(top / Q_MAX, quant.scale_mantissa_bits)
    y = work.take("x_hat", mag.shape)
    k = _step_codes(mag, sub_max, view.m_b, mode, quant, work, y)
    np.copysign(y, view.blocks, out=y)
    zero = sub_max.ravel() == 0                  # all-zero blocks are +0.0
    if zero.any():
        y.reshape(-1, B)[zero] = 0.0
    out[...] = view.restore(y)
    return k.reshape(len(step), -1)


# --- outlier fallback ----------------------------------------------------------


@dataclass
class OfResult:
    x_hat: np.ndarray
    pass1: np.ndarray
    pass2: np.ndarray


def of_qdq(x: np.ndarray, of: OfConfig, quant: BlockQuantConfig,
           mbs: MbsConfig | None = None, mbs_mode: str = "exhaustive",
           work: _Workspace | None = None) -> OfResult:
    """Two-pass residual QDQ; both passes run MBS when mbs is given, else Q.
    The MBS passes share work (see mbs_qdq)."""
    x = np.asarray(x, dtype=np.float64)
    work = _Workspace() if work is None else work

    def q(t: np.ndarray) -> np.ndarray:
        if mbs is not None:
            return mbs_qdq(t, mbs, quant, mbs_mode, work)[0]
        return qdq_tensor(t, quant)

    pass1 = q(x)
    pass2 = q(x - pass1)
    return OfResult(pass1 + of.alpha * pass2, pass1, pass2)


# --- adaptive quantization noise -------------------------------------------------


def _noise_rng(seed: int, name: str) -> np.random.Generator:
    # keyed counter-based stream: independent of call order and worker split.
    # hashlib loads OpenSSL's libcrypto (about 3.6 MiB resident), so it is
    # imported here, where noise is keyed, not with the package: the other
    # commands never load it
    import hashlib

    digest = hashlib.sha256(f"{seed}:{name}".encode("utf-8")).digest()
    key = int.from_bytes(digest[:16], "little")
    return np.random.Generator(np.random.Philox(key=key))


def aqn_pieces(x, sigma: float, seed: int, multiplier: float = 1.0, name: str = ""):
    """x + N(0, (sigma * multiplier * rms(x))^2), elementwise, reproducible
    per (seed, name), as consecutive pieces of about quantize._STREAM_ELEMS
    elements: x's row-major elements, one piece after another, each in a
    buffer valid until the next. x is an array or a TensorSource, which is
    read piece by piece.

    Two passes over the pieces, so past x the memory is one piece. The first
    takes rms(x) = sqrt(sum x^2 / n), the sum a left-to-right sum of each
    piece's decompose._dot, whose bits do not depend on the BLAS thread
    count. A ValueError names x when sum x^2 overflows float64. The second
    draws each piece's noise from the keyed Philox stream into one buffer,
    in order: the draws are those of the whole tensor at once, bit for bit.
    sigma = 0 adds nothing and draws nothing."""
    if sigma < 0:
        raise ValueError("sigma must be >= 0")
    x = _as_tensor(x)
    if sigma == 0.0:
        for _, _, piece in _row_pieces(x, 1, _STREAM_ELEMS):
            yield piece
        return
    n2 = 0.0
    with np.errstate(over="ignore"):        # checked just below
        for _, _, piece in _row_pieces(x, 1, _STREAM_ELEMS):
            n2 += _dot(piece, piece)
    rms = math.sqrt(n2 / x.size)
    if not math.isfinite(rms):
        raise ValueError(f"squared norms overflow float64 on {name}")
    scale = sigma * multiplier * rms
    rng = _noise_rng(seed, name)
    work = _Workspace()
    for _, _, piece in _row_pieces(x, 1, _STREAM_ELEMS):
        noise = rng.standard_normal(out=work.take("noise", piece.shape))
        noise *= scale                      # in place: the bits of x + scale * noise
        yield np.add(piece, noise, out=noise)
