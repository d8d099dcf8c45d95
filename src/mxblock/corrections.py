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
  switch, and only those changes are placed at their codes. On a 2048x2048
  Gaussian that costs about 7.8 times the split of the same tensor
  (decompose_tensor without errors; 2-core Xeon). A macro for which it
  leaves one code near the minimum, almost every macro, takes that code
  untried; only the codes of a macro left in doubt are quantized as
  trials. At M > 0 every code is a trial, O(256 macro) per macro.
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
quantized again for the output.

Outlier fallback (OF) runs the quantizer twice and blends the residual
pass: x_hat = Q(x) + alpha * Q(x - Q(x)). Deadzone values killed by pass 1
are usually representable in pass 2's finer scale.

A Correction is what the decomposition measures of either: MBS, OF, or OF
over MBS, with its settings checked when it is built. A macro's code and
x_hat depend on that macro alone, and OF's passes on one block (one macro
under MBS), so the decomposition runs a Correction piece by piece, on pieces
cut at whole units of its align, and never makes a full-size x_hat.

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
    _largest_scale,
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
    "Correction",
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
class Correction:
    """A correction of plain Q, measured by the decomposition against the
    same Q*(x) (decompose.decompose_quantizers, decompose_tensor):
    macro-block scaling (mbs), outlier fallback (of), or OF whose two passes
    run MBS (both). It checks itself when it is built, so an option error
    names no tensor: one of mbs and of at least, a known mbs_mode, and a
    macro size that divides by quant's block size."""

    quant: BlockQuantConfig
    mbs: MbsConfig | None = None
    of: OfConfig | None = None
    mbs_mode: str = "exhaustive"

    def __post_init__(self) -> None:
        if self.mbs is None and self.of is None:
            raise ValueError("a correction needs mbs or of")
        if self.mbs_mode not in _MBS_MODES:
            raise ValueError(f"unknown MBS mode: {self.mbs_mode}")
        if self.mbs is not None:
            self.mbs.validate_against(self.quant)

    @property
    def align(self) -> int:
        """Columns at whose multiples x may be cut into pieces: a macro
        block under MBS, else a block. x_hat is local to one of them, so
        qdq of the pieces is qdq of x, bit for bit."""
        return self.quant.block_size if self.mbs is None else self.mbs.macro_block_size

    def qdq(self, x: np.ndarray, work: _Workspace | None = None) -> np.ndarray:
        """x_hat of x, a new array of x's shape: of_qdq's when of is set,
        else mbs_qdq's. Its scratch is work's, in phases of its own."""
        if self.of is not None:
            return of_qdq(x, self.of, self.quant, self.mbs, self.mbs_mode, work).x_hat
        return mbs_qdq(x, self.mbs, self.quant, self.mbs_mode, work)[0]


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
        """Stage magnitudes sigma_start * (sigma_end/sigma_start)^(k/(K-1)).

        A ratio below the normal floats has lost bits, or underflowed to 0,
        which would make every later stage 0. Such a schedule takes the same
        geometric mean in the form sigma_start^(1 - t) sigma_end^t, t = k/(K-1),
        whose factors lie between each sigma and 1: no stage is 0, and the
        first and last are sigma_start and sigma_end exactly."""
        if self.num_stages == 1:
            return np.array([float(self.sigma_start)])
        t = np.arange(self.num_stages) / (self.num_stages - 1)
        ratio = self.sigma_end / self.sigma_start
        if ratio >= np.finfo(np.float64).tiny:
            return self.sigma_start * ratio ** t
        return np.float64(self.sigma_start) ** (1.0 - t) * np.float64(self.sigma_end) ** t

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
_GRID_STEPS = np.diff(GRID_MAGNITUDES)               # 0.5 ... 2: powers of two
_GRID_SQ_STEPS = np.diff(GRID_MAGNITUDES ** 2)
# u rounds above midpoint j exactly when u > _PASSED[j]: the midpoint where
# its tie stays at the even index j, the float just below it where the tie
# rounds up to the even index j + 1.
_PASSED = np.where(np.arange(len(GRID_MIDPOINTS)) % 2 == 1,
                   np.nextafter(GRID_MIDPOINTS, 0.0), GRID_MIDPOINTS)
_N_HALVES = 13                       # 2g + 1 for the largest grid value g = 6


def _crossing_tables() -> tuple[np.ndarray, np.ndarray]:
    """The crossings by key = h + 13 (r + 2t), for slot t (0 or 1) of an
    element in scale regime r (scale 2^r s0) whose grid value at the
    regime's first code has grid index i and is h / 2: it crosses midpoint
    j = i + t. In units of the sub-block's s0: 256 times the threshold on
    fl(p |x|) / s0, for _first_past, and the steps of (s g / s0)^2 + i s g /
    s0 there. Doubling and the scaling by 256 are exact; a key with no
    midpoint is never used."""
    thresholds = np.full((2, 2, _N_HALVES), np.inf)
    steps = np.zeros((2, 2, _N_HALVES), np.complex128)
    for t in (0, 1):
        i = np.arange(len(GRID_MIDPOINTS) - t)
        h = (2.0 * GRID_MAGNITUDES[i]).astype(np.intp)
        for r in (0, 1):
            thresholds[t, r, h] = MBS_LEVELS * 2.0 ** r * _PASSED[i + t]
            steps[t, r, h] = (4.0 ** r * _GRID_SQ_STEPS[i + t]
                              + 2.0 ** r * _GRID_STEPS[i + t] * 1j)
    return thresholds.ravel(), steps.ravel()


_CROSS_THRESHOLDS, _CROSS_STEPS = _crossing_tables()
# fl(1 / p^2) + i fl(2 / p) of every code, for _approx_errors
_RANK_WEIGHTS = 1.0 / _PRESCALES ** 2 + 2.0 / _PRESCALES * 1j
# Elements per step of mbs_qdq: code selection and x_hat alike. The
# workspace phase of an exhaustive step at M = 0 (macro 128, a Gaussian: 1.4
# crossings per element, every macro decided without a trial) is 12
# arrays, 1.37 MiB at 2^13 elements: the complex sums (257 KiB), the four
# regime ends and the rounding scratch (256 KiB each, whose regions then
# hold the crossings' values, thresholds, scales and codes), the weights
# (191 KiB), the codes' errors A (128 KiB) and the bins (96 KiB). That is
# under a 2 MiB L2 per core. At M = 3, where every code is a trial, it is
# 3.08 MiB, mostly _trial_errors' chunks. Each macro's code and x_hat do
# not depend on its step, so the step size moves no output bit. On a 2-core
# Xeon one exhaustive step of 64 macros took 0.66 ms, 0.17 ms of it fixed
# (a step of one macro), against 0.065 ms in closed form. Steps of 2^14
# elements amortize the fixed part: exhaustive mbs_qdq on 512x512 took 19.7
# ms against 22.8 ms (medians of 40 alternating calls), but its phase is
# 2.73 MiB and its peak past the output 3.13 MiB, against 1.58 MiB. In the
# mbs command the steps and the split's pieces (1.56 MiB) take one
# workspace block in turn, sized by the larger of the two.
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
    a time: at M > 0 a step has 256 per macro. Chunks of
    quantize._CHUNK_ELEMS would cut an M = 3 step's workspace phase on
    512x512 from 3.14 to 0.89 MiB, but were slower: mbs_qdq on a 2048x2048
    Gaussian at M = 3 took 8.65 s against 8.48 s (median of 3 alternating
    pairs, 2-core Xeon), and on 512x512 0.542 s against 0.549 s, faster in
    4 of 10 pairs."""
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
    """First code k with fl(p_k a) > T, elementwise, as float64 into out,
    for a > 0 whose first such code lies in [1, 256]. thr is 256 T, so that
    T / a is in [1, 2) and 256 T / a in [256, 512). a is overwritten.

    fl(y) > T exactly when y passes T's rounding boundary above it, within
    ulp(T) / 2 <= 2^-53 T of T, so the predicate first holds at the least
    integer at or past x', a real crossing within 2^-44 of x = (T / a - 1)
    256. q = fl(256 T / a) is within 2^-44 of 256 T / a, and taking 256 +
    2^-42 away from it is exact (Sterbenz: both lie in [256, 512]). So r' =
    q - 256 - 2^-42 lies in (x' - 1, x'), and the first code is f =
    floor(r') + 1 or f + 1. One evaluation of the sweep's own product
    settles which: it is f exactly when fl(p_f a) > T. 256 p_f = floor(r') +
    257 is an integer, and fl(256 p_f a) = 256 fl(p_f a) is compared with
    256 T, so nothing rounds but the product the sweep rounds too, and no
    code is looked up or clipped."""
    q = np.divide(thr, a, out=out)
    q -= MBS_LEVELS + 2.0 ** -42
    np.floor(q, out=q)
    q += MBS_LEVELS + 1                                # 256 p_f
    past = np.greater(np.multiply(q, a, out=a), thr,
                      out=work.take("past", a.shape, bool))
    q -= MBS_LEVELS - 1                                # f + 1
    q -= past
    return q


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
    2^r, which is exact and monotone in k. One formats._round_magnitude
    call rounds u at both ends of both regimes (k = 0, ksw - 1, ksw, 255),
    without saturating: u <= 6. Twice each rounded value is a small integer
    h, exactly. u grows by less than a factor of 2 in a regime, and
    midpoints two apart differ by a factor of at least 2, so an element
    crosses at most two midpoints per regime: one where h grows from the
    regime's first code to its last, two where it passes h + max(h / 2, 1),
    which lies from the next grid value up to below the one after. Crossing
    t (0 or 1) of regime r passes midpoint j = i + t, for i the grid index
    at the regime's first code, at the first k with fl(p_k v_i) > 2^r
    _PASSED[j], which applies the tie table; _first_past finds it, and the
    key h + 13 (r + 2t) picks its threshold and steps. Every g_i(k) is
    therefore the sweep's.

    Sums. Each element's s g_i(k) is its k = 0 value s0 g_i, plus s (g_{j+1}
    - g_j) at each crossing, plus, at ksw, the jump from its last regime-0
    value to its first regime-1 value. The k = 0 values and the jumps are
    summed once per sub-block. The crossings are listed by slot, regime and
    element, from one flatnonzero. They and the sub-block sums are placed
    at their codes by one complex scatter-add, S2's weight in the real part
    and SX's in the imaginary: the result is the complex array S2 + i SX,
    and one cumsum over k gives all 256 codes. A crossing's weights, s0^2
    times its steps and, for SX, times v, are exact: s0^2 and the steps of
    s g / s0 are powers of two. Every weight of one sub-block is a multiple
    of s^2/4 in S2, so S2 is exact for a macro of one sub-block.

    Every array is taken from work (a fresh workspace without one), so that
    the steps of one mbs_qdq call make them once, rather than faulting them
    in afresh on every step; S2 and SX view its "sums". Regions are reused
    once their arrays are spent: the four ends' region holds the crossings'
    values and thresholds, and the rounding scratch their scales and
    codes."""
    work = _Workspace() if work is None else work
    n, S = sub_max.shape
    n_sub = n * S
    B = mag.shape[1] // S
    N = n_sub * B
    m = sub_max.ravel()
    s0, _, _ = ceil_scale_array(m / Q_MAX, 0)          # 1.0 on all-zero sub-blocks
    # |x| / s0, exact: s0 is a power of two
    v = np.multiply(mag.reshape(n_sub, B), (1.0 / s0)[:, None], out=work.take("v", (n_sub, B)))
    s0sq = s0 * s0
    # m / s0 lies in (3, 6]. An all-zero sub-block is 0 at every code, so its
    # switch (here code 1) moves nothing.
    m = np.where(m > 0, m / s0, Q_MAX)
    ksw = _first_past(m, MBS_LEVELS * Q_MAX, np.empty(n_sub), work).astype(np.intp)

    # s g / s0 at the first and last code of each regime, regime 1 in units of
    # 2 s0: [first or last, regime], at k = 0, ksw and ksw - 1, 255
    g = work.take("ends", (2, 2, n_sub, B))
    np.copyto(g[0, 0], v)
    np.multiply(v, (_PRESCALES[ksw] * 0.5)[:, None], out=g[0, 1])
    np.multiply(v, _PRESCALES[ksw - 1][:, None], out=g[1, 0])
    np.multiply(v, _PRESCALES[MBS_LEVELS - 1] * 0.5, out=g[1, 1])
    scratch = work.take("scratch", g.shape, np.int64)
    _round_magnitude(g, scratch, saturate=False)
    # h, twice each grid value: 0, 1, 2, 3, 4, 6, 8 or 12
    h = np.multiply(g, 2.0, out=work.take("halves", g.shape, np.int8), casting="unsafe")
    first, d = h                                       # d: last - first, below
    np.subtract(d, first, out=d)
    # slot t of regime r holds a crossing where the element crosses t + 1
    # midpoints or more in that regime: d > 0, and 2d > max(first, 2)
    cross = work.take("cross", g.shape, bool)        # [slot, regime, sub-block, i]
    np.greater(d, 0, out=cross[0])
    d += d
    np.greater(d, np.maximum(first, 2, out=cross[1].view(np.int8)), out=cross[1])
    first[1] += _N_HALVES                              # the keys of slot 0

    # The weights S2 + i SX and their bins macro * 257 + code: first the
    # crossings, then each sub-block's k = 0 sums and its jumps at ksw, from
    # the last value of regime 0 to the first of regime 1. Bin 256 takes
    # the jumps at ksw = 256 and is not read.
    at = np.flatnonzero(cross)                         # by slot, regime, element
    nc = len(at)
    nbins = MBS_LEVELS + 1
    ne = nc + 2 * n_sub
    w = work.take("w", (ne,), np.complex128)
    bins = work.take("bins", (ne,), np.intp)
    g[0, 1] *= 2.0
    np.subtract(g[0, 1], g[1, 0], out=g[1, 1])         # jump, exact: multiples of 1/2
    np.add(g[0, 1], g[1, 0], out=g[0, 1])
    sub_w = w[nc:].reshape(2, n_sub)                   # [k = 0 or jump, sub-block]
    lhs = g.reshape(4, n_sub, B)[::3]                 # start0, jump
    np.einsum("rij,rij->ri", lhs, g[0], out=sub_w.real)  # start0^2, start1^2 - end0^2
    np.einsum("rij,ij->ri", lhs, v, out=sub_w.imag)
    sub_w.real *= s0sq
    sub_w.imag *= s0sq
    sub_bin = bins[nc:].reshape(2, n_sub)
    sub_bin[0] = np.arange(n_sub) // S * nbins
    np.add(sub_bin[0], ksw, out=sub_bin[1])

    # crossing c is slot t, regime r of the element at[c]
    r1, t1, r1t1 = np.searchsorted(at, (N, 2 * N, 3 * N))
    at[t1:] -= 2 * N                                   # index into (regime, element)
    key = np.take(first.reshape(-1), at, out=work.take("key", (nc,), np.int8), mode="clip")
    key[t1:] += 2 * _N_HALVES
    at[r1:t1] -= N                                     # index of the element
    at[r1t1:] -= N
    c = work.take("ends", (2, nc))                    # the ends are spent
    # mode="clip": with "raise", take buffers its out= through a copy
    v_c = np.take(v.reshape(-1), at, out=c[0], mode="clip")
    thr = np.take(_CROSS_THRESHOLDS, key, out=c[1], mode="clip")

    sub = np.floor_divide(at, B, out=bins[:nc])
    kc = work.take("scratch", (2, nc))                 # the rounding is done
    scale = np.take(s0sq, sub, out=kc[0], mode="clip")
    np.take(_CROSS_STEPS, key, out=w[:nc], mode="clip")
    w[:nc].real *= scale
    scale *= v_c
    w[:nc].imag *= scale
    sub //= S
    sub *= nbins
    k = _first_past(v_c, thr, kc[0], work)
    code = kc[1].view(np.intp)
    code[...] = k
    bins[:nc] += code
    sums = work.take("sums", (n, nbins), np.complex128)
    sums.fill(0.0)
    np.add.at(sums.reshape(-1), bins, w)
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
    A = fl(Re((S2 + i SX)(fl(1/p^2) + i fl(2/p))) + X2): one complex product
    in place over the sums, whose real part is fl(fl(S2 fl(1/p^2)) - fl(SX
    fl(2/p))), or the same with one product fused, and one sum with X2.

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
      k = 0 value, a jump, up to four crossings). _grid_sums adds them along
      one tree per code: each sub-block's k = 0 values and jumps in its
      einsum, then every weight at codes up to k, in the scatter-add's list
      order (crossings by slot, regime and element, then the sub-block
      sums) within a code and by the cumsum across codes. A float sum of
      at most 6n terms errs by at most gamma_{6n} times the sum of their
      magnitudes along any tree. The S2 weights are exact, and an SX weight
      rounds at most once, in its sub-block's product with v (a crossing's
      is exact). The weights of an element telescope: their magnitudes add
      up to at most q_i(k)^2 + 2 q_i(ksw - 1)^2 <= 12 p^2 (1 + u)^2 x_i^2
      in S2 and 6 p (1 + u) x_i^2 in SX. Through 1/p^2 and 2/p both errors
      are below gamma_{6n} 12 (1 + u)^4 X2.
    - fl(1/p^2), fl(2/p) and the two products add two roundings to each of
      S2 / p^2 and 2 SX / p, each at most 4(1 + u)^2 X2 (a fused product
      drops one); the difference and the sum with X2 round once each, on
      at most 4(1 + u)^2 X2 and (1 + 2u)^2 X2; X2 itself rounds n squares
      and n - 1 sums.

    To first order |A - E| <= (154 n + 57) u X2. D = c u X2 with c = 160 n +
    64: the slack covers the higher-order terms, the underflow and the
    rounding of D itself. The constant is derived, not tuned: a larger D
    would only widen the candidate set. A is one of work's arrays (a fresh
    workspace without one): with the workspace of an mbs_qdq call, it is
    valid until that call's next step."""
    work = _Workspace() if work is None else work
    n, macro = mag.shape
    _grid_sums(mag, sub_max, work)                     # S2 + i SX, in work's "sums"
    sums = work.take("sums", (n, MBS_LEVELS + 1), np.complex128)
    np.multiply(sums, _RANK_WEIGHTS, out=sums)
    x2 = np.einsum("ij,ij->i", mag, mag)[:, None]
    approx = work.take("approx", (n, MBS_LEVELS))
    np.copyto(approx, sums.real[:, :MBS_LEVELS])       # contiguous before the sum
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
    macro has one candidate, almost every macro, when no other code is at
    or below min A + 3D: A at argmin A is set to inf, and the least of the
    rest, by fmin, which skips a NaN, is compared once. Such a macro takes
    argmin A without a trial: it is the 256-trial argmin. The rows of all
    such macros come from one _prescaled_qdq call, as in the closed form,
    straight into out when they are the whole step. At M > 0 the scale
    takes many values over k and s is no longer a power of two, so u =
    fl(p x) / s is rounded. There, and for the other macros, the candidates
    are all 256 codes: the sweep.

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
            rows = np.arange(len(best))
            least = approx[rows, best]
            top = least + 3.0 * bound.ravel()
            approx[rows, best] = np.inf
            alone = ~(np.fmin.reduce(approx, axis=1) <= top)
            unsure = ~alone
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
            doubt = ranked[unsure]
    tried = np.flatnonzero(left)
    if not len(tried):
        return codes
    cand = work.take("cand", (len(tried), MBS_LEVELS), bool)
    cand.fill(True)
    if len(doubt):
        at = np.searchsorted(tried, doubt)
        near = np.less_equal(approx[unsure], top[unsure, None])
        near[np.arange(len(near)), best[unsure]] = least[unsure] <= top[unsure]
        cand[at] = near
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
    # Python floats take its product past the largest float without a
    # warning. The coder is called only to refuse it, with its own message
    top = float(view.m_b.max()) * float(_PRESCALES[MBS_LEVELS - 1]) / Q_MAX
    if top > _largest_scale(quant.scale_mantissa_bits):
        ceil_scale_array(top, quant.scale_mantissa_bits)
    # the rows go straight into out, unless the step's last macro is padded
    direct = out.flags.c_contiguous and not view.padded
    y = out.reshape(mag.shape) if direct else work.take("x_hat", mag.shape)
    k = _step_codes(mag, sub_max, view.m_b, mode, quant, work, y)
    np.copysign(y, view.blocks, out=y)
    zero = sub_max.ravel() == 0                  # all-zero blocks are +0.0
    if zero.any():
        y.reshape(-1, B)[zero] = 0.0
    if not direct:
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
