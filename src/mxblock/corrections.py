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
  in O(macro + 256 sub-blocks) per macro, and only the codes it cannot
  tell from the minimum, almost always one, are quantized as trials. At
  M > 0 every code is a trial, O(256 macro) per macro. Either way the
  code is the one that quantizing all 256 trials picks, bit for bit.
- "closed_form": k = floor((2^delta_M - 1) * 256) from the macro max.
  Floor, not nearest: rounding up would push the prescaled macro max past
  the next power of two and double the ceiling scale. This mode pins the
  macro-max block's scale ratio to within one mantissa step of 1.

Outlier fallback (OF) runs the quantizer twice and blends the residual
pass: x_hat = Q(x) + alpha * Q(x - Q(x)). Deadzone values killed by pass 1
are usually representable in pass 2's finer scale.

AQN adds seeded Gaussian weight noise at sigma * multiplier * rms(tensor),
decaying sigma exponentially over stages.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from .decompose import decompose_tensor
from .formats import (
    GRID_MAGNITUDES,
    GRID_MIDPOINTS,
    Q_MAX,
    ceil_scale_array,
    grid_index_array,
)
from .quantize import (
    _CHUNK_ELEMS,
    BlockQuantConfig,
    _scaled_round,
    _Workspace,
    block_view,
    qdq_tensor,
)

__all__ = [
    "MbsConfig",
    "OfConfig",
    "AqnSchedule",
    "OfResult",
    "mbs_select_mantissa",
    "mbs_qdq",
    "of_qdq",
    "dz_recovery_rate",
    "aqn_schedule",
    "aqn_apply",
]

MBS_LEVELS = 256
_MBS_MODES = ("exhaustive", "closed_form")


@dataclass(frozen=True)
class MbsConfig:
    macro_block_size: int = 128
    mantissa_levels: int = MBS_LEVELS

    def __post_init__(self) -> None:
        if self.macro_block_size < 1:
            raise ValueError("macro_block_size must be >= 1")
        if self.mantissa_levels != MBS_LEVELS:
            raise ValueError("mantissa_levels is fixed at 256 (one byte)")

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
    """Exponential decay sigma_start -> sigma_end over num_stages stages."""

    sigma_start: float = 0.01
    sigma_end: float = 0.001
    num_stages: int = 10
    multipliers: dict[str, float] = field(
        default_factory=lambda: {"post_attention_layernorm": 1.414})

    def __post_init__(self) -> None:
        if not (self.sigma_start >= self.sigma_end > 0):
            raise ValueError("need sigma_start >= sigma_end > 0")
        if self.num_stages < 1:
            raise ValueError("num_stages must be >= 1")

    def stage_sigmas(self) -> np.ndarray:
        return aqn_schedule(self.sigma_start, self.sigma_end, self.num_stages)

    def multiplier_for(self, name: str) -> float:
        for pattern, mult in self.multipliers.items():
            if pattern in name:
                return mult
        return 1.0


# --- macro-block scaling -------------------------------------------------------


def _closed_form_codes(m_m: np.ndarray) -> np.ndarray:
    """k = floor((2^delta_M - 1) * 256) per macro max, 0 for all-zero macros."""
    f, _ = np.frexp(m_m / 6.0)
    gamma = np.where(f == 0.5, 1.0, 1.0 / np.where(f > 0, f, 1.0))
    k = np.floor((gamma - 1.0) * MBS_LEVELS).astype(np.int64)
    k = np.clip(k, 0, MBS_LEVELS - 1)
    return np.where(m_m > 0, k, 0)


# p_k = 1 + k/256 for k = 0..256. p_256 = 2 is never a code: it caps the
# search ranges of _grid_sums.
_PRESCALES = 1.0 + np.arange(MBS_LEVELS + 1) / MBS_LEVELS
_GRID_STEPS = np.diff(GRID_MAGNITUDES)               # 0.5 ... 2: powers of two
_GRID_SQ_STEPS = np.diff(GRID_MAGNITUDES ** 2)
# u rounds above midpoint j exactly when u > _PASSED[j]: the midpoint where
# its tie stays at the even index j, the float just below it where the tie
# rounds up to the even index j + 1.
_PASSED = np.where(np.arange(len(GRID_MIDPOINTS)) % 2 == 1,
                   np.nextafter(GRID_MIDPOINTS, 0.0), GRID_MIDPOINTS)
# Macros whose nonzero magnitudes lie in this range take the closed form:
# every product, square and quotient that it and the sweep form is a normal
# float, the premise of the rounding bound in _approx_errors. Other macros
# are swept.
_CLOSED_FORM_RANGE = (2.0 ** -500, 2.0 ** 500)


def _trial_errors(macros: np.ndarray, sub_max: np.ndarray, rows: np.ndarray,
                  k: np.ndarray, quant: BlockQuantConfig,
                  work: _Workspace) -> np.ndarray:
    """Squared error sum(Q(p x) / p - x)^2 of trial i: macro macros[rows[i]]
    (sub-block maxima sub_max[rows[i]]) at code k[i]. The one evaluation of
    a trial, so its float64 value is that of every other caller.

    Q is the same _scaled_round that qdq_tensor uses. Trial blocks are not
    built with block_view. Their maxima come from the macro's own sub-block
    maxima, exactly: rounding is monotone, so fl(p * max|x_i|) = max fl(p *
    |x_i|), the maximum block_view would find on the prescaled block. That
    gives s_star and the ceiling scale of a trial at 1/B of the cost, for any
    M. Each trial is one row of macro elements and is summed along that row,
    so its pairwise summation does not depend on which other trials share
    the call. Runs in pieces of about quantize._CHUNK_ELEMS elements."""
    macro = macros.shape[1]
    B = quant.block_size
    errors = np.empty(len(rows))
    step = max(1, _CHUNK_ELEMS // macro)
    for lo in range(0, len(rows), step):
        r = rows[lo:lo + step]
        n = len(r)
        pres = _PRESCALES[k[lo:lo + step]][:, None]
        # mode="clip": with "raise", take buffers its out= through a copy
        x = np.take(macros, r, axis=0, out=work.take("x", (n, macro)), mode="clip")
        m_b = sub_max[r] * pres                                      # (n, macro / B)
        s_dec, _, _ = ceil_scale_array(m_b / Q_MAX, quant.scale_mantissa_bits)
        trials = np.multiply(x, pres, out=work.take("trials", (n, macro)))
        y = _scaled_round(trials.reshape(-1, B), s_dec.ravel(), m_b.ravel() > 0,
                          work.take("y", (n * macro // B, B)), work).reshape(n, macro)
        y /= pres
        y -= x
        np.square(y, out=y)
        errors[lo:lo + step] = y.sum(axis=1)
    return errors


def _grid_sums(macros: np.ndarray, B: int) -> tuple[np.ndarray, np.ndarray]:
    """(S2, SX), each (n, 256): sum (s g_i)^2 and sum s g_i |x_i| over each
    macro at every code at M = 0, where s is the element's sub-block scale
    and g_i its grid magnitude in the trial at that code.

    Scale regimes. A sub-block with maximum m has the ceiling scale s(k) =
    ceil_pow2(fl(fl(p_k m) / 6)). It starts at s0 = s(0) and, as fl(p_k m)
    <= 2m, can only double, once, at the first k where fl(fl(p_k m) / 6) >
    s0. That k, ksw, is found by bisection on the same expression.

    Breakpoints. Within a regime u_i(k) = fl(p_k |x_i|) / s is exact (s is a
    power of two) and monotone in k, and so is its grid index. u grows by
    less than a factor of 2 there, and midpoints two apart differ by a
    factor of at least 2, so an element crosses at most two midpoints per
    regime. It crosses midpoint c_j at the first k with u > _PASSED[j],
    which applies the tie table. The real crossing (c s / |x_i| - 1) * 256
    is within 1e-12 of the float one, so the first k is the estimate or a
    neighbour; u at estimate - 1 and at the estimate, evaluated as the sweep
    does, settles which. Every g_i(k) is therefore the sweep's.

    Sums. Each element's s g_i(k) is a sum of weights placed at codes: s0 g_i
    at k = 0, s0 (g_{j+1} - g_j) at each crossing, minus its last regime-0
    value at ksw, then 2 s0 g_i at ksw and the regime-1 crossings: at most 7
    weights. One bincount per sum over (macro, k) bins and a cumsum over k
    give all 256 codes. The weights of one sub-block are multiples of s^2/4
    in S2, so S2 is exact for a macro of one sub-block."""
    n, macro = macros.shape
    S = macro // B
    a = np.abs(macros).reshape(n * S, B)
    m = a.max(axis=1)
    s0, _, _ = ceil_scale_array(m / Q_MAX, 0)          # 1.0 on all-zero sub-blocks
    below, ksw = np.zeros_like(m, dtype=np.int64), np.full(m.shape, MBS_LEVELS)
    while (ksw - below > 1).any():                     # bisect: s(below) = s0 < s(ksw)
        mid = (below + ksw) // 2
        doubled = (_PRESCALES[mid] * m) / Q_MAX > s0
        ksw = np.where(doubled, mid, ksw)
        below = np.where(doubled, below, mid)
    nbins = MBS_LEVELS + 1                 # bin 256 takes ksw = 256's weights, unread
    first_bin = (np.arange(n * S) // S * nbins)[:, None]
    s2 = np.zeros(n * nbins)
    sx = np.zeros(n * nbins)

    def place(bins, sq, gx):
        s2[:] += np.bincount(bins.ravel(), sq.ravel(), minlength=n * nbins)
        sx[:] += np.bincount(bins.ravel(), gx.ravel(), minlength=n * nbins)

    for regime, (lo, hi, s) in enumerate(((np.zeros_like(ksw), ksw, s0),
                                          (ksw, np.full_like(ksw, MBS_LEVELS), 2.0 * s0))):
        s_col = s[:, None]
        start = grid_index_array((_PRESCALES[lo][:, None] * a) / s_col)
        end = grid_index_array((_PRESCALES[hi - 1][:, None] * a) / s_col)
        sg = GRID_MAGNITUDES[start] * s_col
        place(np.broadcast_to(first_bin + lo[:, None], a.shape), sg * sg, sg * a)
        if regime == 0:                                # its values end at ksw
            sg = GRID_MAGNITUDES[end] * s_col
            place(np.broadcast_to(first_bin + ksw[:, None], a.shape), -(sg * sg), -(sg * a))
        crossed = (end - start).ravel()
        for t in range(int(crossed.max(initial=0))):
            idx = np.flatnonzero(crossed > t)
            sub = idx // B
            j = start.ravel()[idx] + t
            aj, sj, thr = a.ravel()[idx], s[sub], _PASSED[j]

            def past(k):
                return (_PRESCALES[k] * aj) / sj > thr

            k = np.floor((thr * sj / aj - 1.0) * MBS_LEVELS).astype(np.int64) + 1
            k = np.clip(k, lo[sub] + 1, hi[sub] - 1)
            k = np.where(past(k - 1), k - 1, np.where(past(k), k, k + 1))
            place(first_bin[sub, 0] + k, _GRID_SQ_STEPS[j] * (sj * sj),
                  (_GRID_STEPS[j] * sj) * aj)
    return tuple(np.cumsum(h.reshape(n, nbins)[:, :MBS_LEVELS], axis=1) for h in (s2, sx))


def _approx_errors(macros: np.ndarray, B: int) -> tuple[np.ndarray, np.ndarray]:
    """(A, D), each (n, 256): every trial's macro error at M = 0 in closed
    form, and a bound D >= |A - E| + 2u(|A| + D) on its distance from the
    value E that _trial_errors computes. Needs nonzero magnitudes within
    _CLOSED_FORM_RANGE.

    With S2 and SX from _grid_sums, a_i = s g_i / p and X2 = sum x^2, the
    real error and its scale are

        e = sum (a_i - |x_i|)^2 = S2 / p^2 - 2 SX / p + X2,
        W = sum (a_i + |x_i|)^2 = S2 / p^2 + 2 SX / p + X2,

    which costs O(macro + 256 sub-blocks) per macro instead of 256 trials.
    Bound, with u = 2^-53 and gamma_j = j u / (1 - j u), counting rounded
    operations (n = macro elements):

    - _trial_errors rounds y = q / p, y - x and the square (q = s g is
      exact), which moves each element's square by at most gamma_5 (a_i +
      |x_i|)^2, then sums n terms along a tree of depth at most n - 1:
      |E - e| <= gamma_{n+4} W.
    - S2 and SX each sum at most 7 weights per element, at most one rounded
      product each, so they are off by gamma_{7n} times the sum of the
      weights' magnitudes. The negative weights remove regime-0 values:
      g <= 2u for every grid value and fl(p |x|) <= 2|x|, so s0 g <= 4|x|
      and they total at most 4 X2 in SX and 16 X2 in S2. The divisions by
      p^2 (exact) and p, t1 - t2 and + X2 add one rounding each; X2 itself
      rounds n squares and n - 1 sums. So |A - e| <= gamma_{7n+3} V, with
      V = S2 / p^2 + 2 SX / p + 49 X2 >= W.
    - Rounding V and c u V moves D by less than u V (1 in c); rounding A - D
      and A + D needs 2u(|A| + D) <= 3u V (3 in c); underflow in the sweep's
      squares adds below 2^-1074 per element, less than u V given the range
      (1 in c).

    So D = c u V with c = 8n + 12. The constant is derived, not tuned: a
    larger D would only widen the candidate set."""
    macro = macros.shape[1]
    s2, sx = _grid_sums(macros, B)
    pres = _PRESCALES[:MBS_LEVELS]
    t1 = s2 / (pres * pres)
    t2 = 2.0 * sx / pres
    x2 = np.square(macros).sum(axis=1)[:, None]
    c = 8 * macro + 12
    return (t1 - t2) + x2, (c * 2.0 ** -53) * ((t1 + t2) + 49.0 * x2)


def _exhaustive_codes(macros: np.ndarray, quant: BlockQuantConfig) -> np.ndarray:
    """argmin_k of per-macro reconstruction MSE over all 256 prescales, ties
    to the smallest k: the code of the trial with the smallest
    _trial_errors value.

    Not every trial is evaluated. At M = 0 (a power-of-two scale) and for
    macros within _CLOSED_FORM_RANGE, _approx_errors gives every code's
    error A(k) in closed form, in O(macro + 256 sub-blocks) per macro, with
    a rigorous bound D(k) on |A(k) - E(k)|, where E is the float value
    _trial_errors computes. The codes k with A(k) - D(k) <= min(A + D)
    include the argmin of E, since E(k*) <= E(k') for the k' minimizing A +
    D. Those candidates, almost always one per macro, are then evaluated
    with _trial_errors, and the argmin of their E is taken with ties to the
    smallest k. The code is therefore that of evaluating all 256 trials,
    bit for bit.

    At M > 0 the scale takes many values over k and s is no longer a power
    of two, so u = fl(p x) / s is rounded. There, and for macros outside the
    range, the candidates are all 256 codes: the sweep. All-zero macros get
    k = 0 unevaluated; every trial error on them is exactly 0.0.

    Works in chunks of quantize._CHUNK_ELEMS / (8 macro) macros: the closed
    form places up to 7 weights per element, so each chunk's arrays stay
    cache-sized, as the trials' pieces do."""
    n_macros, macro = macros.shape
    B = quant.block_size
    subs = macros.reshape(n_macros, -1, B)
    sub_max = np.maximum(subs.max(axis=2), -subs.min(axis=2))
    with np.errstate(over="ignore"):                 # overflow is rejected just below
        if not np.isfinite(sub_max * _PRESCALES[MBS_LEVELS - 1]).all():
            raise ValueError("non-finite input")
    codes = np.zeros(n_macros, dtype=np.int64)
    live = np.flatnonzero(sub_max.max(axis=1) > 0)
    closed = quant.scale_mantissa_bits == 0
    step = max(1, _CHUNK_ELEMS // (8 * macro))
    work = _Workspace()
    for lo in range(0, len(live), step):
        idx = live[lo:lo + step]
        seg = macros[idx]
        cand = np.ones((len(seg), MBS_LEVELS), dtype=bool)
        if closed:
            mag = np.abs(seg)
            ok = ((sub_max[idx].max(axis=1) <= _CLOSED_FORM_RANGE[1])
                  & ~((mag > 0) & (mag < _CLOSED_FORM_RANGE[0])).any(axis=1))
            if ok.any():
                approx, bound = _approx_errors(seg[ok], B)
                cand[ok] = approx - bound <= (approx + bound).min(axis=1, keepdims=True)
        rows, k = np.nonzero(cand)
        err = np.full(cand.shape, np.inf)
        err[rows, k] = _trial_errors(seg, sub_max[idx], rows, k, quant, work)
        codes[idx] = err.argmin(axis=1)
    return codes


def mbs_select_mantissa(macro_block: np.ndarray, mbs: MbsConfig,
                        quant: BlockQuantConfig, mode: str = "exhaustive") -> int:
    """Mantissa code for one macro block: the one mbs_qdq picks for it."""
    macro_block = np.asarray(macro_block, dtype=np.float64)
    if macro_block.ndim != 1 or not 1 <= macro_block.size <= mbs.macro_block_size:
        raise ValueError("macro block must be 1-D with 1..macro_block_size elements")
    return int(mbs_qdq(macro_block, mbs, quant, mode)[1][0])


def mbs_qdq(x: np.ndarray, mbs: MbsConfig, quant: BlockQuantConfig,
            mode: str = "exhaustive") -> tuple[np.ndarray, np.ndarray]:
    """MBS-corrected QDQ. Returns (x_hat, mantissa_codes); code count is
    ceil(n / macro) per innermost row."""
    if mode not in _MBS_MODES:
        raise ValueError(f"unknown MBS mode: {mode}")
    mbs.validate_against(quant)
    view = block_view(x, BlockQuantConfig(block_size=mbs.macro_block_size))
    if mode == "closed_form":
        codes = _closed_form_codes(view.m_b)
    else:
        codes = _exhaustive_codes(view.blocks, quant)
    pres = (1.0 + codes / MBS_LEVELS)[:, None]
    return view.restore(qdq_tensor(view.blocks * pres, quant) / pres), codes


# --- outlier fallback ----------------------------------------------------------


@dataclass
class OfResult:
    x_hat: np.ndarray
    pass1: np.ndarray
    pass2: np.ndarray


def of_qdq(x: np.ndarray, of: OfConfig, quant: BlockQuantConfig,
           mbs: MbsConfig | None = None, mbs_mode: str = "exhaustive") -> OfResult:
    """Two-pass residual QDQ; both passes run MBS when mbs is given, else Q."""
    x = np.asarray(x, dtype=np.float64)

    def q(t: np.ndarray) -> np.ndarray:
        if mbs is not None:
            return mbs_qdq(t, mbs, quant, mbs_mode)[0]
        return qdq_tensor(t, quant)

    pass1 = q(x)
    pass2 = q(x - pass1)
    return OfResult(pass1 + of.alpha * pass2, pass1, pass2)


def dz_recovery_rate(x: np.ndarray, of_result: OfResult,
                     quant: BlockQuantConfig) -> dict[str, float]:
    """Deadzone occupancy before and after OF, as fractions of all elements:
    dz_fraction and dz_zero_fraction of the OF output's decomposition."""
    d = decompose_tensor(x, quant, keep_errors=False, x_hat=of_result.x_hat)
    return {"dz_rate_before": d.dz_fraction, "dz_rate_after": d.dz_zero_fraction}


# --- adaptive quantization noise -------------------------------------------------


def aqn_schedule(sigma_start: float, sigma_end: float, num_stages: int) -> np.ndarray:
    """Stage magnitudes sigma_start * (sigma_end/sigma_start)^(k/(K-1))."""
    if not (sigma_start >= sigma_end > 0):
        raise ValueError("need sigma_start >= sigma_end > 0")
    if num_stages < 1:
        raise ValueError("num_stages must be >= 1")
    if num_stages == 1:
        return np.array([float(sigma_start)])
    k = np.arange(num_stages)
    return sigma_start * (sigma_end / sigma_start) ** (k / (num_stages - 1))


def _noise_rng(seed: int, name: str) -> np.random.Generator:
    # keyed counter-based stream: independent of call order and worker split
    digest = hashlib.sha256(f"{seed}:{name}".encode("utf-8")).digest()
    key = int.from_bytes(digest[:16], "little")
    return np.random.Generator(np.random.Philox(key=key))


def aqn_apply(x: np.ndarray, sigma: float, seed: int,
              multiplier: float = 1.0, name: str = "") -> np.ndarray:
    """x + N(0, (sigma * multiplier * rms(x))^2), elementwise, reproducible
    per (seed, name)."""
    if sigma < 0:
        raise ValueError("sigma must be >= 0")
    x = np.asarray(x, dtype=np.float64)
    if sigma == 0.0:
        return x.copy()
    rms = float(np.sqrt(np.mean(x * x)))
    noise = _noise_rng(seed, name).standard_normal(x.shape)
    return x + (sigma * multiplier * rms) * noise
