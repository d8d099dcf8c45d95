"""Quantization corrections: macro-block scaling, outlier fallback, and the
adaptive noise schedule.

Macro-block scaling (MBS) stores one extra 8-bit mantissa per macro block
(default 128 elements, four sub-blocks) and applies it as
prescale -> quantize -> postscale:

    x_hat = Q((1 + m) x) / (1 + m),   m = k / 256

Two selection modes for k:

- "exhaustive": argmin over all 256 codes of the macro reconstruction MSE,
  ties to the smallest k. Minimizes total error; does not specifically
  drive the scale ratio to 1.
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

from .formats import Q_MAX, ceil_scale_array
from .quantize import BlockQuantConfig, _deadzone, _scaled_round, block_view, qdq_views

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
_TRIAL_CHUNK_ELEMS = 1 << 17


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


def _qdq(x: np.ndarray, quant: BlockQuantConfig) -> np.ndarray:
    """Plain QDQ for the final MBS pass and both OF passes.

    quantize.qdq_tensor does the same; this copy calls qdq_views through
    this module, where perfbench counts corrections.qdq_blocks_per_macro.
    The exhaustive trials round through _scaled_round directly, so that
    count is macro / block_size (4 at the defaults), one final pass."""
    view = block_view(x, quant)
    qdq, _, _, _ = qdq_views(view, quant)
    return view.restore(qdq)


def _closed_form_codes(m_m: np.ndarray) -> np.ndarray:
    """k = floor((2^delta_M - 1) * 256) per macro max, 0 for all-zero macros."""
    f, _ = np.frexp(m_m / 6.0)
    gamma = np.where(f == 0.5, 1.0, 1.0 / np.where(f > 0, f, 1.0))
    k = np.floor((gamma - 1.0) * MBS_LEVELS).astype(np.int64)
    k = np.clip(k, 0, MBS_LEVELS - 1)
    return np.where(m_m > 0, k, 0)


def _exhaustive_codes(macros: np.ndarray, quant: BlockQuantConfig,
                      chunk_elems: int = _TRIAL_CHUNK_ELEMS) -> np.ndarray:
    """argmin_k of per-macro reconstruction MSE over all 256 prescales.

    Each trial is Q(p x) / p, rounded by the same _scaled_round that
    qdq_views uses, but only for Q: the trials never need Q* or the
    deadzone. Trial blocks are not built with block_view either. Their
    maxima come from the macro's own sub-block maxima, exactly: rounding is
    monotone, so fl(p * max|x_i|) = max fl(p * |x_i|), the maximum
    block_view would find on the prescaled block. That gives s_star and the
    ceiling scale of all 256 trials at 1/B of the cost, for any M. A
    prescale that overflows makes its sub-block maximum infinite, so
    checking the maxima rejects exactly the trials block_view rejected.

    Vectorized over (chunk, 256, macro) in chunks of about chunk_elems
    trial elements. The trials make a dozen elementwise passes over several
    live arrays of that size, so the chunk is sized for the cache, not for
    numpy's per-call overhead: at 2^17 each array is 1 MiB and the working
    set fits a 4 MiB L2. On a 2-core Xeon with 4 MiB L2 this loop took 1.0 s
    on 512x512 at 2^16 or 2^17, 1.3-1.7 s at 2^18 and 2.0-2.3 s at 2^23.
    argmin returns the first minimum, which is the smallest k."""
    n_macros, macro = macros.shape
    B = quant.block_size
    pres = 1.0 + np.arange(MBS_LEVELS) / MBS_LEVELS
    codes = np.empty(n_macros, dtype=np.int64)
    step = max(1, chunk_elems // (MBS_LEVELS * macro))
    for lo in range(0, n_macros, step):
        seg = macros[lo:lo + step]                                   # (c, macro)
        sub_max = np.abs(seg).reshape(len(seg), 1, -1, B).max(axis=3)
        with np.errstate(over="ignore"):                             # rejected just below
            m_b = (sub_max * pres[:, None]).ravel()                  # (c * 256 * macro / B,)
        if not np.isfinite(m_b).all():
            raise ValueError("non-finite input")
        s_dec, _, _ = ceil_scale_array(m_b / Q_MAX, quant.scale_mantissa_bits)
        trials = seg[:, None, :] * pres[:, None]                     # (c, 256, macro)
        y = _scaled_round(trials.reshape(-1, B), s_dec, m_b > 0).reshape(trials.shape)
        y /= pres[:, None]
        y -= seg[:, None, :]
        np.square(y, out=y)
        codes[lo:lo + step] = y.sum(axis=2).argmin(axis=1)
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
    return view.restore(_qdq(view.blocks * pres, quant) / pres), codes


# --- outlier fallback ----------------------------------------------------------


@dataclass
class OfResult:
    x_hat: np.ndarray
    pass1: np.ndarray
    pass2: np.ndarray
    alpha: float


def of_qdq(x: np.ndarray, of: OfConfig, quant: BlockQuantConfig,
           with_mbs: bool = False, mbs: MbsConfig | None = None,
           mbs_mode: str = "exhaustive") -> OfResult:
    """Two-pass residual QDQ; the same quantizer runs on both passes."""
    x = np.asarray(x, dtype=np.float64)

    def q(t: np.ndarray) -> np.ndarray:
        if with_mbs:
            return mbs_qdq(t, mbs or MbsConfig(), quant, mbs_mode)[0]
        return _qdq(t, quant)

    pass1 = q(x)
    pass2 = q(x - pass1)
    return OfResult(pass1 + of.alpha * pass2, pass1, pass2, of.alpha)


def dz_recovery_rate(x: np.ndarray, of_result: OfResult,
                     quant: BlockQuantConfig) -> dict[str, float]:
    """Deadzone occupancy before and after OF, both as fractions of all
    elements: before counts ideal-deadzone entries, after counts those of
    them whose reconstruction is still exactly zero."""
    view = block_view(x, quant)
    dead_flat = view.restore(_deadzone(view))
    recon = np.asarray(of_result.x_hat, dtype=np.float64)
    n = dead_flat.size
    before = float(dead_flat.sum()) / n
    after = float((dead_flat & (recon == 0.0)).sum()) / n
    return {"dz_rate_before": before, "dz_rate_after": after}


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
