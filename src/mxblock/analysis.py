"""Statistical studies built on the block quantizer.

Covers the scale-ratio distribution (delta and gamma per block), the
cumulative scale-bias sum across layers, noise-induced effective softmax
temperature (closed form and quadrature fit), GEMM-level propagation of
the decomposed error, effective rank, and the block-size dependence of
the scale/grid cross term.

All Monte-Carlo paths are seed-deterministic: one generator per call,
fixed evaluation order, chunked only along axes that do not change the
draw sequence.
"""

from __future__ import annotations

import math
from collections.abc import Mapping, Sequence
from dataclasses import dataclass

import numpy as np

from .corrections import AqnSchedule, MbsConfig, mbs_qdq
from .decompose import (
    _SUM_PAIRS,
    InvariantViolation,
    _as_tensor,
    _dot,
    _expansion_residual,
    _naming,
    _row_pieces,
    decompose_tensor,
)
from .formats import ceil_scale_array
from .quantize import (
    _CHUNK_ELEMS,
    _STREAM_ELEMS,
    BlockQuantConfig,
    _below_threshold,
    _Workspace,
    _blocks_per_row,
    block_view,
)
from .tensorstore import TensorSource, TensorStoreError, _empty

__all__ = [
    "GammaStats",
    "TempFit",
    "GemmPropagation",
    "gamma_stats",
    "cumulative_scale_bias",
    "effective_temperature_predict",
    "effective_temperature_fit",
    "aqn_total_noise",
    "gemm_error_propagation",
    "effective_rank",
    "deadzone_truncate",
    "cross_term_vs_blocksize",
]

_HIST_BINS = 100


# --- scale-ratio statistics ------------------------------------------------------


@dataclass
class GammaStats:
    """Per-block scale overshoot: delta = log2 s - log2 s*, for s the block's
    coded scale, and gamma = 2^delta. The histogram's last bin also counts
    every delta above 1, which only a block whose scale E8M0 clamps to
    2^-127 can have, so its counts add up to n_blocks."""

    delta: np.ndarray
    mean_delta: float
    mean_gamma: float
    rmse_gamma_minus_1: float
    rms_delta: float
    histogram: np.ndarray
    bin_edges: np.ndarray
    n_blocks: int
    skipped_blocks: int

    def summary_dict(self) -> dict:
        return {
            "mean_delta": self.mean_delta,
            "mean_gamma": self.mean_gamma,
            "rmse_gamma_minus_1": self.rmse_gamma_minus_1,
            "rms_delta": self.rms_delta,
            "n_blocks": self.n_blocks,
            "skipped_blocks": self.skipped_blocks,
            "histogram": [int(c) for c in self.histogram],
            "bin_edges": [float(e) for e in self.bin_edges],
        }


def _as_tensors(tensors) -> list:
    """(name, tensor) pairs: a mapping's in sorted-name order, with the
    names None for an array or a sequence."""
    if isinstance(tensors, (np.ndarray, TensorSource)):
        return [(None, _as_tensor(tensors))]
    if isinstance(tensors, Mapping):
        return [(k, _as_tensor(tensors[k])) for k in sorted(tensors)]
    return [(None, _as_tensor(t)) for t in tensors]


def gamma_stats(tensors, config: BlockQuantConfig | None = None,
                min_blocks: int = 1000) -> GammaStats:
    """Distribution of the coded-scale overshoot across blocks.

    Accepts one array, a sequence of arrays, or a name-to-array mapping
    (mappings are walked in sorted-name order); tensorstore.TensorSources
    may stand in for arrays. Each tensor is read in the decomposition's
    pieces, which hold whole blocks, so the per-block deltas are those of
    the whole tensor, in its order; one workspace holds every piece's
    |blocks|, as in decompose_tensor. All-zero blocks carry no scale and are
    skipped; the count is reported. Requires at least min_blocks live blocks.

    The coded scale s is formats.ceil_scale_array's at the config's scale
    mantissa width, as every quantizer codes it: at M > 0 the overshoot is
    below log2(1 + 2^-M), a block scale below 2^-127 is coded as 2^-127,
    and one past E8M0's range is a ValueError, which names the tensor of a
    mapping. At M = 0 inside the range, log2 s is ceil(log2 s*).
    """
    config = config or BlockQuantConfig()
    tensors = _as_tensors(tensors)
    widths = [x.shape[-1] if x.ndim else 1 for _, x in tensors]
    # room for a delta per block, filled piece by piece by the live blocks
    delta = np.empty(sum(x.size // n * _blocks_per_row(n, config.block_size)
                         for (_, x), n in zip(tensors, widths)))
    # zero counts, and the edges every call with this range returns
    hist, edges = np.histogram(delta[:0], bins=_HIST_BINS, range=(0.0, 1.0))
    live = skipped = 0
    work = _Workspace()
    for name, x in tensors:
        with _naming(name):
            for _, _, piece in _row_pieces(x, config.block_size):
                view = block_view(piece, config, work)
                s_star = view.s_star[view.nonzero]
                skipped += view.nonzero.size - s_star.size
                s_dec, _, _ = ceil_scale_array(s_star, config.scale_mantissa_bits)
                d = np.log2(s_dec, out=delta[live:live + s_star.size])
                d -= np.log2(s_star)
                live += d.size
                # counted piece by piece: np.histogram's temporaries grow with
                # its input up to 2^16 elements. A delta above 1 goes to the
                # last bin, which holds 1 itself
                hist += np.histogram(np.minimum(d, 1.0), bins=_HIST_BINS,
                                     range=(0.0, 1.0))[0]
    delta = delta[:live]
    if live < min_blocks:
        raise ValueError(f"need at least {min_blocks} live blocks, got {live}")
    # gamma, then (gamma - 1)^2, then delta^2, in one scratch array
    scratch = np.exp2(delta)
    mean_gamma = float(scratch.mean())
    scratch -= 1.0
    rmse_gamma_minus_1 = float(np.sqrt(np.square(scratch, out=scratch).mean()))
    rms_delta = float(np.sqrt(np.square(delta, out=scratch).mean()))
    return GammaStats(
        delta=delta,
        mean_delta=float(delta.mean()),
        mean_gamma=mean_gamma,
        rmse_gamma_minus_1=rmse_gamma_minus_1,
        rms_delta=rms_delta,
        histogram=hist,
        bin_edges=edges,
        n_blocks=live,
        skipped_blocks=skipped,
    )


def cumulative_scale_bias(layers: int, delta_sampler="uniform",
                          trials: int = 100_000, seed: int = 0,
                          delta_mode: str = "per_layer",
                          blocks_per_layer: int = 1) -> dict:
    """Monte-Carlo distribution of the summed per-layer scale overshoot.

    Simulates S = sum_l delta_l over `layers` layers and reports the mean
    and standard deviation of S against the uniform-sampler theory value
    sqrt(layers/12). Two aggregation modes, since a layer holds many
    blocks and no single reduction is canonical:

    - "per_layer": one delta draw per layer.
    - "block_mean": mean of blocks_per_layer draws per layer (narrows the
      sum by sqrt(blocks_per_layer)).

    The one-sigma multiplicative band around the centered sum is reported
    in both base-2 and base-e forms; a band of e^(+/-std) on a sum of
    base-2 exponents corresponds to reading the sum in natural-log units.
    """
    if layers < 1:
        raise ValueError("layers must be >= 1")
    if trials < 1000:
        raise ValueError("trials must be >= 1000")
    if delta_mode not in ("per_layer", "block_mean"):
        raise ValueError(f"unknown delta_mode: {delta_mode}")
    if blocks_per_layer < 1:
        raise ValueError("blocks_per_layer must be >= 1")
    rng = np.random.default_rng(seed)
    if delta_sampler == "uniform":
        sampler = lambda g, shape: g.random(shape)
    elif callable(delta_sampler):
        sampler = delta_sampler
    else:
        raise ValueError("delta_sampler must be 'uniform' or a callable(rng, shape)")

    per_draw = layers if delta_mode == "per_layer" else layers * blocks_per_layer
    step = max(1, int(2e7) // per_draw)
    sums = _empty((trials,), f"{trials} trials")
    for lo in range(0, trials, step):
        n = min(step, trials - lo)
        if delta_mode == "per_layer":
            d = np.asarray(sampler(rng, (n, layers)), dtype=np.float64)
        else:
            d = np.asarray(sampler(rng, (n, layers, blocks_per_layer)),
                           dtype=np.float64).mean(axis=2)
        sums[lo:lo + n] = d.sum(axis=1)

    std = float(sums.std(ddof=1))
    return {
        "layers": layers,
        "trials": trials,
        "delta_mode": delta_mode,
        "blocks_per_layer": blocks_per_layer,
        "mean_sum": float(sums.mean()),
        "std_sum": std,
        "theory_std": math.sqrt(layers / 12.0),
        "band_pow2": (2.0 ** -std, 2.0 ** std),
        "band_exp": (math.exp(-std), math.exp(std)),
    }


# --- effective temperature -------------------------------------------------------


def effective_temperature_predict(sigma_eta_sq: float, var_delta_ell: float) -> float:
    """Closed form sqrt(1 + 2 sigma_eta^2 / Var(delta ell)); always >= 1."""
    if sigma_eta_sq < 0 or var_delta_ell < 0:
        raise ValueError("variances must be >= 0")
    if var_delta_ell == 0:
        raise ValueError("degenerate policy")
    return math.sqrt(1.0 + 2.0 * sigma_eta_sq / var_delta_ell)


@dataclass
class TempFit:
    """One temperature fit. ``draws`` is the Monte-Carlo sample count behind
    ``entropy_noised``; the pairwise preferences that set ``t_hat`` come from
    quadrature and do not depend on it. ``t_hat_at_bound`` is true when the
    search stopped within its tolerance of an end of its last bracket, T =
    0.5 or 1e6: ``t_hat`` is then that end, not a minimum of the KL."""

    t_hat: float
    t_predicted: float
    var_delta_ell: float
    sigma_eta: float
    n_pairs: int
    draws: int
    entropy_clean: float
    entropy_noised: float
    kl_min: float
    t_hat_at_bound: bool = False


def _sigmoid(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """0.5 (1 + tanh(x / 2)), written into out when given; out may be x."""
    out = np.multiply(x, 0.5, out=out)
    np.tanh(out, out=out)
    out += 1.0
    out *= 0.5
    return out


# Half-width of the trapezoid rule in _pair_preference: the N(0, 1) mass
# beyond |z| = 9 is 2.3e-19.
_Z_MAX = 9.0


def _pair_nodes(sigma_eta: float) -> float:
    """Node count 2 floor(z_max / h) + 1 of _pair_preference's rule, with
    z_max / h = 2 z_max max(1, s) taken in floats: inf once s overflows, so a
    caller can bound it before building the rule."""
    return 2.0 * np.floor(2.0 * _Z_MAX * max(1.0, math.sqrt(2.0) * sigma_eta)) + 1.0


def _pair_preference(dl: np.ndarray, sigma_eta: float) -> np.ndarray:
    """E[sigmoid(dl + s Z)], Z ~ N(0, 1), s = sqrt(2) sigma_eta, per element
    of dl: a pair's preference averaged over the N(0, 2 sigma_eta^2) noise on
    its logit difference.

    Trapezoid rule in z with step h = min(0.5, 0.5 / s) on |z| <= 9 and
    weights h phi(z). The integrand is smooth and its Gaussian factor decays
    fast, so the rule converges geometrically in 1/h. Against scipy's adaptive
    quad the worst error was 3e-15 for sigma_eta from 0.05 to 100. It takes
    37 nodes up to s = 1 and about 36 s above that. Pairs go through one
    reused (pairs, nodes) buffer of about quantize._CHUNK_ELEMS elements, the
    split's L2-sized piece; each pair's nodes are summed in one row of it, so
    the tile changes no bit."""
    s = math.sqrt(2.0) * sigma_eta
    h = 0.5 / max(1.0, s)
    k = int(_pair_nodes(sigma_eta)) // 2
    z = h * np.arange(-k, k + 1)
    weights = (h / math.sqrt(2.0 * math.pi)) * np.exp(-0.5 * z * z)
    shifts = s * z
    p_bar = np.empty(dl.size)
    rows = max(1, _CHUNK_ELEMS // shifts.size)
    buf = np.empty((min(rows, dl.size), shifts.size))
    for lo in range(0, dl.size, rows):
        p = buf[:min(rows, dl.size - lo)]
        np.add(dl[lo:lo + rows, None], shifts, out=p)
        _sigmoid(p, out=p)
        p *= weights
        p.sum(axis=1, out=p_bar[lo:lo + rows])
    return p_bar


def _kl_objective(p: np.ndarray, dl: np.ndarray):
    """log T -> sum KL(Bernoulli(p) || Bernoulli(q)) with q = sigmoid(dl / T),
    p and q clipped to [eps, 1 - eps]; p is clipped in place, once. A call
    forms q and 1 - p in tiles of quantize._CHUNK_ELEMS pairs, in two tile
    buffers, and writes each tile's terms into one scratch array of p's
    size, which it sums once: the tile changes no bit of the value, and a
    call makes no pair-sized temporary."""
    eps = 1e-15
    np.clip(p, eps, 1.0 - eps, out=p)
    terms = np.empty_like(p)
    tile = min(_CHUNK_ELEMS, p.size)
    q_buf, c_buf = np.empty(tile), np.empty(tile)

    def objective(log_t: float) -> float:
        t = math.exp(log_t)
        for lo in range(0, p.size, tile):
            p_t, term = p[lo:lo + tile], terms[lo:lo + tile]
            q, p_c = q_buf[:p_t.size], c_buf[:p_t.size]
            np.divide(dl[lo:lo + tile], t, out=q)
            _sigmoid(q, out=q)
            # p log(p / q) + p_c log(p_c / (1 - q)), in that operation order
            np.clip(q, eps, 1.0 - eps, out=q)
            np.divide(p_t, q, out=term)
            np.log(term, out=term)
            np.multiply(term, p_t, out=term)
            np.subtract(1.0, p_t, out=p_c)
            np.subtract(1.0, q, out=q)
            np.divide(p_c, q, out=q)
            np.log(q, out=q)
            np.multiply(q, p_c, out=q)
            np.add(term, q, out=term)
        return float(terms.sum())

    return objective


_GOLDEN_TOL = 1e-10
# upper ends of the fit's search in log T, in turn: a search that stops at
# one is run again up to the next
_LOG_T_HIGHS = tuple(math.log(10.0 ** k) for k in range(1, 7))


def _golden_min(f, lo: float, hi: float, tol: float = _GOLDEN_TOL) -> float:
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def _entropy(p: np.ndarray) -> float:
    p = p[p > 0]
    return float(-(p * np.log(p)).sum())


def effective_temperature_fit(logits, sigma_eta: float, draws: int = 100_000,
                              seed: int = 0, max_pairs: int = 1_000_000) -> TempFit:
    """Fit the temperature that matches noise-averaged token preferences.

    Perturbing logits with i.i.d. N(0, sigma_eta^2) noise shifts each
    pairwise logit difference by N(0, 2 sigma_eta^2). A pair's averaged
    preference depends only on that one-dimensional shift, so the fit takes
    it by quadrature (_pair_preference: a trapezoid rule in the standardized
    shift, step min(0.5, 0.5 / (sqrt(2) sigma_eta)) on |z| <= 9, within 3e-15
    of adaptive quadrature for sigma_eta from 0.05 to 100). It then
    golden-section searches log T in [log 0.5, log 10] for the softmax
    temperature whose pairwise preferences minimize the summed forward
    Bernoulli KL against the averaged ones, and again with the upper end
    10 times higher while the search stops there, up to T = 1e6.

    The fit deliberately matches pairwise marginals, not the full
    noise-averaged categorical distribution: averaging the softmax over
    noise re-normalizes per draw, which cancels most of the tempering and
    leaves the full-distribution KL fit pinned near T = 1.

    Pairs are all unordered logit pairs, subsampled uniformly (with
    replacement) to max_pairs when the vocabulary is large. Entropies of
    the clean and the full noise-averaged policies are reported alongside;
    `draws` is the Monte-Carlo sample count of the noise-averaged policy,
    and it only drives `entropy_noised`. It also bounds the quadrature: a
    sigma_eta whose rule needs more than `draws` nodes per pair is a
    ValueError, so the fit never evaluates more sigmoids than a pairwise
    Monte Carlo of the same draws would.

    Memory: besides the pairs' index arrays, which are dropped once the
    logit differences are formed, the fit holds three float64 arrays of the
    pair count (the differences, the preferences and the search's terms)
    and tile buffers of about quantize._CHUNK_ELEMS elements: the
    quadrature's, the Monte Carlo's (one row longer) and the search's two.
    The tracemalloc peak was 0.46 MiB at vocab 100 and 3.09 pair arrays at
    1e6 pairs, and it does not grow with the draws.
    """
    ell = np.asarray(logits, dtype=np.float64).ravel()
    if ell.size < 2:
        raise ValueError("need at least 2 logits")
    if not np.isfinite(ell).all():
        raise ValueError("non-finite logits")
    if not (math.isfinite(sigma_eta) and sigma_eta >= 0):
        raise ValueError(f"sigma_eta must be finite and >= 0, got {sigma_eta!r}")
    if draws < 10_000:
        raise ValueError("draws must be >= 10000")
    nodes = _pair_nodes(sigma_eta)
    if nodes > draws:
        raise ValueError(f"sigma_eta={sigma_eta!r} needs {nodes:.6g} quadrature nodes "
                         f"per pair, above the limit of draws={draws}")
    rng = np.random.default_rng(seed)
    vocab = ell.size

    n_all = vocab * (vocab - 1) // 2
    if n_all <= max_pairs:
        i_idx, j_idx = np.triu_indices(vocab, k=1)
    else:
        i_idx = rng.integers(0, vocab, size=max_pairs)
        j_idx = rng.integers(0, vocab - 1, size=max_pairs)
        j_idx += j_idx >= i_idx  # j != i without rejection
    dl = ell[i_idx]
    del i_idx
    dl -= ell[j_idx]
    del j_idx
    n_pairs = dl.size
    var_dl = float(dl.var(ddof=0))

    # full-vocabulary noise-averaged policy, for the entropy report
    clean = np.exp(ell - ell.max())
    clean /= clean.sum()
    if sigma_eta == 0.0:
        noised = clean.copy()
        p_bar = _sigmoid(dl)
    else:
        p_bar = _pair_preference(dl, sigma_eta)
        # one noise sample per (draw, token), summed over the draws of a
        # chunk and then added to `noised`. The chunk length fixes that
        # order of summation, and so the last bits of entropy_noised: it
        # stays 1e7 // max(n_pairs, vocab) draws so that reports keep their
        # values from one version to the next. A chunk is drawn, softmaxed
        # and summed in tiles of rows of quantize._CHUNK_ELEMS elements; row
        # 0 of the tile buffer carries the chunk's running column sum. numpy
        # sums a C-ordered array down axis 0 one row at a time, so a tile's
        # sum continues the chunk's and the tile changes no bit
        noised = np.zeros(vocab)
        step = max(1, int(1e7) // max(n_pairs, vocab))
        rows = max(1, min(step, draws, _CHUNK_ELEMS // vocab))
        buf = np.empty((rows + 1, vocab))
        row = np.empty((rows, 1))
        starts = np.arange(0, rows * vocab, vocab)
        col = np.empty(vocab)
        done = 0
        while done < draws:
            n = min(step, draws - done)
            col.fill(0.0)
            for first in range(0, n, rows):
                m = min(rows, n - first)
                z, z_row = buf[1:m + 1], row[:m]
                rng.standard_normal(out=z)
                z *= sigma_eta
                z += ell
                np.maximum.reduceat(z.reshape(-1), starts[:m], out=z_row[:, 0])
                z -= z_row
                np.exp(z, out=z)
                np.sum(z, axis=1, keepdims=True, out=z_row)
                z /= z_row
                buf[0] = col
                np.sum(buf[:m + 1], axis=0, out=col)
            noised += col
            done += n
        noised /= draws

    objective = _kl_objective(p_bar, dl)
    lo = math.log(0.5)
    for hi in _LOG_T_HIGHS:
        log_t_hat = _golden_min(objective, lo, hi)
        if hi - log_t_hat > _GOLDEN_TOL:
            break
    t_hat = math.exp(log_t_hat)
    t_pred = effective_temperature_predict(sigma_eta ** 2, var_dl) if var_dl > 0 else 1.0
    return TempFit(
        t_hat=t_hat,
        t_predicted=t_pred,
        var_delta_ell=var_dl,
        sigma_eta=float(sigma_eta),
        n_pairs=n_pairs,
        draws=draws,
        entropy_clean=_entropy(clean),
        entropy_noised=_entropy(noised),
        kl_min=objective(log_t_hat),
        t_hat_at_bound=min(log_t_hat - lo, hi - log_t_hat) <= _GOLDEN_TOL,
    )


def aqn_total_noise(sigma_grid: float, schedule, stage: int) -> float:
    """Quadrature sum of the grid noise floor and the stage noise."""
    if not 0 <= sigma_grid < math.inf:
        raise ValueError(f"sigma_grid must be finite and >= 0, got {sigma_grid}")
    if isinstance(schedule, AqnSchedule):
        sigmas = schedule.stage_sigmas()
    else:
        sigmas = np.asarray(schedule, dtype=np.float64)
        if sigmas.ndim != 1 or sigmas.size == 0 or (sigmas < 0).any():
            raise ValueError("schedule must be a 1-D non-negative sequence")
    if not 0 <= stage < sigmas.size:
        raise ValueError("stage out of range")
    return math.hypot(sigma_grid, float(sigmas[stage]))


# --- GEMM error propagation ------------------------------------------------------


@dataclass
class GemmPropagation:
    """Analytic and Monte-Carlo output-error variances for y = W x.

    Variances are tr(E^T E Sigma) per error component; crosses are the
    pairwise trace terms (unscaled; they enter the total doubled).
    """

    var_scale: float
    var_dz: float
    var_grid: float
    var_total: float
    cross_scale_grid: float
    cross_scale_dz: float
    cross_dz_grid: float
    mc_estimate: float
    samples: int
    cov_mode: str

    @property
    def dropped_cross_fraction(self) -> float:
        # signed share of the total carried by the scale/grid cross term
        return 2.0 * self.cross_scale_grid / self.var_total

    @property
    def identity_residual(self) -> float:
        # the decomposition's own residual (decompose.verify_identity), on traces
        return _expansion_residual(self.var_total, self.var_scale, self.var_dz,
                                   self.var_grid, self.cross_scale_grid,
                                   self.cross_scale_dz, self.cross_dz_grid)

    def summary_dict(self) -> dict:
        return {
            "var_scale": self.var_scale,
            "var_dz": self.var_dz,
            "var_grid": self.var_grid,
            "var_total": self.var_total,
            "cross_scale_grid": self.cross_scale_grid,
            "cross_scale_dz": self.cross_scale_dz,
            "cross_dz_grid": self.cross_dz_grid,
            "dropped_cross_fraction": self.dropped_cross_fraction,
            "identity_residual": self.identity_residual,
            "mc_estimate": self.mc_estimate,
            "samples": self.samples,
            "cov_mode": self.cov_mode,
        }


def gemm_error_propagation(weights, quant: BlockQuantConfig | None = None,
                           cov=1.0, samples: int = 10_000, seed: int = 0,
                           mbs: MbsConfig | None = None,
                           mbs_mode: str = "closed_form") -> GemmPropagation:
    """Propagate decomposed quantization error through y = W x.

    weights is a 2-D array or a tensorstore.TensorSource. cov selects the
    input second-moment model, and must be finite:

    - scalar: isotropic, Sigma = cov * I (cov is the variance, > 0);
    - 1-D array: diagonal Sigma (positive);
    - 2-D array: a sample set, one input vector per row; Sigma is its
      uncentered second moment and Monte-Carlo draws resample rows.

    The weight is read and split in pieces of whole rows (decompose_tensor;
    with mbs, of each piece's MBS output, against the unchanged ideal
    quantization). Every trace separates by rows, tr(A Sigma B^T) = sum_i
    a_i Sigma b_i^T, so each piece adds its share and is dropped. The
    isotropic traces are var times the split's own sums: those of
    decompose_tensor(weights) bit for bit while a row fits in one of its
    pieces (quantize._CHUNK_ELEMS elements); a wider row's column runs are
    summed per row first, which can move the last bits. Its deadzone cross
    traces are thus exactly 0.0; a nonzero one raises InvariantViolation.

    Only e_total is kept whole, for the Monte-Carlo term, whose inputs are
    drawn in chunks of about quantize._STREAM_ELEMS elements, as a sample
    set's rows are for its traces: never forming the n_in x n_in Sigma,
    with the same bits at any BLAS thread count. A weight or a sample count
    numpy cannot allocate is a ValueError naming it and its bytes. The
    arguments are checked before the weight is read; past that, a ValueError
    such as a block scale past E8M0's range names a TensorSource weight.
    """
    quant = quant or BlockQuantConfig()
    w = _as_tensor(weights)
    if w.ndim != 2:
        raise ValueError("weights must be 2-D")
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if mbs is not None:
        mbs.validate_against(quant)
    n_in = w.shape[1]

    if np.isscalar(cov) or (isinstance(cov, np.ndarray) and cov.ndim == 0):
        var = float(cov)
        if not 0 < var < math.inf:
            raise ValueError("isotropic variance must be finite and > 0")
        mode = "isotropic"
    else:
        cov = np.asarray(cov, dtype=np.float64)
        if cov.ndim == 1:
            if cov.size != n_in:
                raise ValueError("diagonal covariance length mismatch")
            if not ((cov > 0) & (cov < math.inf)).all():
                raise ValueError("diagonal covariance must be finite and positive")
            mode = "diagonal"
        elif cov.ndim == 2:
            if cov.shape[1] != n_in:
                raise ValueError("sample set width mismatch")
            if not np.isfinite(cov).all():
                raise ValueError("non-finite samples")
            mode = "samples"
        else:
            raise ValueError("cov must be scalar, 1-D, or 2-D")

    # a TensorSource's refusal names it, as np.asarray(source) does
    e_t = _empty(w.shape, f"tensor {getattr(w, 'name', 'weights')}", TensorStoreError)
    per_sample = _empty((samples,), f"{samples} samples")
    step = max(1, _STREAM_ELEMS // max(w.shape))     # samples per chunk

    # the seven traces tr(E_a Sigma E_b^T) in decompose's _SUM_PAIRS order
    # (var_scale, var_dz, var_grid, var_total, then the scale-grid, scale-dz
    # and dz-grid crosses), each the sum of the pieces' shares. Past 1.8e308
    # (w's scales are E8M0's, but the covariance is any finite one) a trace
    # or the Monte-Carlo term is inf or nan without a warning: cmd_gemm
    # checks the traces (_check_norms)
    traces = None
    work = _Workspace()
    with np.errstate(over="ignore", invalid="ignore"), _naming(getattr(w, "name", None)):
        for r, c, piece in _row_pieces(w, quant.block_size, max(n_in, _CHUNK_ELEMS)):
            x_hat = None if mbs is None else mbs_qdq(piece, mbs, quant, mbs_mode, work)[0]
            d = decompose_tensor(piece, quant, x_hat=x_hat, work=work)
            e_t[r, c] = d.e_total
            mats = (d.e_scale, d.e_dz, d.e_grid, d.e_total)
            if mode == "isotropic":
                share = np.array([d.n2_scale, d.n2_dz, d.n2_grid, d.n2_total,
                                  d.ip_scale_grid, d.ip_scale_dz, d.ip_dz_grid])
            elif mode == "diagonal":
                share = np.array([((mats[a] * mats[b]).sum(axis=0) * cov).sum()
                                  for a, b in _SUM_PAIRS])
            else:
                # tr(A Sigma B^T) with Sigma = X^T X / n is (1/n) sum_s <A x_s,
                # B x_s>: per chunk of samples, one (rows, chunk) product per
                # matrix. They are einsum's own loops, not a BLAS gemm, and
                # their _dot sums keep their bits at any BLAS thread count
                share = np.zeros(len(_SUM_PAIRS))
                for lo in range(0, cov.shape[0], step):
                    prods = [np.einsum("ij,kj->ik", m, cov[lo:lo + step]) for m in mats]
                    share += [_dot(prods[a], prods[b]) for a, b in _SUM_PAIRS]
            traces = share if traces is None else traces + share
        if mode == "isotropic":
            traces = var * traces
        elif mode == "samples":
            traces = traces / cov.shape[0]
        var_scale, var_dz, var_grid, var_total, cross_sg, cross_sd, cross_dg = traces.tolist()
        if mode == "isotropic" and (cross_sd != 0.0 or cross_dg != 0.0):
            raise InvariantViolation(
                "deadzone cross traces must vanish for isotropic covariance")

        # drawn in chunks from one generator, the inputs are the whole
        # matrix's draws; the mean is taken once, over every sample's
        # squared error
        rng = np.random.default_rng(seed)
        for lo in range(0, samples, step):
            m = min(step, samples - lo)
            if mode == "isotropic":
                x = math.sqrt(var) * rng.standard_normal((m, n_in))
            elif mode == "diagonal":
                x = np.sqrt(cov)[None, :] * rng.standard_normal((m, n_in))
            else:
                x = cov[rng.integers(0, cov.shape[0], size=m)]
            per_sample[lo:lo + m] = ((e_t @ x.T) ** 2).sum(axis=0)
        mc = float(per_sample.mean())

    return GemmPropagation(
        var_scale=var_scale,
        var_dz=var_dz,
        var_grid=var_grid,
        var_total=var_total,
        cross_scale_grid=cross_sg,
        cross_scale_dz=cross_sd,
        cross_dz_grid=cross_dg,
        mc_estimate=mc,
        samples=samples,
        cov_mode=mode,
    )


# --- effective rank and deadzone truncation ---------------------------------------


def effective_rank(matrix) -> float:
    """(sum sigma_i)^2 / sum sigma_i^2 over singular values."""
    m = np.asarray(matrix, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError("matrix must be 2-D")
    if not np.isfinite(m).all():
        raise ValueError("non-finite input")
    if not m.any():
        raise ValueError("zero matrix")
    sv = np.linalg.svd(m, compute_uv=False)
    return float(sv.sum() ** 2 / (sv ** 2).sum())


def deadzone_truncate(x, config: BlockQuantConfig | None = None) -> np.ndarray:
    """Zero every entry the ideal quantizer would drop."""
    config = config or BlockQuantConfig()
    view = block_view(x, config)
    return view.restore(np.where(_below_threshold(view.mag, view.m_b), 0.0, view.blocks))


# --- cross term vs block size -----------------------------------------------------

# grid spacing around a scaled magnitude, in grid units
_CELL_EDGES = np.array([2.0, 4.0])
_CELL_WIDTHS = np.array([0.5, 1.0, 2.0])


def cross_term_vs_blocksize(distribution: str = "gaussian",
                            b_list: Sequence[int] = (8, 16, 32, 64, 128, 256, 512),
                            blocks_per_b: int = 20_000,
                            seed: int = 0) -> list[dict]:
    """Scale/grid cross term as a function of block size, on i.i.d. data.

    For each block size B, draws blocks_per_b independent blocks, splits
    the quantization error, and reports the pooled cos(scale, grid), the
    pooled normalized cross share 2<e_s, e_g>/|e|^2, and the rms of the
    per-block cosine computed with an idealized grid error: independent,
    zero-mean, uniform over the local grid cell. The idealized rms decays
    like B^(-1/2); the measured cos does not, which is the point of the
    comparison.
    """
    samplers = {
        "gaussian": lambda g, shape: g.standard_normal(shape),
        "laplace": lambda g, shape: g.laplace(size=shape),
        "student_t": lambda g, shape: g.standard_t(5.0, size=shape),
    }
    if distribution not in samplers:
        raise ValueError(f"unknown distribution: {distribution}")
    if any(b < 2 for b in b_list):
        raise ValueError("block sizes must be >= 2")
    draw = samplers[distribution]

    out = []
    seeds = np.random.SeedSequence(seed).spawn(len(b_list))
    for b, ss in zip(b_list, seeds):
        rng = np.random.default_rng(ss)
        cfg = BlockQuantConfig(block_size=int(b))
        sum_sg = sum_ss = sum_gg = sum_tt = 0.0
        ideal_sq = []
        n_live = 0
        step = max(1, int(2e6) // int(b))
        done = 0
        while done < blocks_per_b:
            n = min(step, blocks_per_b - done)
            arr = draw(rng, (n, int(b)))
            view = block_view(arr, cfg)
            # one block per row, so the error arrays are already blocked;
            # all-zero blocks carry no error and add nothing to the sums
            d = decompose_tensor(arr, cfg)
            live = view.nonzero
            n_live += int(live.sum())
            sum_sg += d.ip_scale_grid
            sum_ss += d.n2_scale
            sum_gg += d.n2_grid
            sum_tt += d.n2_total

            # idealized grid error: uniform over the local cell, independent
            u = np.abs(view.blocks) / np.where(live, view.s_star, 1.0)[:, None]
            width = _CELL_WIDTHS[np.searchsorted(_CELL_EDGES, u)]
            tilde = (view.s_star[:, None] * width
                     * (rng.random(view.blocks.shape) - 0.5))
            num = (d.e_scale * tilde).sum(axis=1)
            den = (np.sqrt((d.e_scale ** 2).sum(axis=1))
                   * np.sqrt((tilde ** 2).sum(axis=1)))
            ok = live & (den > 0)
            ideal_sq.append((num[ok] / den[ok]) ** 2)
            done += n

        ideal_sq = np.concatenate(ideal_sq) if ideal_sq else np.empty(0)
        denom = math.sqrt(sum_ss * sum_gg)
        out.append({
            "block_size": int(b),
            "cos_scale_grid": sum_sg / denom if denom > 0 else 0.0,
            "cross_share": 2.0 * sum_sg / sum_tt if sum_tt > 0 else 0.0,
            "idealized_cross_rms": float(np.sqrt(ideal_sq.mean()))
                                   if ideal_sq.size else 0.0,
            "n_blocks_live": n_live,
        })
    return out
