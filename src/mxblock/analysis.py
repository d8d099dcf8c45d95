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
    InvariantViolation,
    _as_tensor,
    _expansion_residual,
    _row_pieces,
    decompose_tensor,
)
from .quantize import _CHUNK_ELEMS, BlockQuantConfig, _deadzone, _Workspace, block_view

__all__ = [
    "GammaStats",
    "TempFit",
    "GemmPropagation",
    "gamma_stats",
    "component_error_matrices",
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
    """Per-block scale overshoot: delta = ceil(log2 s*) - log2 s*, gamma = 2^delta."""

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
    if isinstance(tensors, np.ndarray):
        return [_as_tensor(tensors)]
    if isinstance(tensors, Mapping):
        return [_as_tensor(tensors[k]) for k in sorted(tensors)]
    return [_as_tensor(t) for t in tensors]


def gamma_stats(tensors, config: BlockQuantConfig | None = None,
                min_blocks: int = 1000) -> GammaStats:
    """Distribution of the ceiling-scale overshoot across blocks.

    Accepts one array, a sequence of arrays, or a name-to-array mapping
    (mappings are walked in sorted-name order); tensorstore.StoredTensors
    may stand in for arrays. Each tensor is read in the decomposition's
    pieces, which hold whole blocks, so the per-block deltas are those of
    the whole tensor, in its order; one workspace holds every piece's
    |blocks|, as in decompose_tensor. All-zero blocks carry no scale and are
    skipped; the count is reported. Requires at least min_blocks live blocks.
    """
    config = config or BlockQuantConfig()
    deltas = []
    skipped = 0
    work = _Workspace()
    for x in _as_tensors(tensors):
        for _, _, piece in _row_pieces(x, config.block_size):
            view = block_view(piece, config, work)
            s_star = view.s_star[view.nonzero]
            skipped += int((~view.nonzero).sum())
            if s_star.size:
                log2s = np.log2(s_star)
                deltas.append(np.ceil(log2s) - log2s)
    delta = np.concatenate(deltas) if deltas else np.empty(0)
    if delta.size < min_blocks:
        raise ValueError(f"need at least {min_blocks} live blocks, got {delta.size}")
    gamma = np.exp2(delta)
    hist, edges = np.histogram(delta, bins=_HIST_BINS, range=(0.0, 1.0))
    return GammaStats(
        delta=delta,
        mean_delta=float(delta.mean()),
        mean_gamma=float(gamma.mean()),
        rmse_gamma_minus_1=float(np.sqrt(np.mean((gamma - 1.0) ** 2))),
        rms_delta=float(np.sqrt(np.mean(delta ** 2))),
        histogram=hist,
        bin_edges=edges,
        n_blocks=int(delta.size),
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
    sums = np.empty(trials)
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
    quadrature and do not depend on it."""

    t_hat: float
    t_predicted: float
    var_delta_ell: float
    sigma_eta: float
    n_pairs: int
    draws: int
    entropy_clean: float
    entropy_noised: float
    kl_min: float


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 0.5 * (1.0 + np.tanh(0.5 * x))


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
    37 nodes up to s = 1 and about 36 s above that."""
    s = math.sqrt(2.0) * sigma_eta
    h = 0.5 / max(1.0, s)
    k = int(_pair_nodes(sigma_eta)) // 2
    z = h * np.arange(-k, k + 1)
    weights = (h / math.sqrt(2.0 * math.pi)) * np.exp(-0.5 * z * z)
    shifts = s * z
    p_bar = np.empty(dl.size)
    rows = max(1, _CHUNK_ELEMS // shifts.size)
    for lo in range(0, dl.size, rows):
        p = _sigmoid(dl[lo:lo + rows, None] + shifts)
        p *= weights
        p_bar[lo:lo + rows] = p.sum(axis=1)
    return p_bar


def _bernoulli_kl(p: np.ndarray):
    """q -> sum KL(Bernoulli(p) || Bernoulli(q)), p and q clipped to [eps,
    1 - eps]. p's clip and 1 - p are taken once, for every q a search tries."""
    eps = 1e-15
    p = np.clip(p, eps, 1.0 - eps)
    p_c = 1.0 - p

    def kl(q: np.ndarray) -> float:
        q = np.clip(q, eps, 1.0 - eps)
        return float((p * np.log(p / q) + p_c * np.log(p_c / (1.0 - q))).sum())

    return kl


def _golden_min(f, lo: float, hi: float, tol: float = 1e-10) -> float:
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
    Bernoulli KL against the averaged ones.

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
    dl = ell[i_idx] - ell[j_idx]
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
        # one noise sample per (draw, token). The chunk length fixes the
        # order in which `noised` is summed, and so the last bits of
        # entropy_noised: it stays 1e7 // max(n_pairs, vocab) draws so that
        # reports keep their values from one version to the next.
        noised = np.zeros(vocab)
        step = max(1, int(1e7) // max(n_pairs, vocab))
        done = 0
        while done < draws:
            n = min(step, draws - done)
            eta = sigma_eta * rng.standard_normal((n, vocab))
            z = ell[None, :] + eta
            z -= z.max(axis=1, keepdims=True)
            ez = np.exp(z)
            noised += (ez / ez.sum(axis=1, keepdims=True)).sum(axis=0)
            done += n
        noised /= draws

    kl = _bernoulli_kl(p_bar)

    def objective(log_t: float) -> float:
        return kl(_sigmoid(dl / math.exp(log_t)))

    log_t_hat = _golden_min(objective, math.log(0.5), math.log(10.0))
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
    )


def aqn_total_noise(sigma_grid: float, schedule, stage: int) -> float:
    """Quadrature sum of the grid noise floor and the stage noise."""
    if sigma_grid < 0:
        raise ValueError("sigma_grid must be >= 0")
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


def component_error_matrices(weights: np.ndarray, quant: BlockQuantConfig,
                             mbs: MbsConfig | None = None,
                             mbs_mode: str = "closed_form"):
    """(e_scale, e_dz, e_grid, e_total) for the plain or MBS quantizer; the
    MBS output is measured against the plain Q*(x) (see decompose)."""
    x_hat = None if mbs is None else mbs_qdq(weights, mbs, quant, mbs_mode)[0]
    d = decompose_tensor(weights, quant, x_hat=x_hat)
    return d.e_scale, d.e_dz, d.e_grid, d.e_total


def gemm_error_propagation(weights, quant: BlockQuantConfig | None = None,
                           cov=1.0, samples: int = 10_000, seed: int = 0,
                           mbs: MbsConfig | None = None,
                           mbs_mode: str = "closed_form") -> GemmPropagation:
    """Propagate decomposed quantization error through y = W x.

    cov selects the input second-moment model:

    - scalar: isotropic, Sigma = cov * I (cov is the variance);
    - 1-D array: diagonal Sigma;
    - 2-D array: a sample set, one input vector per row; Sigma is its
      uncentered second moment and Monte-Carlo draws resample rows.

    With isotropic covariance the two deadzone cross traces reduce to
    elementwise products that vanish identically (the scale component is
    exactly zero on deadzone entries); a nonzero one raises
    InvariantViolation.
    Passing mbs replaces the quantizer with its macro-prescaled variant;
    the scale component is then measured against the unchanged ideal
    quantization.
    """
    quant = quant or BlockQuantConfig()
    w = np.asarray(weights, dtype=np.float64)
    if w.ndim != 2:
        raise ValueError("weights must be 2-D")
    if not np.isfinite(w).all():
        raise ValueError("non-finite input")
    if samples < 1:
        raise ValueError("samples must be >= 1")
    n_in = w.shape[1]

    if np.isscalar(cov) or (isinstance(cov, np.ndarray) and cov.ndim == 0):
        var = float(cov)
        if var <= 0:
            raise ValueError("isotropic variance must be > 0")
        mode, sigma = "isotropic", None
    else:
        cov = np.asarray(cov, dtype=np.float64)
        if cov.ndim == 1:
            if cov.size != n_in:
                raise ValueError("diagonal covariance length mismatch")
            if (cov <= 0).any():
                raise ValueError("diagonal covariance must be positive")
            mode = "diagonal"
        elif cov.ndim == 2:
            if cov.shape[1] != n_in:
                raise ValueError("sample set width mismatch")
            if not np.isfinite(cov).all():
                raise ValueError("non-finite samples")
            mode = "samples"
            sigma = cov.T @ cov / cov.shape[0]
        else:
            raise ValueError("cov must be scalar, 1-D, or 2-D")

    e_s, e_d, e_g, e_t = component_error_matrices(w, quant, mbs, mbs_mode)

    # isotropic traces equal var times decompose_tensor's sums bit for bit only
    # on a one-piece tensor; those sums add piece by piece (512x512: last bits)
    if mode == "isotropic":
        tr = lambda a, b: var * float(np.dot(a.ravel(), b.ravel()))
    elif mode == "diagonal":
        tr = lambda a, b: float(((a * b).sum(axis=0) * cov).sum())
    else:
        tr = lambda a, b: float((b * (a @ sigma)).sum())

    cross_sd = tr(e_s, e_d)
    cross_dg = tr(e_d, e_g)
    if mode == "isotropic" and (cross_sd != 0.0 or cross_dg != 0.0):
        raise InvariantViolation(
            "deadzone cross traces must vanish for isotropic covariance")

    rng = np.random.default_rng(seed)
    if mode == "isotropic":
        x = math.sqrt(var) * rng.standard_normal((samples, n_in))
    elif mode == "diagonal":
        x = np.sqrt(cov)[None, :] * rng.standard_normal((samples, n_in))
    else:
        x = cov[rng.integers(0, cov.shape[0], size=samples)]
    mc = float(((e_t @ x.T) ** 2).sum(axis=0).mean())

    return GemmPropagation(
        var_scale=tr(e_s, e_s),
        var_dz=tr(e_d, e_d),
        var_grid=tr(e_g, e_g),
        var_total=tr(e_t, e_t),
        cross_scale_grid=tr(e_s, e_g),
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
    return view.restore(np.where(_deadzone(view), 0.0, view.blocks))


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
