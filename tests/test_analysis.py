import dataclasses
import gc
import hashlib
import math
import os
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

import mxblock
import mxblock.analysis as analysis
from mxblock.analysis import (
    aqn_total_noise,
    cross_term_vs_blocksize,
    cumulative_scale_bias,
    deadzone_truncate,
    effective_rank,
    effective_temperature_fit,
    effective_temperature_predict,
    gamma_stats,
    gemm_error_propagation,
)
from mxblock.corrections import AqnSchedule, MbsConfig
from mxblock.decompose import InvariantViolation, decompose_tensor
from mxblock.formats import ceil_scale_array
from mxblock.quantize import BlockQuantConfig, block_view, qdq_views
from mxblock.tensorstore import (
    ContainerReader,
    SynthSpec,
    TensorSet,
    TensorSource,
    save_container,
    synth_tensors,
)


class TestGammaStats:
    def test_power_of_two_maxima_degenerate(self):
        # block maxima of 6 * 2^k make s_star an exact power of two, so
        # the ceiling is free: delta 0, gamma 1
        rng = np.random.default_rng(80)
        x = rng.uniform(-0.5, 0.5, size=(1200, 32))
        x[:, 0] = 6.0 * 2.0 ** (np.arange(1200) % 3 - 1)
        st = gamma_stats(x)
        assert st.mean_gamma == 1.0
        assert st.rms_delta == 0.0
        assert st.rmse_gamma_minus_1 == 0.0
        assert st.n_blocks == 1200 and st.skipped_blocks == 0

    def test_lognormal_maxima_match_uniform_delta_theory(self):
        x = np.asarray(synth_tensors(SynthSpec("lognormal_max_blocks", (20_000, 32),
                                               seed=81))["lognormal_max_blocks_0000"])
        st = gamma_stats(x)
        assert 1.42 <= st.mean_gamma <= 1.46        # 1/ln 2 = 1.4427
        assert 0.55 <= st.rms_delta <= 0.59         # 1/sqrt(3) = 0.5774
        assert 0.50 <= st.rmse_gamma_minus_1 <= 0.55
        assert abs(st.mean_delta - 0.5) < 0.02

    def test_delta_range_and_dual_route(self):
        rng = np.random.default_rng(82)
        x = rng.standard_normal((2000, 32))
        st = gamma_stats(x)
        assert (st.delta >= 0.0).all() and (st.delta < 1.0).all()
        view = block_view(x, BlockQuantConfig())
        s_dec, _, _ = ceil_scale_array(view.s_star, 0)
        np.testing.assert_allclose(np.exp2(st.delta), s_dec / view.s_star,
                                   rtol=1e-12)

    def test_histogram_covers_unit_interval(self):
        rng = np.random.default_rng(83)
        st = gamma_stats(rng.standard_normal((1500, 32)))
        assert st.histogram.sum() == st.n_blocks
        assert st.bin_edges[0] == 0.0 and st.bin_edges[-1] == 1.0

    def test_zero_blocks_skipped(self):
        rng = np.random.default_rng(84)
        x = rng.standard_normal((1100, 32))
        x[7] = 0.0
        x[400] = 0.0
        st = gamma_stats(x)
        assert st.n_blocks == 1098 and st.skipped_blocks == 2

    def test_input_forms_agree(self):
        rng = np.random.default_rng(85)
        a = rng.standard_normal((600, 32))
        b = rng.laplace(size=(600, 32))
        from_map = gamma_stats({"z": b, "a": a})
        from_seq = gamma_stats([a, b])
        assert from_map.n_blocks == from_seq.n_blocks == 1200
        assert np.array_equal(np.sort(from_map.delta), np.sort(from_seq.delta))

    def test_min_blocks(self):
        with pytest.raises(ValueError, match="live blocks"):
            gamma_stats(np.ones((4, 32)))
        st = gamma_stats(np.ones((4, 32)), min_blocks=4)
        assert st.n_blocks == 4

    def test_summary_dict(self):
        rng = np.random.default_rng(86)
        d = gamma_stats(rng.standard_normal((1100, 32))).summary_dict()
        assert {"mean_gamma", "rms_delta", "rmse_gamma_minus_1",
                "n_blocks", "histogram"} <= set(d)

    def test_bf16_at_m0_pinned(self):
        # at M = 0 inside E8M0's range the coded scale's log2 is ceil(log2
        # s*): the deltas are the bits they had when taken from s* alone
        x = np.random.default_rng(87).standard_normal((1024, 256)).astype(np.float32)
        bf16 = (x.view(np.uint32) & np.uint32(0xFFFF0000)).view(np.float32).astype(np.float64)
        st = gamma_stats(bf16)
        assert (st.mean_delta, st.mean_gamma, st.rmse_gamma_minus_1, st.rms_delta) == (
            0.4557506342526618, 1.392612338327528, 0.46406643837121875, 0.520095244351389)
        assert hashlib.sha256(st.delta.tobytes() + st.histogram.tobytes()).hexdigest() == (
            "8d3003d34a0cd80f2fc0e335644ff6c15fa993f4032c904fc3430d2e4dc93dee")

    @pytest.mark.parametrize("M", [1, 3, 8])
    def test_overshoot_of_the_coded_scale(self, M):
        # the overshoot is that of the scale the quantizer codes: at M > 0
        # below one mantissa step, log2(1 + 2^-M)
        x = np.random.default_rng(89).standard_normal((2000, 32))
        cfg = BlockQuantConfig(scale_mantissa_bits=M)
        st = gamma_stats(x, cfg)
        step = math.log2(1.0 + 2.0 ** -M)
        assert (st.delta >= 0.0).all() and (st.delta < step).all()
        assert st.delta.max() > 0.9 * step
        view = block_view(x, cfg)
        s_dec, _, _ = ceil_scale_array(view.s_star, M)
        np.testing.assert_allclose(np.exp2(st.delta), s_dec / view.s_star, rtol=1e-12)
        assert st.histogram.sum() == st.n_blocks
        assert st.mean_gamma < gamma_stats(x).mean_gamma

    def test_clamped_scale_counted(self):
        # a block scale below 2^-127 is coded as 2^-127, so its overshoot
        # passes 1: it is kept in delta, and the histogram's last bin counts
        # it rather than dropping it
        x = np.random.default_rng(90).standard_normal((1200, 32))
        x[:10] *= 1e-40
        st = gamma_stats(x)
        assert st.n_blocks == 1200 and st.histogram.sum() == 1200
        assert (st.delta[:10] > 1.0).all() and (st.delta[10:] < 1.0).all()
        s_star = np.abs(x[:10]).max(axis=1) / 6.0
        np.testing.assert_allclose(st.delta[:10], -127.0 - np.log2(s_star), rtol=1e-12)
        plain = np.histogram(st.delta[10:], bins=100, range=(0.0, 1.0))[0]
        plain[-1] += 10
        assert np.array_equal(st.histogram, plain)

    def test_past_e8m0_range_refused_by_name(self):
        x = 1e160 * np.random.default_rng(91).standard_normal((64, 1024))
        with pytest.raises(ValueError, match="past E8M0's range"):
            gamma_stats(x)
        ok = np.random.default_rng(92).standard_normal((64, 1024))
        with pytest.raises(ValueError, match=r"past E8M0's range.*\(tensor huge\)$"):
            gamma_stats({"ok": ok, "huge": x})

    @staticmethod
    def _traced(rows):
        gc.collect()
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            st = gamma_stats(synth_tensors(SynthSpec("gaussian", (rows, 1024), seed=88)))
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        return st, peak

    def test_two_floats_per_block(self):
        # the result keeps one delta per block and the statistics take one
        # scratch array of the same size: 16 B per added block of 32, and a
        # fixed 64 KiB for allocator and bookkeeping noise that does not grow
        # with the tensor. The statistics are pinned to the last bit
        self._traced(256)                           # the first run allocates more
        st, small = self._traced(1024)
        _, large = self._traced(4096)
        assert large - small <= 16 * (4096 - 1024) * 1024 // 32 + 64 * 1024, (
            small, large)
        assert (st.mean_delta, st.mean_gamma, st.rmse_gamma_minus_1, st.rms_delta) == (
            0.453081896283012, 1.390154051999436, 0.4622299755270151, 0.518035932625732)
        assert hashlib.sha256(st.delta.tobytes() + st.histogram.tobytes()).hexdigest() == (
            "887d578d76997e24aebe763600575f1c8eb0c7ccae45bdfad92fcca462584826")


class TestCumulativeScaleBias:
    def test_single_layer_matches_uniform_std(self):
        res = cumulative_scale_bias(1, trials=200_000, seed=0)
        want = math.sqrt(1.0 / 12.0)
        se = want / math.sqrt(2 * (200_000 - 1))
        assert abs(res["std_sum"] - want) < 3 * se

    def test_deep_stack_theory(self):
        res = cumulative_scale_bias(48, trials=100_000, seed=1)
        assert res["theory_std"] == 2.0
        assert 1.95 <= res["std_sum"] <= 2.05
        assert abs(res["mean_sum"] - 24.0) < 0.05

    def test_block_mean_narrows_by_sqrt_k(self):
        res = cumulative_scale_bias(48, trials=50_000, seed=2,
                                    delta_mode="block_mean",
                                    blocks_per_layer=16)
        assert abs(res["std_sum"] - 0.5) < 0.02

    def test_callable_sampler(self):
        res = cumulative_scale_bias(10, delta_sampler=lambda g, s: np.zeros(s),
                                    trials=1000, seed=3)
        assert res["std_sum"] == 0.0 and res["mean_sum"] == 0.0

    def test_bands_recompute(self):
        res = cumulative_scale_bias(36, trials=20_000, seed=4)
        s = res["std_sum"]
        assert res["band_pow2"] == (2.0 ** -s, 2.0 ** s)
        assert res["band_exp"] == (math.exp(-s), math.exp(s))
        # at 36 layers the natural-log reading spans roughly 0.18x to 5.6x
        lo, hi = res["band_exp"]
        assert 0.15 < lo < 0.20 and 5.0 < hi < 6.2

    def test_determinism(self):
        a = cumulative_scale_bias(8, trials=5000, seed=9)
        b = cumulative_scale_bias(8, trials=5000, seed=9)
        c = cumulative_scale_bias(8, trials=5000, seed=10)
        assert a["std_sum"] == b["std_sum"]
        assert a["std_sum"] != c["std_sum"]

    def test_validation(self):
        with pytest.raises(ValueError):
            cumulative_scale_bias(0)
        with pytest.raises(ValueError):
            cumulative_scale_bias(4, trials=999)
        with pytest.raises(ValueError, match="delta_mode"):
            cumulative_scale_bias(4, delta_mode="median")
        with pytest.raises(ValueError, match="delta_sampler"):
            cumulative_scale_bias(4, delta_sampler="gauss")
        with pytest.raises(ValueError):
            cumulative_scale_bias(4, blocks_per_layer=0)


class TestEffectiveTemperature:
    def test_predict_algebra(self):
        assert effective_temperature_predict(0.0, 1.0) == 1.0
        assert effective_temperature_predict(1.0, 2.0) == pytest.approx(
            math.sqrt(2.0), rel=1e-15)
        assert effective_temperature_predict(4.0, 1.0) == 3.0

    def test_predict_validation(self):
        with pytest.raises(ValueError, match="degenerate policy"):
            effective_temperature_predict(1.0, 0.0)
        with pytest.raises(ValueError):
            effective_temperature_predict(-1.0, 1.0)

    def test_fit_sigma_zero(self):
        rng = np.random.default_rng(90)
        fit = effective_temperature_fit(rng.standard_normal(20), 0.0,
                                        draws=10_000)
        assert abs(fit.t_hat - 1.0) <= 1e-6
        assert fit.entropy_noised == fit.entropy_clean

    def test_fit_matches_quadrature_oracle(self):
        # independent route: each pairwise preference averaged over its
        # exact N(0, 2 sigma^2) shift by Gauss-Hermite quadrature, then
        # the same KL objective minimized on a dense log grid
        ell = np.array([0.0, 1.0, -0.8])
        sigma = 0.8
        i_idx, j_idx = np.triu_indices(3, k=1)
        dl = ell[i_idx] - ell[j_idx]
        nodes, weights = np.polynomial.hermite.hermgauss(101)
        shift = math.sqrt(2.0) * math.sqrt(2.0) * sigma * nodes
        p_bar = np.array([
            (weights / math.sqrt(math.pi)
             / (1.0 + np.exp(-(d + shift)))).sum() for d in dl])

        def kl(t):
            q = 1.0 / (1.0 + np.exp(-dl / t))
            return float((p_bar * np.log(p_bar / q)
                          + (1 - p_bar) * np.log((1 - p_bar) / (1 - q))).sum())

        grid = np.exp(np.linspace(math.log(0.5), math.log(10.0), 20_001))
        t_oracle = float(grid[np.argmin([kl(t) for t in grid])])

        fit = effective_temperature_fit(ell, sigma, draws=200_000, seed=1)
        assert fit.t_hat == pytest.approx(t_oracle, rel=0.02)
        assert fit.t_hat > 1.0

    def test_fit_monotone_in_sigma(self):
        rng = np.random.default_rng(91)
        ell = rng.standard_normal(30)
        lo = effective_temperature_fit(ell, 0.4, draws=50_000, seed=0)
        hi = effective_temperature_fit(ell, 0.9, draws=50_000, seed=0)
        assert 1.0 < lo.t_hat < hi.t_hat

    def test_fit_reports(self):
        rng = np.random.default_rng(92)
        ell = rng.standard_normal(25)
        fit = effective_temperature_fit(ell, 0.7, draws=20_000, seed=3)
        i_idx, j_idx = np.triu_indices(25, k=1)
        dl = ell[i_idx] - ell[j_idx]
        assert fit.n_pairs == dl.size
        assert fit.var_delta_ell == pytest.approx(float(dl.var()), rel=1e-12)
        assert fit.t_predicted == effective_temperature_predict(
            0.7 ** 2, fit.var_delta_ell)
        assert fit.entropy_noised > fit.entropy_clean
        assert fit.kl_min >= 0.0

    def test_fit_seed_stability(self):
        rng = np.random.default_rng(93)
        ell = rng.standard_normal(40)
        a = effective_temperature_fit(ell, 0.8, draws=100_000, seed=0)
        b = effective_temperature_fit(ell, 0.8, draws=100_000, seed=7)
        assert a.t_hat == pytest.approx(b.t_hat, rel=0.01)

    def test_fit_validation(self):
        with pytest.raises(ValueError, match="2 logits"):
            effective_temperature_fit([1.0], 0.5)
        with pytest.raises(ValueError, match="draws"):
            effective_temperature_fit([1.0, 2.0], 0.5, draws=5000)
        with pytest.raises(ValueError):
            effective_temperature_fit([1.0, 2.0], -0.5)
        with pytest.raises(ValueError, match="non-finite"):
            effective_temperature_fit([1.0, np.inf], 0.5)

    @pytest.mark.parametrize("sigma", [math.nan, math.inf, -math.inf, 1e200, 1.5e308])
    def test_fit_rejects_bad_sigma(self, sigma):
        with pytest.raises(ValueError, match="sigma_eta"):
            effective_temperature_fit([0.0, 1.0, -0.5], sigma, draws=10_000)

    def test_fit_quadrature_never_outspends_the_draws(self):
        # the rule's node count per pair is bounded by draws: a Monte Carlo
        # over the same draws would evaluate n_pairs * draws sigmoids
        ell = [0.0, 1.0, -0.5]
        for sigma in (0.0, 0.3, 1.0, 30.0, 196.0):
            assert analysis._pair_nodes(sigma) <= 10_000
            effective_temperature_fit(ell, sigma, draws=10_000)
        assert analysis._pair_nodes(197.0) > 10_000
        with pytest.raises(ValueError, match="limit of draws=10000"):
            effective_temperature_fit(ell, 197.0, draws=10_000)
        effective_temperature_fit(ell, 197.0, draws=20_000)

    # entropy_noised is Monte Carlo over the seed's noise draws; these values
    # pin its draw order and its chunked summation to the last bit, and t_hat
    # and kl_min pin the quadrature and the search's KL sum. The traced peak
    # bounds the fit's memory: the Monte Carlo chunks and the search's
    # objective reuse their buffers rather than make temporaries
    @staticmethod
    def _traced_fit(ell, sigma, draws, seed):
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            fit = effective_temperature_fit(ell, sigma, draws=draws, seed=seed)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        return fit, peak

    def test_entropy_noised_golden_full_pairs(self):
        ell = np.random.default_rng(61).standard_normal(100)
        fit, peak = self._traced_fit(ell, 0.6862875497722323, 20_000, 61)
        assert fit.n_pairs == 4950
        assert fit.entropy_noised == 4.137114717816148
        assert fit.entropy_clean == 4.1247711036254895
        assert fit.t_hat == 1.175105956691707
        assert fit.kl_min == 0.09257189882545346
        assert not fit.t_hat_at_bound
        # one 328 x 100 Monte Carlo tile and a few 4950-pair arrays: 0.46 MiB
        # measured, bounded with 0.14 MiB of slack
        assert peak < 0.6 * 2 ** 20, peak

    def test_entropy_noised_memory_does_not_grow_with_draws(self):
        # ten times the draws make ten times the Monte Carlo chunks, each
        # summed through the same tile buffer
        ell = np.random.default_rng(61).standard_normal(100)
        _, peak_20k = self._traced_fit(ell, 0.6862875497722323, 20_000, 61)
        _, peak_200k = self._traced_fit(ell, 0.6862875497722323, 200_000, 61)
        assert abs(peak_200k - peak_20k) <= 8 * analysis._CHUNK_ELEMS, (peak_20k, peak_200k)

    def test_entropy_noised_golden_subsampled_pairs(self):
        # 1500 logits have 1124250 pairs, above max_pairs: the pair
        # subsample draws from the generator before the noise does
        ell = np.random.default_rng(5).standard_normal(1500)
        fit, peak = self._traced_fit(ell, 0.5, 10_000, 5)
        assert fit.n_pairs == 1_000_000
        assert fit.entropy_noised == 6.861070718258464
        assert fit.entropy_clean == 6.860625207426964
        assert fit.t_hat == 1.0965474596653866
        assert fit.kl_min == 9.196435398085493
        # the differences, the preferences and the search's terms: 3.09 pair
        # arrays measured, bounded with 0.16 arrays (1.3 MB) of slack
        assert peak <= 3.25 * 8 * fit.n_pairs, peak / (8 * fit.n_pairs)

    @staticmethod
    def _bits(fit):
        return [v.hex() if isinstance(v, float) else v
                for v in dataclasses.astuple(fit)]

    # (vocab, max_pairs, draws, tile that cuts every loop mid-way): 4950 full
    # pairs in Monte Carlo chunks of 2020 draws, and 20000 subsampled pairs
    # in chunks of 500 draws
    @pytest.mark.parametrize("vocab,max_pairs,draws,cut", [(100, 1_000_000, 20_000, 1250),
                                                           (300, 20_000, 10_000, 2150)])
    def test_fit_bits_do_not_depend_on_the_tile(self, monkeypatch, vocab, max_pairs,
                                                draws, cut):
        ell = np.random.default_rng(vocab).standard_normal(vocab)

        def fit():
            return effective_temperature_fit(ell, 0.6, draws=draws, seed=vocab,
                                              max_pairs=max_pairs)

        want = fit()
        assert want.n_pairs == min(max_pairs, vocab * (vocab - 1) // 2)
        # one Monte Carlo row per tile, then tiles that end inside a chunk,
        # inside the quadrature's pairs and inside the search's pairs
        for tile in (vocab, cut):
            monkeypatch.setattr(analysis, "_CHUNK_ELEMS", tile)
            assert self._bits(fit()) == self._bits(want), tile

    def test_fit_flags_a_search_stopped_at_the_bracket(self, monkeypatch):
        # at sigma_eta 50 on 3 logits the KL still falls at T = 10; with 10
        # as the last upper end, the search stops there and says so
        ell = np.random.default_rng(0).standard_normal(3)
        monkeypatch.setattr(analysis, "_LOG_T_HIGHS", (math.log(10.0),))
        fit = effective_temperature_fit(ell, 50.0, draws=10_000, seed=0)
        assert fit.t_hat_at_bound
        assert 10.0 - 1e-9 < fit.t_hat <= 10.0
        assert fit.t_predicted > 100.0
        inside = effective_temperature_fit(ell, 0.5, draws=10_000, seed=0)
        assert not inside.t_hat_at_bound
        assert 1.0 < inside.t_hat < 10.0

    @pytest.mark.parametrize("vocab,sigma,t_hat", [(3, 50.0, 44.32571869038076),
                                                   (100, 20.0, 17.7558639034765)])
    def test_search_widens_past_ten(self, vocab, sigma, t_hat):
        # the search stops at T = 10 and is run again on [0.5, 100], where
        # it ends inside: the temp command's fits at these settings
        ell = np.random.default_rng(0).standard_normal(vocab)
        fit = effective_temperature_fit(ell, sigma, draws=10_000, seed=0)
        assert not fit.t_hat_at_bound
        assert fit.t_hat == t_hat

    def test_fit_matches_independent_monte_carlo(self):
        # the pairwise preferences by plain Monte Carlo over the joint noise,
        # in ten independent batches; t from the pooled preferences must sit
        # within the batches' Monte-Carlo error of the quadrature fit
        ell = np.random.default_rng(94).standard_normal(8)
        sigma = 0.8
        i_idx, j_idx = np.triu_indices(8, k=1)
        dl = ell[i_idx] - ell[j_idx]
        log_t = np.linspace(math.log(0.5), math.log(10.0), 4001)

        def t_of(p_bar):
            q = 1.0 / (1.0 + np.exp(-dl[None, :] / np.exp(log_t)[:, None]))
            kl = (p_bar * np.log(p_bar / q)
                  + (1 - p_bar) * np.log((1 - p_bar) / (1 - q))).sum(axis=1)
            k = int(np.argmin(kl))
            a, b, c = kl[k - 1:k + 2]          # parabola through the minimum
            h = log_t[1] - log_t[0]
            return math.exp(log_t[k] + 0.5 * h * (a - c) / (a - 2 * b + c))

        rng = np.random.default_rng(2024)
        batches = []
        for _ in range(10):
            eta = sigma * rng.standard_normal((25_000, 8))
            z = dl[None, :] + eta[:, i_idx] - eta[:, j_idx]
            batches.append((1.0 / (1.0 + np.exp(-z))).mean(axis=0))
        t_mc = t_of(np.mean(batches, axis=0))
        t_err = np.std([t_of(p) for p in batches], ddof=1) / math.sqrt(len(batches))

        fit = effective_temperature_fit(ell, sigma, draws=10_000, seed=0)
        assert 0.0 < t_err < 5e-3
        assert abs(fit.t_hat - t_mc) <= 4.0 * t_err


def _logistic_density_reference(dl: float, sigma: float) -> float:
    """E[sigmoid(dl + sqrt(2) sigma Z)] in its other form: with L standard
    logistic, sigmoid(x) = P(L <= x), so the mean is E_L[Phi((dl - L) / s)].
    Composite Simpson over L in [-45, 45] (logistic tail mass 3e-20) with
    160000 intervals, Phi from math.erf."""
    s = math.sqrt(2.0) * sigma
    n = 160_000
    grid = np.linspace(-45.0, 45.0, n + 1)
    density = np.exp(-np.abs(grid)) / (1.0 + np.exp(-np.abs(grid))) ** 2
    cdf = np.array([0.5 * (1.0 + math.erf((dl - v) / (s * math.sqrt(2.0))))
                    for v in grid.tolist()])
    weights = np.ones(n + 1)
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    return float((weights * density * cdf).sum() * (grid[1] - grid[0]) / 3.0)


class TestPairPreference:
    @pytest.mark.parametrize("sigma", [0.05, 0.7, 5.0, 20.0, 100.0])
    def test_matches_logistic_density_reference(self, sigma):
        dl = np.array([-5.0, -1.0, 0.0, 0.3, 2.0, 6.0])
        got = analysis._pair_preference(dl, sigma)
        want = [_logistic_density_reference(d, sigma) for d in dl]
        assert np.abs(got - want).max() <= 1e-11

    def test_node_counts(self):
        # 37 nodes up to s = sqrt(2) sigma = 1, then 2 floor(18 s) + 1
        assert analysis._pair_nodes(0.0) == 37
        assert analysis._pair_nodes(1.0 / math.sqrt(2.0)) == 37
        assert analysis._pair_nodes(5.0) == 2 * math.floor(18 * math.sqrt(2.0) * 5.0) + 1
        assert analysis._pair_nodes(1.5e308) == math.inf

    def test_symmetry_and_chunks(self, monkeypatch):
        # p(-dl) = 1 - p(dl); the pair chunks change no bit of the result
        dl = np.random.default_rng(95).standard_normal(1000) * 3.0
        whole = analysis._pair_preference(dl, 2.0)
        assert np.abs(whole + analysis._pair_preference(-dl, 2.0) - 1.0).max() <= 1e-15
        monkeypatch.setattr(analysis, "_CHUNK_ELEMS", 1000)
        assert np.array_equal(analysis._pair_preference(dl, 2.0), whole)


class TestAqnTotalNoise:
    def test_quadrature(self):
        assert aqn_total_noise(3.0, [4.0], 0) == 5.0
        assert aqn_total_noise(0.0, [0.25], 0) == 0.25
        assert aqn_total_noise(0.1, [0.0], 0) == 0.1

    def test_schedule_object_and_monotone(self):
        sched = AqnSchedule(sigma_start=0.02, sigma_end=0.002, num_stages=6)
        totals = [aqn_total_noise(0.005, sched, k) for k in range(6)]
        assert totals == sorted(totals, reverse=True)
        assert totals[0] == math.hypot(0.005, 0.02)

    def test_validation(self):
        with pytest.raises(ValueError):
            aqn_total_noise(-1.0, [0.1], 0)
        for grid in (np.nan, np.inf):       # hypot would carry either to the report
            with pytest.raises(ValueError, match=f"finite and >= 0, got {grid}"):
                aqn_total_noise(grid, [0.1], 0)
        with pytest.raises(ValueError, match="stage out of range"):
            aqn_total_noise(0.0, [0.1, 0.2], 2)
        with pytest.raises(ValueError, match="stage out of range"):
            aqn_total_noise(0.0, [0.1], -1)
        with pytest.raises(ValueError, match="1-D"):
            aqn_total_noise(0.0, [[0.1]], 0)
        with pytest.raises(ValueError, match="1-D"):
            aqn_total_noise(0.0, [-0.1], 0)


def _overlapping_split(x, quant, **kwargs):
    """decompose_tensor's split of x with e_dz made e_scale, an overlap no
    quantizer can produce: <e_scale, e_dz> is then n2_scale, not 0.0."""
    d = decompose_tensor(x, quant, **kwargs)
    return dataclasses.replace(d, e_dz=d.e_scale, n2_dz=d.n2_scale,
                               ip_scale_dz=d.n2_scale)


# _overlapping_split, planted in a python -O process
_OVERLAP_SCRIPT = """
import dataclasses
import numpy as np
import mxblock.analysis as analysis
split = analysis.decompose_tensor
analysis.decompose_tensor = lambda x, quant, **kwargs: dataclasses.replace(
    d := split(x, quant, **kwargs), e_dz=d.e_scale, n2_dz=d.n2_scale,
    ip_scale_dz=d.n2_scale)
try:
    analysis.gemm_error_propagation(np.arange(32.0).reshape(4, 8), samples=1)
except Exception as exc:
    print(type(exc).__name__)
"""


# every field of a sample-set GEMM propagation as float hex: a 256x256
# Student-t weight and 300 samples, one chunk of 256x300 products, a shape
# where a BLAS gemm takes other bits at 2 threads than at 1
_SAMPLE_SET_SCRIPT = """
import numpy as np
from mxblock.analysis import gemm_error_propagation
rng = np.random.default_rng(5)
w = rng.standard_t(5.0, (256, 256))
prop = gemm_error_propagation(w, cov=rng.standard_normal((300, 256)), samples=200, seed=1)
for field in ("var_scale", "var_dz", "var_grid", "var_total", "cross_scale_grid",
              "cross_scale_dz", "cross_dz_grid", "mc_estimate"):
    print(field, getattr(prop, field).hex())
"""


class TestGemmPropagation:
    def test_overlapping_deadzone_raises(self, monkeypatch):
        monkeypatch.setattr(analysis, "decompose_tensor", _overlapping_split)
        with pytest.raises(InvariantViolation):
            gemm_error_propagation(np.arange(32.0).reshape(4, 8), samples=1)

    def test_overlapping_deadzone_raises_under_python_O(self):
        src = os.path.dirname(os.path.dirname(mxblock.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        run = subprocess.run([sys.executable, "-O", "-c", _OVERLAP_SCRIPT],
                             env={**os.environ, "PYTHONPATH": path},
                             capture_output=True, text=True, check=True)
        assert run.stdout.strip() == "InvariantViolation"

    def test_isotropic_matches_decomposition_bitwise(self):
        rng = np.random.default_rng(94)
        w = rng.standard_normal((96, 128))
        prop = gemm_error_propagation(w, samples=100, seed=0)
        d = decompose_tensor(w, BlockQuantConfig())
        assert prop.var_total == d.n2_total
        assert prop.var_scale == d.n2_scale
        assert prop.var_dz == d.n2_dz
        assert prop.var_grid == d.n2_grid
        assert prop.cross_scale_grid == d.ip_scale_grid
        assert prop.cross_scale_dz == 0.0 and prop.cross_dz_grid == 0.0
        assert prop.identity_residual <= 1e-12
        assert prop.cov_mode == "isotropic"

    def test_isotropic_traces_are_var_times_split_sums(self):
        # 1024 rows of 1024 are 32 pieces of the split; each adds its sums,
        # as decompose_tensor's own pass does, so the traces are var times
        # those sums bit for bit, not a second dot over whole matrices
        rng = np.random.default_rng(104)
        w = rng.standard_normal((1024, 1024))
        prop = gemm_error_propagation(w, cov=0.37, samples=1)
        d = decompose_tensor(w, BlockQuantConfig(), keep_errors=False)
        sums = {"var_scale": d.n2_scale, "var_dz": d.n2_dz, "var_grid": d.n2_grid,
                "var_total": d.n2_total, "cross_scale_grid": d.ip_scale_grid,
                "cross_scale_dz": d.ip_scale_dz, "cross_dz_grid": d.ip_dz_grid}
        for field, v in sums.items():
            assert getattr(prop, field).hex() == (0.37 * v).hex(), field
        assert prop.cross_scale_dz == 0.0 and prop.cross_dz_grid == 0.0

    @pytest.mark.parametrize("mbs", [None, MbsConfig(macro_block_size=128)])
    def test_memory_grows_by_one_weight_at_most(self, mbs):
        # only e_total is weight-sized; the other errors live one piece at a
        # time, and a SynthTensor weight is drawn piece by piece
        peaks = {}
        for n in (1024, 2048):
            w = synth_tensors(SynthSpec("gaussian", (n, n), seed=105))["gaussian_0000"]
            tracemalloc.start()
            try:
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
                gemm_error_propagation(w, samples=10, mbs=mbs)
                peaks[n] = tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()
        assert peaks[2048] - peaks[1024] <= 8 * 2048 * 2048, peaks

    @pytest.mark.parametrize("mbs", [None, MbsConfig(macro_block_size=64)])
    def test_stored_weight_is_read_in_pieces(self, tmp_path, monkeypatch, mbs):
        # a 256x512 weight is four pieces, read from the file one at a time;
        # the whole-tensor read (np.asarray) is never taken
        rng = np.random.default_rng(106)
        w = rng.standard_t(5.0, (256, 512))
        ts = TensorSet()
        ts.add("w", w)
        path = str(tmp_path / "w.tensors")
        save_container(ts, path)
        kwargs = {"cov": rng.uniform(0.5, 2.0, 512), "samples": 50, "mbs": mbs}
        want = gemm_error_propagation(w, **kwargs)

        def whole(self, dtype=None, copy=None):
            raise AssertionError(f"tensor {self.name} read whole")

        monkeypatch.setattr(TensorSource, "__array__", whole)
        with ContainerReader(path) as reader:
            got = gemm_error_propagation(reader.tensors["w"], **kwargs)
        assert [repr(v) for v in dataclasses.astuple(got)] == \
            [repr(v) for v in dataclasses.astuple(want)]

    def test_isotropic_variance_scales(self):
        rng = np.random.default_rng(95)
        w = rng.standard_normal((32, 64))
        a = gemm_error_propagation(w, cov=1.0, samples=10)
        b = gemm_error_propagation(w, cov=2.0, samples=10)
        assert b.var_total == 2.0 * a.var_total

    def test_mc_agrees_with_analytic(self):
        rng = np.random.default_rng(96)
        w = rng.standard_normal((128, 128))
        prop = gemm_error_propagation(w, samples=10_000, seed=1)
        assert abs(prop.mc_estimate - prop.var_total) / prop.var_total < 0.02

    def test_diagonal_mode(self):
        rng = np.random.default_rng(97)
        w = rng.standard_normal((48, 64))
        d = rng.uniform(0.5, 2.0, size=64)
        prop = gemm_error_propagation(w, cov=d, samples=100)
        e_t = decompose_tensor(w, BlockQuantConfig()).e_total
        want = float((d * (e_t ** 2).sum(axis=0)).sum())
        assert prop.var_total == pytest.approx(want, rel=1e-12)
        assert prop.cov_mode == "diagonal"

    def test_sample_set_mode(self):
        rng = np.random.default_rng(98)
        w = rng.standard_normal((32, 40))
        xs = rng.standard_normal((500, 40)) * np.linspace(0.5, 2.0, 40)
        prop = gemm_error_propagation(w, cov=xs, samples=2000, seed=2)
        sigma = xs.T @ xs / xs.shape[0]
        e_t = decompose_tensor(w, BlockQuantConfig()).e_total
        want = float(np.trace(e_t.T @ e_t @ sigma))
        assert prop.var_total == pytest.approx(want, rel=1e-9)
        assert prop.cov_mode == "samples"
        # resampling rows reproduces the analytic trace
        assert prop.mc_estimate == pytest.approx(want, rel=0.1)

    @pytest.mark.parametrize("mode", ["diagonal", "samples"])
    def test_overflowing_traces_are_inf_without_warning(self, mode):
        # |w| ~ 1e160 needs block scales past E8M0's range: refused by name.
        # The traces of a unit-scale w against variances of 1e308 or
        # samples of 1e160 pass 1.8e308: they and the Monte Carlo term are
        # inf (or nan for a cross trace), as the isotropic ones, and no numpy
        # warning is raised
        rng = np.random.default_rng(103)
        w = 1e160 * rng.standard_normal((4, 256))
        cov = np.ones(256) if mode == "diagonal" else rng.standard_normal((8, 256))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="E8M0's range"):
                gemm_error_propagation(w, cov=cov, samples=50)
            prop = gemm_error_propagation(w / 1e160, cov=cov * (1e308 if mode == "diagonal"
                                                                else 1e160), samples=50)
        assert prop.cov_mode == mode
        assert prop.var_total == math.inf and prop.mc_estimate == math.inf

    def test_sample_set_traces_match_sigma_formula(self, monkeypatch):
        # each trace is taken over chunks of samples (16 here, so five); the
        # formula through the n_in x n_in Sigma = X^T X / n gives the same
        monkeypatch.setattr(analysis, "_STREAM_ELEMS", 16 * 96)
        rng = np.random.default_rng(101)
        w = rng.standard_normal((24, 96))
        xs = rng.standard_normal((70, 96)) * np.linspace(0.5, 2.0, 96)
        prop = gemm_error_propagation(w, cov=xs, samples=10)
        sigma = xs.T @ xs / xs.shape[0]
        d = decompose_tensor(w, BlockQuantConfig())
        e_s, e_d, e_g, e_t = d.e_scale, d.e_dz, d.e_grid, d.e_total
        pairs = {"var_scale": (e_s, e_s), "var_dz": (e_d, e_d), "var_grid": (e_g, e_g),
                 "var_total": (e_t, e_t), "cross_scale_grid": (e_s, e_g),
                 "cross_scale_dz": (e_s, e_d), "cross_dz_grid": (e_d, e_g)}
        for field, (a, b) in pairs.items():
            want = float((b * (a @ sigma)).sum())
            assert getattr(prop, field) == pytest.approx(want, rel=1e-12, abs=0), field

    def test_sample_set_memory_is_not_n_in_squared(self):
        # Sigma for a 30000-wide input is 7.2 GB; the chunked traces hold
        # one (n_out, chunk) product per matrix
        rng = np.random.default_rng(102)
        w = rng.standard_normal((3, 30000))
        xs = rng.standard_normal((50, 30000))
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            prop = gemm_error_propagation(w, cov=xs, samples=20)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert prop.cov_mode == "samples" and prop.var_total > 0
        assert peak < 64 * 1024 * 1024, peak

    def test_sample_set_same_bits_at_one_and_two_threads(self):
        src = os.path.dirname(os.path.dirname(mxblock.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        outputs = []
        for threads in ("1", "2"):
            run = subprocess.run(
                [sys.executable, "-c", _SAMPLE_SET_SCRIPT],
                env={**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": threads},
                capture_output=True, text=True)
            assert run.returncode == 0, run.stderr
            outputs.append(run.stdout.split("\n"))
        assert len(outputs[0]) == 9                    # eight fields and the last newline
        assert outputs[0] == outputs[1]

    def test_mbs_variant(self):
        rng = np.random.default_rng(99)
        w = rng.standard_normal((64, 64))
        plain = gemm_error_propagation(w, samples=10)
        withm = gemm_error_propagation(w, samples=10,
                                       mbs=MbsConfig(macro_block_size=32))
        assert withm.identity_residual <= 1e-9
        assert withm.var_scale < plain.var_scale
        assert abs(withm.dropped_cross_fraction) < 0.1

    def test_validation(self):
        w = np.ones((4, 32))
        with pytest.raises(ValueError, match="2-D"):
            gemm_error_propagation(np.ones(8))
        with pytest.raises(ValueError):
            gemm_error_propagation(w, cov=0.0)
        with pytest.raises(ValueError, match="length mismatch"):
            gemm_error_propagation(w, cov=np.ones(5))
        with pytest.raises(ValueError, match="positive"):
            gemm_error_propagation(w, cov=np.zeros(32))
        for bad in (math.nan, math.inf):
            # refused as input: its nan traces would fail the isotropic
            # deadzone check, which reports a kernel fault (exit 3)
            with pytest.raises(ValueError, match="isotropic variance must be finite"):
                gemm_error_propagation(w, cov=bad)
            with pytest.raises(ValueError, match="must be finite and positive"):
                gemm_error_propagation(w, cov=np.r_[np.ones(31), bad])
        with pytest.raises(ValueError, match="width mismatch"):
            gemm_error_propagation(w, cov=np.ones((10, 5)))
        with pytest.raises(ValueError):
            gemm_error_propagation(w, samples=0)


class TestEffectiveRankAndTruncate:
    def test_identity_rank(self):
        assert effective_rank(np.eye(16)) == pytest.approx(16.0, abs=1e-9)

    def test_rank_one(self):
        u = np.arange(1.0, 9.0)
        assert effective_rank(np.outer(u, u)) == pytest.approx(1.0, abs=1e-9)

    def test_scale_invariance(self):
        rng = np.random.default_rng(100)
        m = rng.standard_normal((24, 24))
        assert effective_rank(3.0 * m) == pytest.approx(effective_rank(m),
                                                        rel=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError, match="zero matrix"):
            effective_rank(np.zeros((4, 4)))
        with pytest.raises(ValueError, match="2-D"):
            effective_rank(np.ones(4))

    def test_truncate_zeroes_exactly_the_deadzone(self):
        rng = np.random.default_rng(101)
        x = rng.standard_normal((16, 64))
        cfg = BlockQuantConfig()
        t = deadzone_truncate(x, cfg)
        view = block_view(x, cfg)
        _, _, dead, _ = qdq_views(view, cfg)
        dead_full = view.restore(dead.astype(np.float64)) > 0.5
        assert (t[dead_full] == 0.0).all()
        assert np.array_equal(t[~dead_full], x[~dead_full])
        assert dead_full.any()

    def test_truncate_zero_tensor(self):
        x = np.zeros((2, 32))
        assert np.array_equal(deadzone_truncate(x), x)


class TestCrossTermVsBlocksize:
    def test_idealized_rms_decays_but_cos_does_not(self):
        rows = cross_term_vs_blocksize(b_list=(8, 32, 128, 512),
                                       blocks_per_b=4000, seed=7)
        assert [r["block_size"] for r in rows] == [8, 32, 128, 512]
        rms = [r["idealized_cross_rms"] for r in rows]
        for a, b in zip(rms, rms[1:]):
            assert a / b > 1.5  # roughly 2x per 4x block size
        for r in rows:
            assert -0.75 < r["cos_scale_grid"] < -0.5
            assert r["n_blocks_live"] == 4000
            assert r["cross_share"] < 0.0

    def test_validation(self):
        with pytest.raises(ValueError, match="unknown distribution"):
            cross_term_vs_blocksize(distribution="cauchy")
        with pytest.raises(ValueError):
            cross_term_vs_blocksize(b_list=(1, 8))
