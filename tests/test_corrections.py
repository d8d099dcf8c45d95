import hashlib
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from conftest import joined
from mxblock import corrections
from mxblock.corrections import (
    MBS_LEVELS,
    AqnSchedule,
    MbsConfig,
    OfConfig,
    aqn_pieces,
    mbs_qdq,
    of_qdq,
)
from mxblock.decompose import decompose_quantizers, decompose_tensor
from mxblock.formats import (
    GRID_MIDPOINTS,
    ceil_scale_array,
    grid_round_array,
)
from mxblock.quantize import (
    _CHUNK_ELEMS,
    BlockQuantConfig,
    _Workspace,
    block_view,
    qdq_tensor,
    qdq_views,
)


def _plain_qdq(x, quant):
    view = block_view(x, quant)
    qdq, _, _, _ = qdq_views(view, quant)
    return view.restore(qdq)


class TestConfigs:
    def test_mbs_defaults_and_validation(self):
        mbs = MbsConfig()
        assert mbs.macro_block_size == 128
        with pytest.raises(ValueError):
            MbsConfig(macro_block_size=0)
        with pytest.raises(ValueError, match="multiple"):
            MbsConfig(macro_block_size=48).validate_against(BlockQuantConfig())

    def test_of_alpha_range(self):
        assert OfConfig().alpha == 0.5
        with pytest.raises(ValueError):
            OfConfig(alpha=1.5)
        with pytest.raises(ValueError):
            OfConfig(alpha=-0.1)

    def test_aqn_schedule_validation(self):
        with pytest.raises(ValueError):
            AqnSchedule(sigma_start=0.001, sigma_end=0.01)
        with pytest.raises(ValueError):
            AqnSchedule(sigma_end=0.0)
        with pytest.raises(ValueError):
            AqnSchedule(num_stages=0)


class TestMbsSelection:
    def test_prescale_keeps_grid_decisions(self):
        # the selected prescale moves the coded scale, never the rounding
        # decisions: indices under s_star are invariant to (1 + k/256)
        rng = np.random.default_rng(61)
        quant = BlockQuantConfig()
        for _ in range(50):
            x = rng.standard_normal(256)
            k = int(rng.integers(0, MBS_LEVELS))
            pre = 1.0 + k / MBS_LEVELS
            v1 = block_view(x, quant)
            v2 = block_view(pre * x, quant)
            g1 = grid_round_array(v1.blocks / v1.s_star[:, None])
            g2 = grid_round_array(v2.blocks / v2.s_star[:, None])
            assert np.array_equal(g1, g2)
            _, q1, _, _ = qdq_views(v1, quant)
            _, q2, _, _ = qdq_views(v2, quant)
            np.testing.assert_allclose(q2 / pre, q1, atol=1e-12)

    def test_closed_form_against_scan_oracle(self):
        # smallest k with (1 + k/256) <= gamma, found by linear scan
        rng = np.random.default_rng(62)
        quant = BlockQuantConfig(block_size=32)
        mbs = MbsConfig(macro_block_size=32)
        for _ in range(200):
            macro = rng.standard_normal(32) * 2.0 ** rng.integers(-3, 4)
            s_star = np.abs(macro).max() / 6.0
            s_dec, _, _ = ceil_scale_array(np.array([s_star]), 0)
            gamma = float(s_dec[0] / s_star)
            want = 0
            for k in range(MBS_LEVELS):
                if 1.0 + k / MBS_LEVELS <= gamma:
                    want = k
            got = mbs_qdq(macro, mbs, quant, "closed_form")[1][0]
            assert got == want

    def test_closed_form_residual_gap(self):
        # after prescale the ratio of coded to ideal scale sits within one
        # mantissa step of 1
        rng = np.random.default_rng(63)
        quant = BlockQuantConfig(block_size=32)
        mbs = MbsConfig(macro_block_size=32)
        x = rng.laplace(size=(200, 32))
        _, codes = mbs_qdq(x, mbs, quant, mode="closed_form")
        view = block_view(x, quant)
        pres = 1.0 + codes / MBS_LEVELS
        s2, _, _ = ceil_scale_array(view.s_star * pres, 0)
        g_eff = s2 / (view.s_star * pres)
        assert (g_eff >= 1.0 - 1e-12).all()
        assert (g_eff < 1.0 + 2.0 / MBS_LEVELS).all()

    def test_gamma_mse_reduction(self):
        rng = np.random.default_rng(60)
        x = rng.standard_normal((64, 512))
        quant = BlockQuantConfig()
        view = block_view(x, quant)
        s_dec, _, _ = ceil_scale_array(view.s_star, 0)
        g0 = s_dec / view.s_star
        _, codes = mbs_qdq(x, MbsConfig(macro_block_size=32), quant,
                           mode="closed_form")
        pres = 1.0 + codes / MBS_LEVELS
        s2, _, _ = ceil_scale_array(view.s_star * pres, 0)
        g1 = s2 / (view.s_star * pres)
        ratio = ((g0 - 1) ** 2).mean() / ((g1 - 1) ** 2).mean()
        assert ratio > 1e4  # measured ~7.9e4

    def test_exhaustive_minimizes(self):
        # exhaustive search can never lose to the closed form or to no
        # prescale, macro by macro
        rng = np.random.default_rng(64)
        quant = BlockQuantConfig(block_size=32)
        mbs = MbsConfig(macro_block_size=64)
        for _ in range(20):
            macro = rng.standard_normal(64)
            k_ex = mbs_qdq(macro, mbs, quant, "exhaustive")[1][0]
            k_cf = mbs_qdq(macro, mbs, quant, "closed_form")[1][0]

            def mse(k):
                pre = 1.0 + k / MBS_LEVELS
                return float(((_plain_qdq(pre * macro, quant) / pre
                               - macro) ** 2).mean())

            assert mse(k_ex) <= mse(k_cf) + 1e-18
            assert mse(k_ex) <= mse(0) + 1e-18

    def test_exhaustive_first_minimum(self):
        # ties break toward the smallest code
        quant = BlockQuantConfig(block_size=4)
        mbs = MbsConfig(macro_block_size=4)
        k = mbs_qdq(np.array([4.0, 2.0, 1.0, 0.5]), mbs, quant, "exhaustive")[1][0]
        assert k == 0  # exact-power max: every error is minimal at k=0

    def test_all_zero_macro(self):
        quant = BlockQuantConfig(block_size=4)
        mbs = MbsConfig(macro_block_size=4)
        for mode in ("exhaustive", "closed_form"):
            assert mbs_qdq(np.zeros(4), mbs, quant, mode)[1][0] == 0

    def test_validation(self):
        quant = BlockQuantConfig()
        mbs = MbsConfig(macro_block_size=32)
        with pytest.raises(ValueError, match="mode"):
            mbs_qdq(np.ones(32), mbs, quant, mode="greedy")
        with pytest.raises(ValueError, match="non-finite"):
            mbs_qdq(np.array([np.nan] * 32), mbs, quant)


def _brute_force_code(macro, quant):
    """argmin over k of the macro's squared error, one plain QDQ per
    prescale; the strict < keeps the smallest k on ties."""
    best_k, best = 0, None
    for k in range(MBS_LEVELS):
        pre = 1.0 + k / MBS_LEVELS
        err = float(((_plain_qdq(pre * macro, quant) / pre - macro) ** 2).sum())
        if best is None or err < best:
            best_k, best = k, err
    return best_k


class TestExhaustiveShortcut:
    """Exhaustive MBS derives every trial's scales from the macro's own
    sub-block maxima and rounds Q only; its codes must be those of running
    the whole plain quantizer on each prescaled macro."""

    @pytest.mark.parametrize("block_size", [16, 32])
    @pytest.mark.parametrize("mantissa_bits", [0, 3, 8])
    def test_codes_match_brute_force(self, block_size, mantissa_bits):
        rng = np.random.default_rng(100 + 10 * block_size + mantissa_bits)
        quant = BlockQuantConfig(block_size=block_size,
                                 scale_mantissa_bits=mantissa_bits)
        macro = 4 * block_size
        # two full macros and a ragged tail per row, rows at different scales;
        # more macros than one trial chunk holds
        x = rng.standard_normal((4, 2 * macro + 40))
        x *= 2.0 ** rng.integers(-20, 20, size=(4, 1))
        x[0, :block_size] = 0.0                      # an all-zero sub-block
        x[1, macro:2 * macro] = 0.0                  # an all-zero macro
        _, codes = mbs_qdq(x, MbsConfig(macro_block_size=macro), quant, "exhaustive")
        # mbs_qdq zero-pads the tail macro to the full macro size
        padded = np.pad(x, ((0, 0), (0, 3 * macro - x.shape[1])))
        want = [_brute_force_code(m, quant) for m in padded.reshape(-1, macro)]
        assert codes.tolist() == want
        assert len(set(want)) > 2                    # the selection is not trivial

    def test_prescale_overflow_raises(self):
        # 1.7e308 * (1 + k/256) overflows float64 from k = 15 on, and its
        # scale is past E8M0's range at every code
        quant = BlockQuantConfig(scale_mantissa_bits=3)
        x = np.full(128, 1.7e308)
        with pytest.raises(ValueError, match="E8M0's range"):
            mbs_qdq(x, MbsConfig(), quant, "exhaustive")

    @pytest.mark.parametrize("mode", ["exhaustive", "closed_form"])
    @pytest.mark.parametrize("bits", [0, 3])
    def test_one_prescale_domain_for_both_modes(self, mode, bits):
        # the domain is every coded scale, that at the largest prescale p_255
        # = 511/256 too, within E8M0's range, in either mode, refused without
        # a warning past it: at 1.5e308 (whose prescales overflow float64)
        # and 9.0e307 (whose prescales do not), and from the float after the
        # largest maximum top whose fl(fl(top p_255) / 6) is at most E8M0's
        # largest scale, 2^127 (2 - 2^-M)
        quant = BlockQuantConfig(scale_mantissa_bits=bits)
        largest = 2.0 ** 127 * (2.0 - 2.0 ** -bits)
        top = np.float64(largest * 6.0 / (511 / 256))
        while top * (511 / 256) / 6.0 <= largest:
            top = np.nextafter(top, np.inf)
        while top * (511 / 256) / 6.0 > largest:
            top = np.nextafter(top, 0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for past in (1.5e308, 9.0e307, np.nextafter(top, np.inf)):
                with pytest.raises(ValueError, match="E8M0's range"):
                    mbs_qdq(np.full(128, past), MbsConfig(), quant, mode)
            x_hat, _ = mbs_qdq(np.full(128, top), MbsConfig(), quant, mode)
        assert np.isfinite(x_hat).all()

    @pytest.mark.parametrize("mode", ["exhaustive", "closed_form"])
    @pytest.mark.parametrize("bits", [0, 3])
    def test_step_range_check_at_the_largest_scale(self, mode, bits):
        # the step's check compares top = fl(fl(m_b p_255) / 6) with the
        # largest scale in Python floats and calls the coder only to refuse:
        # a top exactly at 2^127 (2 - 2^-M) is taken, the float above it is
        # refused with the coder's own message, as coding top itself gives
        quant = BlockQuantConfig(scale_mantissa_bits=bits)
        largest = 2.0 ** 127 * (2.0 - 2.0 ** -bits)
        p = float(corrections._PRESCALES[MBS_LEVELS - 1])
        for want in (largest, np.nextafter(largest, np.inf)):
            m = want * 6.0 / p
            while m * p / 6.0 != want:
                m = np.nextafter(m, np.inf if m * p / 6.0 < want else 0.0)
            x = np.ones((1, 128))
            x[0, 5] = m
            if want == largest:
                ceil_scale_array(np.array([want]), bits)
                x_hat, _ = mbs_qdq(x, MbsConfig(), quant, mode)
                assert np.isfinite(x_hat).all()
                continue
            message = ("block scale past E8M0's range: its ceiling needs exponent 128, "
                       "above the largest, 127")
            with pytest.raises(ValueError) as coded:
                ceil_scale_array(np.array([want]), bits)
            with pytest.raises(ValueError) as stepped:
                mbs_qdq(x, MbsConfig(), quant, mode)
            assert str(coded.value) == str(stepped.value) == message


def _sweep_errors(macros, quant):
    """(n, 256) errors of every trial of every macro, each from the direct
    evaluator: the sweep whose argmin the exhaustive codes must be."""
    cand = np.ones((len(macros), MBS_LEVELS), dtype=bool)
    chunks = corrections._trial_errors(np.abs(macros), _sub_max(macros, quant.block_size),
                                       cand, quant, _Workspace())
    return np.concatenate([errors for _, _, errors, _ in chunks]).reshape(cand.shape)


def _macros(x, mbs):
    return block_view(x, BlockQuantConfig(block_size=mbs.macro_block_size)).blocks


def _sub_max(macros, B):
    """(n, macro / B) maxima of |x| over the sub-blocks of each macro."""
    return np.abs(macros).reshape(len(macros), -1, B).max(axis=2)


# Magnitudes from subnormals, the least normal and the float below it, to
# the largest floats whose prescales by 511/256 are finite, far past the MBS
# domain (E8M0's range)
_MBS_EDGE_MAGNITUDES = [0.0, 5e-324, 2.0 ** -1060, float(np.nextafter(2.0 ** -1022, 0.0)),
                        2.0 ** -1022, 1.0, 8e307, 2.0 ** 1023]


@st.composite
def _sub_max_cases(draw):
    """(x, B, macro): (rows, n) inputs ragged against the macro, with -0.0,
    subnormals and magnitudes up to 2^1023, picked from a drawn pool. Pools
    with magnitudes past the MBS domain are refused at the first step that
    holds one."""
    B = draw(st.integers(1, 64))
    macro = B * draw(st.integers(1, 4))
    shape = draw(st.tuples(st.integers(1, 3), st.integers(1, 300)))
    values = st.one_of(st.floats(-8e307, 8e307),
                       st.sampled_from([v for m in _MBS_EDGE_MAGNITUDES for v in (m, -m)]))
    pool = np.array(draw(st.lists(values, min_size=1, max_size=12)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    return pool[rng.integers(0, pool.size, size=shape)], B, macro


class TestSubBlockMaxima:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(_sub_max_cases())
    def test_steps_take_reference_maxima(self, case):
        # every step's sub-block maxima, as _step_codes receives them, are
        # _sub_max of that step's magnitudes, bit for bit; a step with a
        # maximum past the domain is refused before it gets there
        x, B, macro = case
        seen = []
        real = corrections._step_codes

        def spy(mag, sub_max, *args):
            seen.append((mag.copy(), sub_max.copy()))
            return real(mag, sub_max, *args)

        with np.errstate(over="ignore"):
            past = (np.abs(x) * (511 / 256) / 6.0 > 2.0 ** 127).any()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(corrections, "_step_codes", spy)
            if past:
                with pytest.raises(ValueError, match="E8M0's range"):
                    mbs_qdq(x, MbsConfig(macro_block_size=macro),
                            BlockQuantConfig(block_size=B), "closed_form")
            else:
                mbs_qdq(x, MbsConfig(macro_block_size=macro), BlockQuantConfig(block_size=B),
                        "closed_form")
        n = sum(mag.size for mag, _ in seen)
        assert n < x.size if past else n == len(x) * -(-x.shape[1] // macro) * macro
        for mag, sub_max in seen:
            assert np.array_equal(sub_max.view(np.uint64), _sub_max(mag, B).view(np.uint64))


_EDGE_U = sorted({float(v) for m in (*GRID_MIDPOINTS, 0.5, 1.0, 6.0)
                  for v in (m, np.nextafter(m, 0.0), np.nextafter(m, 7.0))})


@st.composite
def _exhaustive_cases(draw, mantissa_bits=(0, 3, 8)):
    lead = draw(hnp.array_shapes(min_dims=0, max_dims=2, min_side=1, max_side=3))
    shape = lead + (draw(st.integers(1, 200)),)
    elements = st.one_of(
        st.floats(-6.0, 6.0, allow_nan=False, allow_subnormal=False),
        st.sampled_from(_EDGE_U + [-u for u in _EDGE_U]))
    x = draw(hnp.arrays(np.float64, shape, elements=elements))
    block_size = draw(st.integers(1, 32))
    if draw(st.booleans()):
        x.reshape(-1, shape[-1])[:, ::block_size] = 6.0   # sub-block maxima on ties
    if draw(st.booleans()):                               # heavy tails
        x = x * np.exp2(draw(hnp.arrays(np.int64, shape, elements=st.integers(-12, 12))))
    if draw(st.booleans()):                               # BF16 values
        x = (x.astype(np.float32).view(np.uint32) & np.uint32(0xFFFF0000)
             ).view(np.float32).astype(np.float64)
    quant = BlockQuantConfig(block_size=block_size,
                             scale_mantissa_bits=draw(st.sampled_from(mantissa_bits)))
    return x, quant, MbsConfig(macro_block_size=block_size * draw(st.integers(1, 8)))


def _bf16_ties():
    """Multiples of 1/16 with at most 7 significant bits: BF16 values whose
    prescaled quotients land exactly on grid midpoints at many codes."""
    rng = np.random.default_rng(81)
    x = rng.integers(-96, 97, size=(4, 128)) / 16.0
    x *= 2.0 ** rng.integers(-2, 3, size=(4, 1))
    return x


def _crossings_at_codes():
    """Each sub-block max is 3.015625: its scale is 1 up to code 254. The
    other elements are c_j / p_k and their neighbours, so u = p_k x meets
    midpoint c_j at code k exactly or within one rounding."""
    rng = np.random.default_rng(89)
    k = rng.integers(1, 250, size=(64, 7))
    x = np.nextafter(GRID_MIDPOINTS / (1.0 + k / MBS_LEVELS),
                     np.where(rng.random(k.shape) < 0.5, 0.0, 7.0))
    x = np.where(rng.random(k.shape) < 0.4, GRID_MIDPOINTS / (1.0 + k / MBS_LEVELS), x)
    x = np.where(x < 3.015625, x, 0.1)
    return np.concatenate([np.full((64, 1), 3.015625), x], axis=1)


def _one_block_macros(block_size):
    rng = np.random.default_rng(84 + block_size)
    return rng.standard_t(3, size=(6, 4 * block_size))


def _sparse_zero_sub_blocks():
    rng = np.random.default_rng(85)
    x = np.where(rng.random((6, 128)) < 0.05, rng.standard_normal((6, 128)), 0.0)
    x[0, :32] = 0.0                              # all-zero sub-blocks
    x[1, 64:] = 0.0                              # an all-zero macro
    x[2, 7] = 1.0                                # one-hot macros
    x[2, 64:] = 0.0
    x[2, 100] = -0.375
    return x


def _ragged_tails():
    rng = np.random.default_rng(86)
    return rng.laplace(size=(3, 200))            # tails of 8 elements at macro 64


def _just_above_ranked_floor():
    """Macros of four sub-blocks whose maxima are the float above
    _RANKED_FLOOR, or 1, in every pattern: the least maxima ranked."""
    top = np.array([[a, b, c, d] for a in (0, 1) for b in (0, 1) for c in (0, 1)
                    for d in (0, 1)], dtype=float)
    top = np.where(top == 0, np.nextafter(corrections._RANKED_FLOOR, 1.0), 1.0)
    rng = np.random.default_rng(95)
    u = rng.uniform(-1.0, 1.0, size=(len(top), 4, 32))
    u[:, :, 0] = np.where(rng.random(top.shape) < 0.5, -1.0, 1.0)
    return (u * top[:, :, None]).reshape(len(top), 128)


# The fixed inputs on which the closed form is hardest to get right, as
# (x, block size, macro size)
_HARD_INPUTS = {
    "bf16_midpoint_ties": lambda: (_bf16_ties(), 32, 64),
    "crossings_at_codes": lambda: (_crossings_at_codes(), 8, 8),
    "ragged_tails": lambda: (_ragged_tails(), 8, 64),
    "sparse_zero_sub_blocks": lambda: (_sparse_zero_sub_blocks(), 16, 64),
    "one_block_macros_1": lambda: (_one_block_macros(1), 1, 1),
    "one_block_macros_8": lambda: (_one_block_macros(8), 8, 8),
    "one_block_macros_32": lambda: (_one_block_macros(32), 32, 32),
    "just_above_ranked_floor": lambda: (_just_above_ranked_floor(), 32, 128),
}


class TestExhaustiveExactPath:
    """At M = 0 the exhaustive codes come from a closed form over all 256
    codes, settled by evaluating only the few codes near its minimum. They
    must be the codes of evaluating every trial, on the inputs where the
    closed form is hardest to get right."""

    @staticmethod
    def _check(x, block_size, macro):
        quant = BlockQuantConfig(block_size=block_size)
        _, codes = mbs_qdq(x, MbsConfig(macro_block_size=macro), quant, "exhaustive")
        rows = x.reshape(-1, x.shape[-1])
        padded = np.pad(rows, ((0, 0), (0, -rows.shape[1] % macro)))
        want = [_brute_force_code(m, quant) for m in padded.reshape(-1, macro)]
        assert codes.tolist() == want
        return want

    def test_bf16_midpoint_ties(self):
        x = _bf16_ties()
        bf16 = (x.astype(np.float32).view(np.uint32) & np.uint32(0xFFFF0000)
                ).view(np.float32).astype(np.float64)
        assert np.array_equal(bf16, x)
        quant = BlockQuantConfig(block_size=32)
        macros = x.reshape(-1, 64)
        pres = 1.0 + np.arange(MBS_LEVELS) / MBS_LEVELS
        u = pres[:, None] * np.abs(macros[0]) / ceil_scale_array(
            np.abs(macros[0, :32]).max() * pres / 6.0, 0)[0][:, None]
        assert np.isin(u[:, :32], GRID_MIDPOINTS).any()   # exact ties do occur
        assert len(set(self._check(x, quant.block_size, 64))) > 2

    def test_crossings_at_codes(self):
        # At such codes the real-arithmetic crossing is off by one unless
        # checked with the float expression, and the tie table decides the
        # crossing code.
        x = _crossings_at_codes()
        # one sub-block per macro: S2 = sum (s g)^2 is exact, so it must equal
        # the sum over the sweep's own grid magnitudes at every code
        pres = 1.0 + np.arange(MBS_LEVELS) / MBS_LEVELS
        t = pres[:, None, None] * x                          # (256, 64, 8)
        s, _, _ = ceil_scale_array(t.max(axis=2) / 6.0, 0)
        g = grid_round_array(t / s[:, :, None])
        want = ((s[:, :, None] * g) ** 2).sum(axis=2).T
        s2, _ = corrections._grid_sums(x, _sub_max(x, 8))
        assert np.array_equal(s2, want)
        assert np.isin(t / s[:, :, None], GRID_MIDPOINTS).any()
        self._check(x[:16], 8, 8)

    def test_subnormal_edge(self):
        # rows from subnormal to 2^-480, below the ranked floor, and a normal
        # row with one subnormal element, which is ranked
        rng = np.random.default_rng(82)
        x = rng.standard_normal((5, 96))
        x *= 2.0 ** np.array([-1070, -1060, -540, -480, 0])[:, None]
        x[4, 5] = 3 * 2.0 ** -1074
        self._check(x, 16, 48)

    def test_near_overflow(self):
        # rows at 2^490 and 2^505 and one whose maximum is 8.5e307: every
        # prescale stays finite (p_255 max < 2^1024), but the scales are far
        # past E8M0's range, so the rows are refused, without a warning, one
        # by one too
        rng = np.random.default_rng(83)
        x = rng.standard_normal((3, 64))
        x *= 2.0 ** np.array([490, 505, 0])[:, None]
        x[2] *= 1.7e308 / (2.0 * np.abs(x[2]).max())
        quant = BlockQuantConfig(block_size=32)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for rows in (x, *x[:, None]):
                with pytest.raises(ValueError, match="E8M0's range"):
                    mbs_qdq(rows, MbsConfig(macro_block_size=64), quant, "exhaustive")

    @pytest.mark.parametrize("bits", [0, 3])
    def test_ranked_floor(self, bits, monkeypatch):
        # Macros whose four sub-blocks have the maxima a, b, a, b, for every
        # pair of 1e-40, 3 * 2^-127 (the last maximum whose scale E8M0 clamps
        # at code 0), the floats around it and 1. At M = 0 a macro is ranked
        # in closed form exactly when no maximum is at or below 3 * 2^-127,
        # and at every M its code is the sweep's
        floor = 3 * 2.0 ** -127
        tops = [1e-40, np.nextafter(floor, 0.0), floor, np.nextafter(floor, 1.0), 1.0]
        top = np.array([[a, b, a, b] for a in tops for b in tops])
        rng = np.random.default_rng(93)
        u = rng.uniform(-1.0, 1.0, size=(len(top), 4, 32))
        u[:, :, 0] = np.where(rng.random(top.shape) < 0.5, -1.0, 1.0)
        x = (u * top[:, :, None]).reshape(len(top), 128)
        ranked = []
        real = corrections._approx_errors

        def spy(mag, sub_max, work):
            ranked.append(sub_max.copy())
            return real(mag, sub_max, work)

        monkeypatch.setattr(corrections, "_approx_errors", spy)
        quant = BlockQuantConfig(scale_mantissa_bits=bits)
        _, codes = mbs_qdq(x, MbsConfig(), quant, "exhaustive")
        assert np.array_equal(codes, _sweep_errors(x, quant).argmin(axis=1))
        if bits == 0:
            assert np.array_equal(np.concatenate(ranked), top[(top > floor).all(axis=1)])
        else:
            assert not ranked

    def test_closed_form_code_of_a_clamped_macro(self):
        # Below E8M0's range the scale is held at 2^-127: at 2^-126 for the
        # first codes, at every code for 1e-40. The ceiling over s = m / 6 is
        # then above 2, so the closed form takes k = 255, the largest
        # prescale 511/256, which uses the most of the grid under the held
        # scale. Its x_hat is Q(p x) / p at that code
        rng = np.random.default_rng(94)
        x = rng.standard_normal((2, 128))
        x[0] *= 2.0 ** -126 / np.abs(x[0]).max()
        x[1] *= 1e-40
        quant = BlockQuantConfig()
        x_hat, codes = mbs_qdq(x, MbsConfig(), quant, "closed_form")
        assert codes.tolist() == [255, 255]
        p = 511 / 256
        assert np.array_equal(x_hat, qdq_tensor(p * x, quant) / p)
        assert x_hat[0].any() and not x_hat[1].any()

    @pytest.mark.parametrize("block_size", [1, 8, 32])
    def test_macro_is_one_block(self, block_size):
        self._check(_one_block_macros(block_size), block_size, block_size)

    def test_sparse_with_zero_sub_blocks_and_macros(self):
        want = self._check(_sparse_zero_sub_blocks(), 16, 64)
        assert want[3] == 0                          # the all-zero macro

    def test_ragged_tail_macros(self):
        self._check(_ragged_tails(), 8, 64)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(_exhaustive_cases())
    def test_codes_equal_sweep(self, case):
        x, quant, mbs = case
        _, codes = mbs_qdq(x, mbs, quant, "exhaustive")
        assert np.array_equal(codes, _sweep_errors(_macros(x, mbs), quant).argmin(axis=1))

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(_exhaustive_cases(mantissa_bits=(0,)))
    def test_closed_form_within_its_bound(self, case):
        # |A - E| <= D at every code: a misplaced breakpoint moves A by a
        # whole grid step, far beyond D
        x, quant, mbs = case
        macros = _macros(x, mbs)
        macros = macros[np.abs(macros).max(axis=1) > 0]
        if not len(macros):
            return
        approx, bound = corrections._approx_errors(np.abs(macros),
                                                   _sub_max(macros, quant.block_size))
        assert (np.abs(approx - _sweep_errors(macros, quant)) <= bound).all()

    @pytest.mark.parametrize("case", sorted(_HARD_INPUTS))
    def test_closed_form_within_its_bound_on_hard_inputs(self, case):
        # |A - E| <= D at every code of every ranked macro (live, no
        # sub-block maximum in (0, _RANKED_FLOOR]), where ties and exact
        # crossings happen
        x, block_size, macro = _HARD_INPUTS[case]()
        quant = BlockQuantConfig(block_size=block_size)
        macros = _macros(x, MbsConfig(macro_block_size=macro))
        sub_max = _sub_max(macros, block_size)
        ranked = (sub_max.max(axis=1) > 0) & ~(
            (sub_max > 0) & (sub_max <= corrections._RANKED_FLOOR)).any(axis=1)
        assert ranked.sum() >= 4
        macros, sub_max = macros[ranked], sub_max[ranked]
        approx, bound = corrections._approx_errors(np.abs(macros), sub_max)
        assert (np.abs(approx - _sweep_errors(macros, quant)) <= bound).all()

    def test_trial_counts(self, monkeypatch):
        # at M = 0 a macro with one candidate evaluates no trial and one in
        # doubt its candidates; on this input every live macro has one.
        # All-zero macros evaluate none, and M > 0 evaluates all 256 codes
        # of every other macro.
        seen = []
        real = corrections._trial_errors

        def counting(macros, sub_max, cand, quant, work):
            per_macro = np.zeros(len(macros), dtype=np.int64)
            for chunk in real(macros, sub_max, cand, quant, work):
                per_macro += np.bincount(chunk[0], minlength=len(macros))
                yield chunk
            seen.append(per_macro)

        monkeypatch.setattr(corrections, "_trial_errors", counting)
        x = np.random.default_rng(87).standard_normal((16, 512))
        x[3] = 0.0                                   # four all-zero macros
        macros = np.abs(_macros(x, MbsConfig()))
        macros = macros[macros.max(axis=1) > 0]
        approx, bound = corrections._approx_errors(macros, _sub_max(macros, 32))
        top = approx.min(axis=1, keepdims=True) + 3.0 * bound
        assert len(macros) == 60 and ((approx <= top).sum(axis=1) == 1).all()
        mbs_qdq(x, MbsConfig(), BlockQuantConfig())
        assert seen == []
        mbs_qdq(x, MbsConfig(), BlockQuantConfig(scale_mantissa_bits=3))
        per_macro = np.concatenate(seen)
        assert len(per_macro) == 60 and (per_macro == MBS_LEVELS).all()

    def test_mixed_step(self, monkeypatch):
        # D is widened past the gap to the runner-up on alternate ranked
        # macros of one step, whose first macro is swept (a sub-block maximum
        # below the ranked floor): only those reach the trials, and the
        # step's codes and x_hat, direct rows and trial rows alike, are the
        # sweep's
        real_approx, real_trials = corrections._approx_errors, corrections._trial_errors
        tried = []

        def widened(mag, sub_max, work):
            approx, bound = real_approx(mag, sub_max, work)
            ranked = np.sort(approx, axis=1)
            gap = (ranked[:, 1] - ranked[:, 0])[1::2, None]
            np.maximum(bound[1::2], gap, out=bound[1::2])
            return approx, bound

        def trials(mag, sub_max, cand, quant, work):
            tried.append((mag.copy(), cand.sum(axis=1)))
            yield from real_trials(mag, sub_max, cand, quant, work)

        monkeypatch.setattr(corrections, "_approx_errors", widened)
        monkeypatch.setattr(corrections, "_trial_errors", trials)
        x = np.random.default_rng(92).standard_normal((8, 512))   # 32 macros, one step
        x[0, :32] *= 1e-200
        mbs, quant = MbsConfig(), BlockQuantConfig()
        x_hat, codes = mbs_qdq(x, mbs, quant, "exhaustive")
        macros = _macros(x, mbs)
        assert len(tried) == 1
        mag, n_cand = tried[0]
        assert np.array_equal(mag, np.abs(macros[[0, *range(2, 32, 2)]]))
        assert n_cand[0] == MBS_LEVELS and (n_cand[1:] >= 2).all()
        assert np.array_equal(codes, _sweep_errors(macros, quant).argmin(axis=1))
        pres = (1.0 + codes / MBS_LEVELS)[:, None]
        want = block_view(x, BlockQuantConfig(block_size=mbs.macro_block_size)).restore(
            qdq_tensor(macros * pres, quant) / pres)
        assert np.array_equal(x_hat.view(np.uint64), want.view(np.uint64))

    def test_arbiter_recovers_from_perturbed_closed_form(self, monkeypatch):
        # The closed form is moved by up to the bound it reports: up at the
        # sweep's argmin, down at every other code, with the bound widened
        # past the gap to the runner-up. Its own argmin is then always wrong,
        # and only the exact evaluation of the candidates gives the codes.
        real = corrections._approx_errors
        flipped = []

        def adversarial(mag, sub_max, work):
            approx, bound = real(mag, sub_max, work)
            B = mag.shape[1] // sub_max.shape[1]
            best = _sweep_errors(mag, BlockQuantConfig(block_size=B)).argmin(axis=1)
            ranked = np.sort(approx, axis=1)
            shift = (ranked[:, 1] - ranked[:, 0] + bound.max(axis=1))[:, None]
            sign = np.full(approx.shape, -1.0)
            sign[np.arange(len(mag)), best] = 1.0
            approx = approx + sign * shift
            flipped.append(approx.argmin(axis=1) != best)
            return approx, bound + 2.0 * shift

        monkeypatch.setattr(corrections, "_approx_errors", adversarial)
        rng = np.random.default_rng(88)
        x = rng.standard_normal((8, 256))
        x[4:] = rng.integers(-12, 13, size=(4, 256)) / 4.0
        quant = BlockQuantConfig(block_size=32)
        mbs = MbsConfig(macro_block_size=64)
        _, codes = mbs_qdq(x, mbs, quant, "exhaustive")
        assert np.concatenate(flipped).all()
        assert np.array_equal(codes, _sweep_errors(_macros(x, mbs), quant).argmin(axis=1))

    def test_nan_closed_form_keeps_a_candidate(self, monkeypatch):
        # A closed form of NaN at every code compares false everywhere; its
        # argmin, code 0, stays a candidate, so each such macro's x_hat is
        # still its own trial's row, not a row left in the step buffer
        real = corrections._approx_errors

        def nan_rows(mag, sub_max, work):
            approx, bound = real(mag, sub_max, work)
            approx[1::2] = np.nan
            bound[3::4] = np.nan
            return approx, bound

        monkeypatch.setattr(corrections, "_approx_errors", nan_rows)
        x = np.random.default_rng(89).standard_normal((8, 512))
        mbs, quant = MbsConfig(), BlockQuantConfig()
        x_hat, codes = mbs_qdq(x, mbs, quant, "exhaustive")
        assert not codes[1::2].any()
        view = block_view(x, BlockQuantConfig(block_size=mbs.macro_block_size))
        pres = (1.0 + codes / MBS_LEVELS)[:, None]
        assert np.array_equal(x_hat, view.restore(qdq_tensor(view.blocks * pres, quant) / pres))


def _golden_input(kind):
    """Seeded inputs of the golden digests: 16x512 Gaussian, 8x1000
    Student-t (each row 7 macros and a 104-element tail), and a 4x512
    Gaussian with all-zero spans of +0.0 and -0.0: a macro of each, one
    32-element block in a live macro, and a whole row of -0.0."""
    rng = np.random.default_rng(2020)
    if kind == "gaussian":
        return rng.standard_normal((16, 512))
    if kind == "student_t":
        return rng.standard_t(3.0, size=(8, 1000))
    x = rng.standard_normal((4, 512))
    x[0, :128] = 0.0
    x[1, 128:256] = -0.0
    x[2, 32:64] = -0.0
    x[3] = -0.0
    return x


_GOLDEN_DIGESTS = {
    ("gaussian", 0, "exhaustive"): "72e619d515fc220edb6c4374a725860ce82ecc7601a6938ec526a236f63bf319",
    ("gaussian", 0, "closed_form"): "729e2c701c8bfa2c069c5c6ff63cc1de4214353835d25276936c17c2d0287902",
    ("gaussian", 3, "exhaustive"): "9ceeef47f15c46ef1df4dcb5207d1b4000e80bdc00f57e1a9ead982120c3719d",
    ("gaussian", 3, "closed_form"): "863a1fb42ade2c414adef89860a43bf09113f98b567fd9a5ae4bb76668807d97",
    ("student_t", 0, "exhaustive"): "a7b195bd65b5a6a90da54f4fde059b3a4fdd023d62fd8e512f41d008833be758",
    ("student_t", 0, "closed_form"): "6851aebe368f489e5ba0c8ff3912dd240773f0d45ed5bc65345577ce78df077b",
    ("student_t", 3, "exhaustive"): "7084ce3c499fd3c1003b6a26dcbfc4cdf87fc2016337474e832031f0a4dafdb0",
    ("student_t", 3, "closed_form"): "4bae74c13ae12e4ff88861fa721b0b4d24ac9a201ffe812e366d567641041d25",
    ("zeros", 0, "exhaustive"): "57e10a8d653513ea3d610ab82705669bd516cce80cf70b6caffc8efd1ca2f582",
    ("zeros", 0, "closed_form"): "a4c269b2bc67b91c70567d304959d15b491b7e9e8591b71d5e1805340716aed5",
    ("zeros", 3, "exhaustive"): "6c2f4a49a1aa21d8a36ea3484d3ae15af523d465d837c88e5b3990e52455e593",
    ("zeros", 3, "closed_form"): "d851dec6b44e3380984589a04d7b819b09a855c82b1ee985f7b6befa181b9fbf",
}


def _peak_bytes(fn):
    """Peak traced allocation of fn() above what was live before it; numpy
    reports its array buffers to tracemalloc."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


class TestMbsQdq:
    def test_codes_shape_and_selection_agree(self):
        rng = np.random.default_rng(65)
        quant = BlockQuantConfig()
        mbs = MbsConfig(macro_block_size=64)
        x = rng.standard_normal((3, 70))
        for mode in ("exhaustive", "closed_form"):
            x_hat, codes = mbs_qdq(x, mbs, quant, mode)
            assert x_hat.shape == x.shape
            assert codes.shape == (6,)  # ceil(70/64) = 2 macros per row
            row0 = x[0]
            assert codes[0] == mbs_qdq(row0[:64], mbs, quant, mode)[1][0]
            assert codes[1] == mbs_qdq(row0[64:], mbs, quant, mode)[1][0]

    def test_mse_never_worse_than_plain(self):
        rng = np.random.default_rng(66)
        quant = BlockQuantConfig()
        mbs = MbsConfig(macro_block_size=128)
        x = rng.standard_normal((16, 512))
        plain = float(((_plain_qdq(x, quant) - x) ** 2).mean())
        for mode in ("exhaustive", "closed_form"):
            x_hat, _ = mbs_qdq(x, mbs, quant, mode)
            assert float(((x_hat - x) ** 2).mean()) < plain

    def test_exhaustive_beats_closed_form_on_totals(self):
        rng = np.random.default_rng(67)
        quant = BlockQuantConfig()
        mbs = MbsConfig(macro_block_size=64)
        x = rng.laplace(size=(8, 256))
        ex, _ = mbs_qdq(x, mbs, quant, "exhaustive")
        cf, _ = mbs_qdq(x, mbs, quant, "closed_form")
        assert ((ex - x) ** 2).sum() <= ((cf - x) ** 2).sum() + 1e-15

    def test_zero_tensor(self):
        quant = BlockQuantConfig()
        x_hat, codes = mbs_qdq(np.zeros((2, 128)), MbsConfig(), quant)
        assert not x_hat.any() and not codes.any()

    @pytest.mark.parametrize("kind,bits,mode", sorted(_GOLDEN_DIGESTS))
    def test_golden_digests(self, kind, bits, mode):
        # sha256 of x_hat's bytes (sign bits included) and of the codes, as
        # recorded before each macro's x_hat became its winning trial's row
        x_hat, codes = mbs_qdq(_golden_input(kind), MbsConfig(),
                               BlockQuantConfig(scale_mantissa_bits=bits), mode)
        digest = hashlib.sha256(x_hat.tobytes() + codes.tobytes()).hexdigest()
        assert digest == _GOLDEN_DIGESTS[kind, bits, mode]

    @pytest.mark.parametrize("bits", [0, 3])
    @pytest.mark.parametrize("mode", ["exhaustive", "closed_form"])
    def test_x_hat_is_the_trial_rows(self, monkeypatch, bits, mode):
        # no x_hat pass follows the selection. The closed form evaluates one
        # row per macro, in one call straight into x_hat, and lists no
        # trials. At M = 0 every live macro here has one candidate: one call
        # evaluates each live macro's row once, no trial, all-zero macros
        # none. At M = 3 every row evaluated is a trial, 256 per live macro.
        trial_rows, qdq_calls = [], []
        real_trials, real_qdq = corrections._trial_errors, corrections._prescaled_qdq

        def trials(*args):
            for chunk in real_trials(*args):
                trial_rows.append(len(chunk[0]))
                yield chunk

        def qdq(mag, *args):
            qdq_calls.append([row.tobytes() for row in mag])
            return real_qdq(mag, *args)

        monkeypatch.setattr(corrections, "_trial_errors", trials)
        monkeypatch.setattr(corrections, "_prescaled_qdq", qdq)
        x = _golden_input("zeros")                   # 10 live macros of 16, one step
        mbs_qdq(x, MbsConfig(), BlockQuantConfig(scale_mantissa_bits=bits), mode)
        live = [m.tobytes() for m in np.abs(_macros(x, MbsConfig())) if m.any()]
        assert len(live) == 10
        rows = sorted(row for call in qdq_calls for row in call)
        if mode == "closed_form":
            assert [len(call) for call in qdq_calls] == [16] and trial_rows == []
        elif bits == 0:
            assert len(qdq_calls) == 1 and rows == sorted(live) and trial_rows == []
        else:
            assert rows == sorted(live * MBS_LEVELS) and sum(trial_rows) == len(rows)

    @pytest.mark.parametrize("bits,bound_mib", [(0, 2.0), (3, 3.5)])
    def test_exhaustive_peak_holds_no_error_matrix(self, bits, bound_mib):
        # Past its output, mbs_qdq on 512x512 peaks at one step's workspace
        # (2^13 elements, 64 macros): 1.91 MiB at M = 0, where every macro
        # is decided without a trial, and 3.43 MiB at M = 3 with one chunk
        # of trials. Either bound is less than 128 KiB above its peak, so a
        # step's (64, 256) float64 error matrix, or its 64 x 256 trial
        # errors at M = 3, 128 KiB each, would cross it, and so would the
        # two 64 KiB trial buffers of an M = 0 step that tried its macros.
        x = np.random.default_rng(91).standard_normal((512, 512))
        quant = BlockQuantConfig(scale_mantissa_bits=bits)
        result = []
        peak = _peak_bytes(lambda: result.append(mbs_qdq(x, MbsConfig(), quant)))
        x_hat, codes = result[0]
        assert peak - x_hat.nbytes - codes.nbytes < bound_mib * 2 ** 20

    @pytest.mark.parametrize("mode", ["exhaustive", "closed_form"])
    def test_working_memory_does_not_grow_with_the_tensor(self, mode):
        # x_hat is written piece by piece: past its output, the peak is one
        # piece's working set at 4x the elements (ragged tail macros too)
        quant = BlockQuantConfig()
        rng = np.random.default_rng(90)
        over = []
        for rows in (256, 1024):
            x = rng.standard_normal((rows, 1000))
            result = []
            peak = _peak_bytes(lambda: result.append(mbs_qdq(x, MbsConfig(), quant, mode)))
            x_hat, codes = result[0]
            over.append(peak - x_hat.nbytes - codes.nbytes)
        assert over[1] <= over[0] + (256 << 10)
        assert over[1] < 16 << 20

    @pytest.mark.parametrize("M", [0, 3])
    def test_piece_loop_holds_one_working_set(self, M):
        # the mbs command's loop: MBS on each piece, then the piece's split,
        # in one workspace. The two take its block in turn, so the peak is
        # the larger of the two working sets, each measured alone, plus the
        # piece's x_hat, which the split reads: not the sum of the two
        quant, mbs = BlockQuantConfig(scale_mantissa_bits=M), MbsConfig()
        x = np.random.default_rng(91).standard_normal((128, 512))     # two pieces
        hat_rows = mbs_qdq(x, mbs, quant)[0]
        piece = x[:_CHUNK_ELEMS // 512]             # the split's pieces are whole rows

        def split():                                # a piece function that costs nothing
            decompose_quantizers(x, 32, [quant, lambda r, c, p: hat_rows[r, c]],
                                 align=mbs.macro_block_size)

        def step():
            mbs_qdq(piece, mbs, quant)

        def loop():
            work = _Workspace()
            decompose_quantizers(
                x, 32, [quant, lambda r, c, p: mbs_qdq(p, mbs, quant, "exhaustive", work)[0]],
                align=mbs.macro_block_size, work=work)

        peaks = {}
        for fn in (split, step, loop):
            fn()                                    # the first run allocates more
            peaks[fn.__name__] = _peak_bytes(fn)
        assert peaks["loop"] <= max(peaks["split"], peaks["step"]) + piece.nbytes + (64 << 10), (
            peaks)

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(_exhaustive_cases(), st.sampled_from(("exhaustive", "closed_form")),
           st.data())
    def test_output_is_the_prescaled_qdq_at_its_codes(self, case, mode, data):
        # x_hat is Q(p x) / p at the returned codes, bit for bit, as the
        # whole-tensor expression gives it; -0.0 in all-zero blocks is +0.0
        x, quant, mbs = case
        rows = x.reshape(-1, x.shape[-1])
        zeros = data.draw(st.lists(st.integers(0, rows.size - 1), max_size=4))
        for start in zeros:                      # all-zero spans of -0.0
            r, c = divmod(start, rows.shape[1])
            rows[r, c:c + data.draw(st.integers(1, 2 * mbs.macro_block_size))] = -0.0
        x_hat, codes = mbs_qdq(x, mbs, quant, mode)
        view = block_view(x, BlockQuantConfig(block_size=mbs.macro_block_size))
        pres = (1.0 + codes / MBS_LEVELS)[:, None]
        want = view.restore(qdq_tensor(view.blocks * pres, quant) / pres)
        assert x_hat.shape == want.shape == x.shape
        assert np.array_equal(x_hat, want)
        assert np.array_equal(np.signbit(x_hat), np.signbit(want))
        blocks = block_view(x, quant).blocks
        dead = ~blocks.any(axis=1)
        assert not np.signbit(block_view(x_hat, quant).blocks[dead]).any()


class TestOutlierFallback:
    def test_alpha_zero_is_plain(self):
        rng = np.random.default_rng(68)
        x = rng.standard_normal((8, 64))
        quant = BlockQuantConfig()
        res = of_qdq(x, OfConfig(alpha=0.0), quant)
        assert np.array_equal(res.x_hat, _plain_qdq(x, quant))

    def test_alpha_linearity_bitwise(self):
        rng = np.random.default_rng(69)
        x = rng.laplace(size=(8, 64))
        quant = BlockQuantConfig()
        base = of_qdq(x, OfConfig(alpha=1.0), quant)
        for alpha in (0.25, 0.5, 0.75):
            res = of_qdq(x, OfConfig(alpha=alpha), quant)
            assert np.array_equal(res.pass1, base.pass1)
            assert np.array_equal(res.pass2, base.pass2)
            assert np.array_equal(res.x_hat, base.pass1 + alpha * base.pass2)

    def test_pass2_quantizes_residual(self):
        rng = np.random.default_rng(70)
        x = rng.standard_normal((4, 64))
        quant = BlockQuantConfig()
        res = of_qdq(x, OfConfig(), quant)
        assert np.array_equal(res.pass2, _plain_qdq(x - res.pass1, quant))

    def test_dz_recovery(self):
        rng = np.random.default_rng(71)
        x = rng.standard_normal((64, 512))
        quant = BlockQuantConfig()
        res = of_qdq(x, OfConfig(alpha=0.5), quant)
        d = decompose_tensor(x, quant, keep_errors=False, x_hat=res.x_hat)
        assert 0.0 < d.dz_zero_fraction < d.dz_fraction < 1.0
        # the residual pass recovers most of the deadzone; survivors are
        # roughly a fifth of the original occupancy on gaussian data
        assert d.dz_zero_fraction / d.dz_fraction < 1.0 / 3.0

    def test_dz_rate_zero_tensor(self):
        quant = BlockQuantConfig()
        x = np.zeros((2, 64))
        res = of_qdq(x, OfConfig(), quant)
        d = decompose_tensor(x, quant, keep_errors=False, x_hat=res.x_hat)
        assert (d.dz_fraction, d.dz_zero_fraction) == (0.0, 0.0)

    def test_with_mbs_paths(self):
        rng = np.random.default_rng(72)
        x = rng.standard_normal((4, 256))
        quant = BlockQuantConfig()
        res = of_qdq(x, OfConfig(), quant, mbs=MbsConfig(macro_block_size=128),
                     mbs_mode="closed_form")
        want, _ = mbs_qdq(x, MbsConfig(macro_block_size=128), quant,
                          "closed_form")
        assert np.array_equal(res.pass1, want)

    @pytest.mark.parametrize("mode", ["exhaustive", "closed_form"])
    def test_shared_workspace_keeps_bits(self, mode):
        # one workspace through tensors of different sizes, as the of
        # command passes it from piece to piece: every result is a fresh call's
        rng = np.random.default_rng(74)
        quant = BlockQuantConfig()
        mbs = MbsConfig(macro_block_size=128)
        work = _Workspace()
        for shape in [(64, 512), (3, 256), (2, 128), (40, 384)]:
            x = rng.standard_t(4.0, size=shape)
            res = of_qdq(x, OfConfig(), quant, mbs, mode, work)
            want = of_qdq(x, OfConfig(), quant, mbs, mode)
            for got, ref in zip((res.x_hat, res.pass1, res.pass2),
                                (want.x_hat, want.pass1, want.pass2)):
                assert np.array_equal(got.view(np.uint64), ref.view(np.uint64))


class TestAqn:
    def test_deterministic_and_name_keyed(self):
        rng = np.random.default_rng(73)
        x = rng.standard_normal(1000)
        a = joined(aqn_pieces(x, 0.01, seed=5, name="w.0"))
        b = joined(aqn_pieces(x, 0.01, seed=5, name="w.0"))
        c = joined(aqn_pieces(x, 0.01, seed=5, name="w.1"))
        d = joined(aqn_pieces(x, 0.01, seed=6, name="w.0"))
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)
        assert not np.array_equal(a, d)

    def test_sigma_zero_copies(self):
        x = np.ones(8)
        y = joined(aqn_pieces(x, 0.0, seed=1))
        assert np.array_equal(x, y) and y is not x
        y[0] = 9.0
        assert x[0] == 1.0

    def test_noise_scales_with_rms(self):
        rng = np.random.default_rng(74)
        x = 3.0 * rng.standard_normal(100_000)
        sigma = 0.05
        noise = joined(aqn_pieces(x, sigma, seed=2, name="t")) - x
        target = sigma * float(np.sqrt((x ** 2).mean()))
        se = target / np.sqrt(2 * x.size)
        assert abs(noise.std() - target) < 3 * se

    def test_multiplier(self):
        x = np.ones(64)
        a = joined(aqn_pieces(x, 0.1, seed=3, name="n")) - x
        b = joined(aqn_pieces(x, 0.1, seed=3, name="n", multiplier=2.0)) - x
        np.testing.assert_allclose(b, 2.0 * a, rtol=1e-12)

    def test_negative_sigma_raises(self):
        with pytest.raises(ValueError):
            joined(aqn_pieces(np.ones(4), -0.1, seed=0))

    @pytest.mark.parametrize("size", [1, 7, 1022, 4099, 2 ** 17 + 5, 3 * 2 ** 17 + 2])
    def test_noise_drawn_in_pieces_is_the_whole_draw(self, size):
        # aqn_pieces draws each piece's noise in turn from one keyed Philox
        # stream: consecutive slices of any lengths (odd, not a multiple of
        # 4, across 2^17) hold the bits of one whole draw
        cuts = [c for c in (1, 4, 11, 1000, 2 ** 17, 2 ** 17 + 1, 2 ** 18 + 3) if c < size]
        bounds = [0, *cuts, size]
        for seed, name in ((0, ""), (7, "layer"), (2 ** 40, "model.post_attention_layernorm.w")):
            whole = corrections._noise_rng(seed, name).standard_normal(size)
            rng = corrections._noise_rng(seed, name)
            pieces = np.empty(size)
            for lo, hi in zip(bounds, bounds[1:]):
                rng.standard_normal(out=pieces[lo:hi])
            assert np.array_equal(pieces.view(np.uint64), whole.view(np.uint64)), (seed, name)

    def test_frozen_regression(self):
        # stream identity: any change to the keying or rng breaks this
        got = joined(aqn_pieces(np.arange(1.0, 5.0), 0.1, seed=7, name="layer"))
        want = np.array([1.015869082699022, 1.350460093829491,
                         3.3578149182715586, 4.026192732889312])
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-15)

    def test_schedule_endpoints_and_shape(self):
        s = AqnSchedule(0.01, 0.001, 10).stage_sigmas()
        assert s.shape == (10,)
        assert s[0] == 0.01 and s[-1] == pytest.approx(0.001, rel=1e-12)
        ratios = s[1:] / s[:-1]
        np.testing.assert_allclose(ratios, ratios[0], rtol=1e-12)
        assert AqnSchedule(0.02, 0.001, 1).stage_sigmas().tolist() == [0.02]

    def test_schedule_validation(self):
        with pytest.raises(ValueError):
            AqnSchedule(0.001, 0.01, 4)
        with pytest.raises(ValueError):
            AqnSchedule(0.01, 0.001, 0)
        # an infinite start passes start >= end > 0, and its stages are nan
        with pytest.raises(ValueError, match="sigma_start must be finite, got inf"):
            AqnSchedule(np.inf, 1.0, 4)

    def test_schedule_past_the_normal_ratios(self):
        # sigma_end / sigma_start underflows to 0 here: the stages are still
        # the geometric interpolation, from sigma_start to sigma_end exactly
        s = AqnSchedule(1e308, 1e-308, 3).stage_sigmas()
        assert s[0] == 1e308 and s[-1] == 1e-308 and (s > 0).all()
        assert s[1] == pytest.approx(1.0, rel=1e-12)
        s = AqnSchedule(1e10, 1e-310, 4).stage_sigmas()      # a subnormal ratio and end
        assert s[0] == 1e10 and s[-1] == 1e-310
        np.testing.assert_allclose(np.log(s[1:-1]), np.log(1e10) + np.arange(1, 3) / 3
                                   * (np.log(1e-310) - np.log(1e10)), rtol=1e-12)

    def test_schedule_object(self):
        sched = AqnSchedule(sigma_start=0.02, sigma_end=0.002, num_stages=5)
        assert np.array_equal(sched.stage_sigmas(),
                              0.02 * (0.002 / 0.02) ** (np.arange(5) / 4))
        assert sched.multiplier_for("model.post_attention_layernorm.w") == 1.414
        assert sched.multiplier_for("model.mlp.w") == 1.0
