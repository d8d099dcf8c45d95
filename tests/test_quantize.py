import hashlib
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mxblock.formats import (
    GRID_MAGNITUDES,
    GRID_MIDPOINTS,
    ceil_scale_array,
    grid_round_array,
)
from mxblock.quantize import (
    BlockQuantConfig,
    _packed_codes,
    _Workspace,
    block_view,
    qdq_tensor,
    qdq_views,
    quantize_tensor,
)

# Worked 8-element block used as a golden fixture across the suite.
WORKED_X = np.array([0.03, 0.1, 0.3, 0.5, 0.9, 1.5, 2.0, 4.0])
WORKED_S_STAR = 4.0 / 6.0
WORKED_QSTAR = np.array([0.0, 0.0, 1 / 3, 2 / 3, 1.0, 4 / 3, 2.0, 4.0])
WORKED_QDQ = np.array([0.0, 0.0, 0.5, 0.5, 1.0, 1.5, 2.0, 4.0])
WORKED_DEAD = np.array([True, True, False, False, False, False, False, False])


def _code_values(codes: np.ndarray) -> np.ndarray:
    """The signed grid values of packed int8 codes."""
    return np.copysign(GRID_MAGNITUDES[np.abs(codes)], codes)


def _decoded_scales(qt) -> np.ndarray:
    """2^e (1 + k / 2^M): the block scales of a QuantizedTensor."""
    levels = 1 << qt.config.scale_mantissa_bits
    return np.ldexp(1.0 + qt.scale_mantissas / levels, qt.scale_exponents)


def _dists(rng):
    yield rng.standard_normal((64, 96))
    yield rng.laplace(size=(32, 64))
    yield rng.standard_t(5.0, size=(16, 128))


class TestConfig:
    def test_defaults(self):
        cfg = BlockQuantConfig()
        assert cfg.block_size == 32 and cfg.scale_mantissa_bits == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            BlockQuantConfig(block_size=0)
        with pytest.raises(ValueError):
            BlockQuantConfig(scale_mantissa_bits=9)
        with pytest.raises(ValueError):
            BlockQuantConfig(scale_mantissa_bits=-1)


class TestBlockView:
    def test_round_trip_shapes(self):
        rng = np.random.default_rng(20)
        cfg = BlockQuantConfig()
        for shape in [(37,), (5, 33), (3, 4, 50), (1, 1), (2, 32), (128,)]:
            x = rng.standard_normal(shape)
            view = block_view(x, cfg)
            assert view.blocks.shape[1] == 32
            assert np.array_equal(view.restore(view.blocks), x)

    def test_padding_is_zero(self):
        x = np.ones(5)
        view = block_view(x, BlockQuantConfig())
        assert view.blocks.shape == (1, 32)
        assert (view.blocks[0, 5:] == 0).all()
        assert not view.valid[0, 5:].any()

    def test_innermost_axis_blocking(self):
        # rows never share a block
        x = np.zeros((2, 33))
        x[0, 32] = 7.0
        x[1, 0] = 1.0
        view = block_view(x, BlockQuantConfig())
        assert view.blocks.shape == (4, 32)
        assert view.m_b.tolist() == [0.0, 7.0, 1.0, 0.0]

    def test_empty_and_nonfinite(self):
        with pytest.raises(ValueError, match="empty"):
            block_view(np.empty(0), BlockQuantConfig())
        with pytest.raises(ValueError, match="non-finite"):
            block_view(np.array([1.0, np.nan]), BlockQuantConfig())


def _phase(work):
    """One phase's takes: names of several sizes and dtypes, one of them
    taken again larger, as _first_past's buffers are."""
    return {"a": work.take("a", (1000,)), "b": work.take("b", (37, 3), np.int8),
            "c": work.take("c", (5,), np.int64), "a2": work.take("a", (3000,)),
            "d": work.take("d", (2, 100), bool)}


def _overlapping(arrays):
    return [(i, j) for i in arrays for j in arrays
            if i < j and np.shares_memory(arrays[i], arrays[j])]


class TestWorkspace:
    def test_names_in_one_phase_never_overlap(self):
        work = _Workspace()
        for _ in range(3):              # own buffers, then the block, then again
            arrays = _phase(work)
            # a name taken again holds one live array: "a" and "a2" may share
            assert set(_overlapping(arrays)) <= {("a", "a2")}
            for arr in arrays.values():
                arr.fill(1)
            work.reset()

    def test_every_region_is_aligned(self):
        work = _Workspace()
        _phase(work)
        work.reset()
        for arr in _phase(work).values():
            assert arr.ctypes.data % 64 == 0

    def test_reset_hands_out_the_same_memory_again(self):
        work = _Workspace()
        _phase(work)
        work.reset()                    # the block grows to all the phase took
        first = _phase(work)
        block = work._block
        work.reset()
        second = _phase(work)
        assert work._block is block     # no growth: the same phase fits
        for name in first:
            assert np.shares_memory(first[name], second[name])
        # a later phase of other names takes the same memory as well
        work.reset()
        other = work.take("other", (4000,))
        assert np.shares_memory(other, first["a"]) and np.shares_memory(other, first["a2"])

    def test_block_grows_only_at_reset(self):
        work = _Workspace()
        _phase(work)
        work.reset()
        arrays = _phase(work)
        block = work._block
        big = work.take("big", (1 << 16,))          # past the block: its own buffer
        big.fill(7.0)
        assert work._block is block
        assert not any(np.shares_memory(big, a) for a in arrays.values())
        work.reset()
        assert work._block.size >= block.size + big.nbytes
        assert (big == 7.0).all()      # a live array of the phase was never moved

    def test_never_reset_keeps_each_name(self):
        # the reader's, writer's and draws' buffers: each name keeps its
        # largest buffer, and its contents, for the workspace's life
        work = _Workspace()
        a = work.take("values", (100,))
        a[:] = np.arange(100)
        b = work.take("raw", (800,), np.uint8)
        again = work.take("values", (50,))
        assert np.shares_memory(a, again) and not np.shares_memory(a, b)
        assert np.array_equal(again, np.arange(50))
        wider = work.take("values", (200,))
        assert not np.shares_memory(wider, a)
        assert np.shares_memory(work.take("values", (100,)), wider)
        assert work._block.size == 0


# Magnitudes at the ends of the float range: subnormals, the least normal and
# the float below it, and the largest floats
_EDGE_MAGNITUDES = [0.0, 5e-324, 2.0 ** -1060, float(np.nextafter(2.0 ** -1022, 0.0)),
                    2.0 ** -1022, 1.0, 1e308, float(np.nextafter(np.inf, 0.0))]


@st.composite
def _maxima_cases(draw):
    """(x, B): 0-d, one-element and (rows, n) inputs of finite floats, with
    -0.0, subnormals and |x| near 1e308 among them, and n ragged against B.
    The elements are a seeded pick from a drawn pool of values, which keeps
    a 900-element case as cheap to draw as a short one."""
    B = draw(st.integers(1, 128))
    shape = draw(st.one_of(st.just(()), st.just((1,)),
                           st.tuples(st.integers(1, 3), st.integers(1, 300))))
    values = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                       st.sampled_from([v for m in _EDGE_MAGNITUDES for v in (m, -m)]))
    pool = np.array(draw(st.lists(values, min_size=1, max_size=12)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    return np.array(pool[rng.integers(0, pool.size, size=shape)]), B


def _reference_maxima(x, B):
    """max |x| over each run of B elements of each innermost row, in Python."""
    n = x.shape[-1] if x.ndim else 1
    return np.array([max(abs(float(v)) for v in row[lo:lo + B])
                     for row in x.reshape(-1, n) for lo in range(0, n, B)])


class TestBlockMaximaProperty:
    """block_view takes every block maximum in one flat reduceat over the
    int64 view of |x|; the maxima must be the per-block ones, bit for bit."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(_maxima_cases())
    def test_maxima_match_reference(self, case):
        x, B = case
        cfg = BlockQuantConfig(block_size=B)
        want = _reference_maxima(x, B).view(np.uint64)
        work = _Workspace()
        work.take("mag", (x.size + B,)).fill(np.nan)     # stale contents never leak
        for view in (block_view(x, cfg), block_view(x, cfg, work)):
            assert np.array_equal(view.m_b.view(np.uint64), want)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(_maxima_cases(), st.sampled_from([np.nan, np.inf, -np.inf]), st.data())
    def test_nonfinite_raises(self, case, bad, data):
        x, B = case
        x = x.copy()
        x.reshape(-1)[data.draw(st.integers(0, x.size - 1))] = bad
        for work in (None, _Workspace()):
            with pytest.raises(ValueError, match="non-finite"):
                block_view(x, BlockQuantConfig(block_size=B), work)


class TestWorkedBlock:
    def setup_method(self):
        self.cfg = BlockQuantConfig(block_size=8)
        self.view = block_view(WORKED_X, self.cfg)

    def test_s_star(self):
        assert self.view.s_star.tolist() == [WORKED_S_STAR]

    def test_qstar(self):
        _, qstar, _, _ = qdq_views(self.view, None)
        codes = _packed_codes(self.view, self.view.s_star)
        assert np.array_equal(_code_values(codes) * WORKED_S_STAR, qstar)
        np.testing.assert_allclose(qstar[0], WORKED_QSTAR, rtol=0, atol=1e-15)

    def test_qdq(self):
        qt = quantize_tensor(WORKED_X, self.cfg)
        assert _decoded_scales(qt).tolist() == [1.0]
        np.testing.assert_array_equal(qt.dequantize(), WORKED_QDQ)

    def test_deadzone(self):
        _, _, dead, _ = qdq_views(self.view, None)
        assert dead[0].tolist() == WORKED_DEAD.tolist()

    def test_gamma(self):
        np.testing.assert_allclose(1.0 / WORKED_S_STAR, 1.5)


class TestQuantizeBlock:
    def test_matches_vector_kernel(self):
        # the packed codes against the rounding kernel: Q codes times the
        # decoded scale are qdq, Q* codes times s_star are qstar
        rng = np.random.default_rng(21)
        for m in (0, 2, 8):
            cfg_m = BlockQuantConfig(scale_mantissa_bits=m)
            x = rng.standard_normal((8, 32))
            view = block_view(x, cfg_m)
            qdq, qstar, _, s_dec = qdq_views(view, cfg_m)
            qt = quantize_tensor(x, cfg_m)
            scale = _decoded_scales(qt)
            assert np.array_equal(scale, s_dec)
            assert np.array_equal(_code_values(qt.element_codes) * scale[:, None], qdq)
            ideal = _code_values(_packed_codes(view, view.s_star))
            assert np.array_equal(ideal * view.s_star[:, None], qstar)

    def test_all_zero_block(self):
        cfg = BlockQuantConfig(block_size=4)
        qt = quantize_tensor(np.zeros(4), cfg)
        assert qt.m_b.tolist() == [0.0] and qt.s_star.tolist() == [0.0]
        assert (qt.element_codes == 0).all()
        # the sentinel scale 1, code (0, 0); the output is still exact zeros
        assert _decoded_scales(qt).tolist() == [1.0]
        assert np.array_equal(qt.dequantize(), np.zeros(4))
        view = block_view(np.zeros(4), cfg)
        _, qstar, _, _ = qdq_views(view, None)
        assert (_packed_codes(view, view.s_star) == 0).all()
        assert np.array_equal(qstar, np.zeros((1, 4)))

    @pytest.mark.parametrize("units", [1, 2, 3])
    def test_ideal_on_subnormal_blocks(self, units):
        # a maximum of at most 3 subnormal units gives s_star = m_b / 6 = 0,
        # though the block is not zero; Q* rounds it at the sentinel scale 1
        tiny = 5e-324
        for block in (np.array([units * tiny, 0.0]), np.array([-units * tiny, tiny]),
                      np.array([tiny, -units * tiny, 0.0, -0.0])):
            cfg = BlockQuantConfig(block_size=len(block))
            view = block_view(block, cfg)
            assert view.s_star[0] == 0.0 and view.nonzero[0]
            _, qstar, _, _ = qdq_views(view, None)
            codes = _packed_codes(view, view.s_star)
            assert np.array_equal(_code_values(codes), qstar)     # times 1
            assert not qstar.any()

    def test_deadzone_strict_boundary(self):
        # block max 6 puts the threshold at exactly 0.25
        cfg = BlockQuantConfig(block_size=4)
        x = np.array([6.0, 0.25, np.nextafter(0.25, 0.0), 0.0])
        _, _, dead, _ = qdq_views(block_view(x, cfg), None)
        # |x| == m_b/24 is not dead by the strict inequality, though the
        # tie rule still rounds it to zero; exact zeros inside a live
        # block do count as dead
        assert dead[0].tolist() == [False, False, True, True]
        assert quantize_tensor(x, cfg).dequantize()[1] == 0.0

    def test_saturation_at_block_max(self):
        cfg = BlockQuantConfig(block_size=4)
        x = np.array([6e4, -6e4, 1.0, 0.0])
        qt = quantize_tensor(x, cfg)
        deq = qt.dequantize()
        assert deq[0] == -deq[1]
        assert abs(deq[0]) <= 6.0 * _decoded_scales(qt)[0]


class TestQuantizeTensor:
    def test_dequantize_matches_qdq(self):
        rng = np.random.default_rng(22)
        for x in _dists(rng):
            for m in (0, 3, 8):
                cfg = BlockQuantConfig(scale_mantissa_bits=m)
                qt = quantize_tensor(x, cfg)
                assert np.array_equal(qt.dequantize(), qdq_tensor(x, cfg))

    def test_codes_and_scales(self):
        rng = np.random.default_rng(23)
        x = rng.standard_normal((4, 70))
        cfg = BlockQuantConfig()
        qt = quantize_tensor(x, cfg)
        assert qt.element_codes.dtype == np.int8
        assert np.abs(qt.element_codes).max() <= 7
        view = block_view(x, cfg)
        decoded, exps, mants = ceil_scale_array(view.s_star, 0)
        live = view.nonzero
        assert np.array_equal(qt.scale_exponents[live], exps[live])

    def test_idempotent(self):
        # quantizing an already-quantized tensor is the identity
        rng = np.random.default_rng(24)
        x = rng.standard_normal((8, 64))
        cfg = BlockQuantConfig()
        y = qdq_tensor(x, cfg)
        assert np.array_equal(qdq_tensor(y, cfg), y)

    def test_sign_symmetry(self):
        rng = np.random.default_rng(25)
        x = rng.laplace(size=(6, 50))
        cfg = BlockQuantConfig()
        assert np.array_equal(qdq_tensor(-x, cfg), -qdq_tensor(x, cfg))

    def test_scaling_equivariance_pow2(self):
        # scaling by powers of two shifts the exponent, nothing else
        rng = np.random.default_rng(26)
        x = rng.standard_normal((4, 64))
        cfg = BlockQuantConfig()
        assert np.array_equal(qdq_tensor(4.0 * x, cfg), 4.0 * qdq_tensor(x, cfg))

    def test_scale_past_e8m0_is_refused_without_a_warning(self):
        # 1.7e308 needs scale exponent 1022: a float64 scale there would take
        # g s past the largest float, with numpy's overflow warning
        x = np.array([1.7e308, 1.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for quantize in (qdq_tensor, quantize_tensor):
                with pytest.raises(ValueError, match="E8M0's range.*exponent 1022"):
                    quantize(x, BlockQuantConfig())

    def test_float32_input(self):
        rng = np.random.default_rng(27)
        x32 = rng.standard_normal((4, 32)).astype(np.float32)
        y = qdq_tensor(x32, BlockQuantConfig())
        assert y.dtype == np.float64


class TestScaledRoundDefinition:
    def test_qdq_equals_scaled_grid_round(self):
        # Q(x) = s * round(x/s), element by element
        rng = np.random.default_rng(28)
        x = rng.standard_normal((16, 32))
        cfg = BlockQuantConfig()
        view = block_view(x, cfg)
        qdq, _, _, s_dec = qdq_views(view, cfg)
        manual = grid_round_array(view.blocks / s_dec[:, None]) * s_dec[:, None]
        assert np.array_equal(qdq, manual)

    def test_ideal_never_saturates_interior(self):
        # under s_star the block max maps exactly to the top grid point
        rng = np.random.default_rng(29)
        x = rng.standard_normal((32, 32))
        cfg = BlockQuantConfig()
        view = block_view(x, cfg)
        _, qstar, _, _ = qdq_views(view, cfg)
        hit = np.abs(qstar) / np.where(view.nonzero, view.s_star, 1.0)[:, None]
        assert hit.max() <= 6.0 + 1e-12


# Block maxima: unit, large, 6 * 2^-1020 (s_star / 4 the least normal) and
# the float below it, subnormal blocks and ones whose s_star is 0
_ROW_SCALES = [1.0, 2.0 ** 900, 6 * 2.0 ** -1020, float(np.nextafter(6 * 2.0 ** -1020, 0.0)),
               2.0 ** -1019, 2.0 ** -1021, 2.0 ** -1030, 2.0 ** -1066, 2.0 ** -1073]


@st.composite
def _mixed_pieces(draw):
    """Pieces whose rows sit at different scales, the deadzone threshold
    fl(m_b / 24) and its neighbours among the elements, all-zero rows and
    ragged tails."""
    n_rows = draw(st.integers(1, 6))
    n = draw(st.integers(1, 70))
    block_size = draw(st.sampled_from([1, 4, 8, 32]))
    rows = []
    for _ in range(n_rows):
        row = np.array(draw(st.lists(st.floats(-1.0, 1.0, allow_subnormal=False),
                                     min_size=n, max_size=n)))
        top = draw(st.sampled_from(_ROW_SCALES))
        row = row * top
        row[::block_size] = draw(st.sampled_from([top, -top]))
        thr = top / 24.0
        for j, v in enumerate((thr, np.nextafter(thr, 0.0), np.nextafter(thr, np.inf))):
            row[j + 1::block_size] = draw(st.sampled_from([v, -v]))
        if draw(st.integers(0, 4)) == 0:
            row[:] = draw(st.sampled_from([0.0, -0.0]))
        rows.append(row)
    return np.array(rows), BlockQuantConfig(block_size=block_size)


class TestQuotientDeadzoneProperty:
    """qdq_views takes the deadzone as fl(|x| / s_star) < 1/4 and rounds Q*
    unsaturated, redoing the rows whose s_star / 4 is not normal. Both must
    be the definitions: |x| < m_b / 24, and the saturating grid rounding."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(_mixed_pieces())
    def test_matches_definitions(self, case):
        x, cfg = case
        view = block_view(x, cfg)
        _, qstar, dead, _ = qdq_views(view, None)
        assert np.array_equal(dead, np.abs(view.blocks) < (view.m_b / 24.0)[:, None])
        s = np.where(view.s_star > 0, view.s_star, 1.0)[:, None]
        want = np.copysign(grid_round_array(view.blocks / s) * s, view.blocks)
        want[~view.nonzero] = 0.0
        assert np.array_equal(qstar.view(np.uint64), want.view(np.uint64))


# --- pinned packed codes -----------------------------------------------------

_ULP = 5e-324                          # 2^-1074, the least subnormal
_PIN_B = 32
_PIN_N = 4 * _PIN_B + 5                # four whole blocks and a tail of 5
_MAX = float(np.finfo(np.float64).max)


def _pinned_input() -> np.ndarray:
    """Eight rows of four blocks of 32 and a tail of 5, built from raw PCG64
    words rather than numpy's distribution code, so the input keeps its bits
    across numpy versions. Each word gives 52 random mantissa bits (its top
    52), a sign (bit 0) and a 6-bit exponent offset (bits 1-6).

    Rows 0-3 spread their elements over 2, 4, 8 and 64 binades. Row 4 puts
    every midpoint, signed, into blocks whose maximum is 6 * 2^e, so s_star
    is 2^e, a scale at every M: exact ties for Q and Q*. Row 5 holds
    subnormal blocks with maxima of 6j units, s_star = j * 2^-1074 for j = 1,
    2, 3 and 5, and a tail whose maximum of 7 units saturates under Q and
    Q* at the scale of 1 unit. Row 6 has an all-zero block of +-0.0, a
    block of at most 2 units (s_star 0, the sentinel scale) and -0.0 inside
    a live block. Row 7 sits at 2^900, near the largest float, at 2^-1000
    and at 2^-1030.

    E8M0 codes the scales of rows 0-4 and 6 (_IN_RANGE). Row 5 and row 7's
    blocks at 2^-1000 and 2^-1030 are below its range, and row 7's blocks at
    2^900 and near the largest float above it."""
    words = np.random.PCG64(2025).random_raw((8, _PIN_N))
    unit = ((words >> np.uint64(12)) | np.uint64(1023 << 52)).view(np.float64) - 1.0
    sign = np.where(words & np.uint64(1), -1.0, 1.0)
    offset = ((words >> np.uint64(1)) & np.uint64(63)).astype(np.int64)
    x = np.empty((8, _PIN_N))
    for r, spread in enumerate((2, 4, 8, 64)):
        x[r] = sign[r] * np.ldexp(1.0 + unit[r], offset[r] % spread - spread // 2)
    starts = range(0, _PIN_N, _PIN_B)
    for b, lo in enumerate(starts):
        e = int(offset[4, lo]) - 32
        block = sign[4, lo:lo + _PIN_B] * 6.0 * unit[4, lo:lo + _PIN_B]
        block[:15] = np.concatenate([[6.0], GRID_MIDPOINTS, -GRID_MIDPOINTS])[:block.size]
        if block.size < _PIN_B:
            block[:] = [-6.0, 0.25, 2.5, -5.0, 0.75]
        x[4, lo:lo + _PIN_B] = np.ldexp(block, e)
    for lo, top in zip(starts, (6, 12, 18, 30, 7)):
        units = words[5, lo:lo + _PIN_B] % np.uint64(top + 1)
        block = sign[5, lo:lo + _PIN_B] * units.astype(np.float64) * _ULP
        block[0] = -top * _ULP if lo else top * _ULP
        x[5, lo:lo + _PIN_B] = block
    x[6] = sign[6] * (1.0 + unit[6])
    x[6, 0:32] = np.where(sign[6, 0:32] > 0, 0.0, -0.0)
    x[6, 32:64] = sign[6, 32:64] * (words[6, 32:64] % np.uint64(3)).astype(np.float64) * _ULP
    x[6, 32] = 2 * _ULP
    x[6, 64:96:3] = -0.0
    for lo, scale in zip(starts, (2.0 ** 900, _MAX / 2.0, 2.0 ** -1000, 2.0 ** -1030, 1.0)):
        x[7, lo:lo + _PIN_B] = sign[7, lo:lo + _PIN_B] * unit[7, lo:lo + _PIN_B] * scale
    x[7, 32] = _MAX
    x[7, 33] = -float(np.nextafter(_MAX, 0.0))
    return x


# The rows of _pinned_input() whose every block scale E8M0 can code
_IN_RANGE = [0, 1, 2, 3, 4, 6]
# sha256 of quantize_tensor's element codes, scale exponents and scale
# mantissas, in that order, at each M on _pinned_input()[_IN_RANGE]; "ideal"
# is the Q* codes (at s_star, which is not coded) of each block of the
# whole _pinned_input() with its padding dropped, in order. The digests at
# M were recorded with the scale coder from before E8M0's range, which
# gives these rows the same codes; "ideal" while the codes still came from
# dividing the blocks by the scale again.
_PACKED_DIGESTS = {
    0: "083f28cdb531edbfbdfe8697a2276bd2fa6bd2f1c8bb8110682b2c1e77ae6433",
    1: "545783121a9ec019390debc8950117c58a39670ed07a954d75c1174ee998a557",
    2: "5235f26aa44ee943a7b9a06aa2af6a62ee0eb2de2bebe28a7eba315b7c56fd5d",
    3: "b6f8004e0e656885e97ce5cab0e4d2fc53b1db3a1f13b1bc7648dcc77cfe9105",
    4: "6462cc6c1993e7393405b5abd9542dcc50a2adb07d99bf68d6aa134c8d95be15",
    5: "dedc1b1de1809f0050401ead4ca6dac1f456b04d535a7cda7b0d67435bb58382",
    6: "a972d5be93a8d04d84c484690e3554d61fe4d537052b714565f4ee7907b9272a",
    7: "7ef325f52d4cdde44751ad8b4ab4d3d2b37cc223a4983c73408aa52b8326d7b4",
    8: "55c540b55059ed1d52db892e8e09340ef804ea95580b6fffad016b310e86b715",
    "ideal": "ba6df6187e90539b76abe64eb88bb0659aa3a4d0f08dff8715201fb7b58a98cd",
}


class TestPackedCodeDigests:
    def test_input_covers_the_edges(self):
        x = _pinned_input()
        assert _PIN_N % _PIN_B and np.isfinite(x).all()
        view = block_view(x[_IN_RANGE], BlockQuantConfig(_PIN_B))
        s_dec, _, _ = ceil_scale_array(view.s_star, 0)
        u = view.mag / s_dec[:, None]
        assert set(GRID_MIDPOINTS.tolist()) <= set(u.ravel().tolist())       # ties
        assert (view.nonzero & (view.s_star == 0.0)).any()     # sentinel scale
        assert (~view.nonzero).any()
        assert (np.signbit(x[_IN_RANGE]) & (x[_IN_RANGE] == 0.0)).any()
        view = block_view(x, BlockQuantConfig(_PIN_B))
        assert {j * _ULP for j in (1, 2, 3, 5)} <= set(view.s_star.tolist())
        assert (view.mag / np.where(view.s_star > 0, view.s_star, 1.0)[:, None] > 6.0).any()

    @pytest.mark.parametrize("key", [*range(9), "ideal"])
    def test_digest(self, key):
        x = _pinned_input()
        assert _packed_digest(x if key == "ideal" else x[_IN_RANGE], key) == _PACKED_DIGESTS[key]

    @pytest.mark.parametrize("m", range(9))
    def test_rows_outside_e8m0(self, m):
        # row 5's subnormal blocks and row 7's at 2^-1000 and 2^-1030 get the
        # clamped scale 2^-127, under which every element codes 0; row 7's
        # blocks at 2^900 and near the largest float are refused by name
        x = _pinned_input()
        config = BlockQuantConfig(_PIN_B, m)
        qt = quantize_tensor(np.concatenate([x[5], x[7, 2 * _PIN_B:4 * _PIN_B]]), config)
        assert qt.scale_exponents.tolist() == [-127] * 7
        assert not qt.scale_mantissas.any() and not qt.element_codes.any()
        for lo in (0, _PIN_B):
            with pytest.raises(ValueError, match="E8M0's range"):
                quantize_tensor(x[7, lo:lo + _PIN_B], config)


def _packed_digest(x: np.ndarray, key) -> str:
    h = hashlib.sha256()
    if key == "ideal":
        view = block_view(x, BlockQuantConfig(_PIN_B))
        h.update(np.ascontiguousarray(view.restore(_packed_codes(view, view.s_star))).tobytes())
    else:
        qt = quantize_tensor(x, BlockQuantConfig(_PIN_B, key))
        for a in (qt.element_codes, qt.scale_exponents, qt.scale_mantissas):
            h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()
