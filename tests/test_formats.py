import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mxblock import quantize
from mxblock.formats import (
    _INDEX_BY_HALVES,
    GRID_MAGNITUDES,
    GRID_MIDPOINTS,
    Q_MAX,
    Q_MIN,
    _round_magnitude,
    ceil_scale_array,
    grid_round_array,
)
from mxblock.decompose import _check_split, decompose_tensor
from mxblock.quantize import BlockQuantConfig, quantize_tensor

# Ties sit halfway between magnitudes; each resolves to the even index.
# (magnitude, rounded value) covering every midpoint from both sides.
TIE_TABLE = [
    (0.25, 0.0),    # idx 0 even, stays
    (0.75, 1.0),    # idx 1 odd, bumps to 2
    (1.25, 1.0),    # idx 2 even, stays
    (1.75, 2.0),    # idx 3 odd, bumps to 4
    (2.5, 2.0),     # idx 4 even, stays
    (3.5, 4.0),     # idx 5 odd, bumps to 6
    (5.0, 4.0),     # idx 6 even, stays
]

NEAREST_TABLE = [
    (0.0, 0.0), (0.1, 0.0), (0.24, 0.0), (0.26, 0.5), (0.49, 0.5),
    (0.5, 0.5), (0.74, 0.5), (0.76, 1.0), (1.0, 1.0), (1.24, 1.0),
    (1.26, 1.5), (1.5, 1.5), (1.74, 1.5), (1.76, 2.0), (2.0, 2.0),
    (2.49, 2.0), (2.51, 3.0), (3.0, 3.0), (3.49, 3.0), (3.51, 4.0),
    (4.0, 4.0), (4.99, 4.0), (5.01, 6.0), (6.0, 6.0), (6.5, 6.0),
    (100.0, 6.0), (1e300, 6.0),
]


class TestGridRounding:
    def test_grid_constants(self):
        assert GRID_MAGNITUDES.tolist() == [0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 6.0]
        assert GRID_MIDPOINTS.tolist() == [0.25, 0.75, 1.25, 1.75, 2.5, 3.5, 5.0]

    def test_nearest_table(self):
        for u, expect in NEAREST_TABLE:
            got = grid_round_array(np.array([u]))[0]
            assert got == expect, f"round({u}) = {got}, want {expect}"

    def test_tie_table(self):
        for u, expect in TIE_TABLE:
            assert grid_round_array(np.array([u]))[0] == expect
            assert grid_round_array(np.array([-u]))[0] == -expect

    def test_sign_symmetry(self):
        rng = np.random.default_rng(10)
        u = rng.uniform(-8, 8, size=4096)
        assert np.array_equal(grid_round_array(-u), -grid_round_array(u))

    def test_rounding_is_nearest(self):
        # away from ties, the chosen magnitude minimizes |u - g|
        rng = np.random.default_rng(11)
        u = rng.uniform(0, 7, size=20000)
        u = u[np.abs(u[:, None] - GRID_MIDPOINTS[None, :]).min(axis=1) > 1e-9]
        got = grid_round_array(u)
        best = GRID_MAGNITUDES[np.abs(u[:, None] - GRID_MAGNITUDES[None, :]).argmin(axis=1)]
        assert np.array_equal(got, best)

    def test_index_array_matches_scalar(self):
        rng = np.random.default_rng(12)
        u = np.concatenate([rng.uniform(-9, 9, 512), GRID_MIDPOINTS, -GRID_MIDPOINTS])
        vals = grid_round_array(u)
        idx = grid_index(vals)
        assert idx.tolist() == [reference_index(v) for v in u.tolist()]
        assert np.array_equal(np.copysign(GRID_MAGNITUDES[idx], u), vals)

    def test_scalar_zero_sign(self):
        # a small negative element of a live block packs to code 0, which
        # carries no sign: it dequantizes to +0.0
        qt = quantize_tensor(np.array([4.0, -0.1, 1.0, -0.0]), BlockQuantConfig(4))
        assert qt.element_codes.tolist() == [[6, 0, 2, 0]]
        assert not np.signbit(qt.dequantize()).any()


def grid_index(g: np.ndarray) -> np.ndarray:
    """Grid index of each rounded value g, by the table the packed codes
    use: _INDEX_BY_HALVES[2 |g|]."""
    return _INDEX_BY_HALVES[(2.0 * np.abs(g)).astype(np.intp)]


def reference_index(u: float) -> int:
    """Index of the grid magnitude nearest |u|, by exact rational distance to
    all eight; an exact tie goes to the even index. Anything above 6 is
    nearest to 6, so saturation needs no rule of its own."""
    dist = [abs(Fraction(abs(u)) - Fraction(g)) for g in GRID_MAGNITUDES.tolist()]
    best = [i for i, d in enumerate(dist) if d == min(dist)]
    return best[0] if len(best) == 1 else next(i for i in best if i % 2 == 0)


# Midpoints, grid points and saturation cases, each with its one-ulp
# neighbours, plus subnormals and far-out binades.
_EDGE_MAGNITUDES = sorted(
    {float(w) for v in [*GRID_MIDPOINTS.tolist(), *GRID_MAGNITUDES.tolist(),
                        6.5, 7.0, 8.0, 100.0]
     for w in (v, np.nextafter(v, 0.0), np.nextafter(v, np.inf))}
    | {5e-324, 2.0 ** -1050, 2.2250738585072014e-308, 2.0 ** -1000, 2.0 ** 1000,
       1.7976931348623157e308})
_ROUNDING_INPUTS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(-8.0, 8.0),
    st.builds(math.copysign, st.sampled_from(_EDGE_MAGNITUDES), st.sampled_from([1.0, -1.0])))


class TestRoundingProperty:
    """The arithmetic kernel against the definition of the tie table, the
    rule every error component rests on."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.lists(_ROUNDING_INPUTS, min_size=1, max_size=64))
    def test_matches_brute_force(self, values):
        u = np.array(values)
        got = grid_round_array(u)
        idx = grid_index(got)
        for v, g, i in zip(values, got.tolist(), idx.tolist()):
            want = reference_index(v)
            assert i == want, f"index({v!r}) = {i}, want {want}"
            assert g == math.copysign(GRID_MAGNITUDES[want], v), f"round({v!r}) = {g}"
            assert math.copysign(1.0, g) == math.copysign(1.0, v)
        assert np.array_equal(GRID_MAGNITUDES[idx], np.abs(got))

    def test_every_edge_value(self):
        u = np.array(_EDGE_MAGNITUDES + [-v for v in _EDGE_MAGNITUDES] + [0.0, -0.0])
        got = grid_round_array(u)
        want = [math.copysign(GRID_MAGNITUDES[reference_index(v)], v) for v in u.tolist()]
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(u))
        assert grid_index(got).tolist() == [reference_index(v) for v in u.tolist()]


def brute_force_ceiling(s_star: float, mantissa_bits: int) -> float:
    """Smallest representable 2^e * (1 + k/2^M) >= s_star, by scan."""
    levels = 1 << mantissa_bits
    e = math.floor(math.log2(s_star)) - 2
    best = None
    for ee in range(e, e + 6):
        for k in range(levels):
            val = math.ldexp(1.0 + k / levels, ee)
            if val >= s_star and (best is None or val < best):
                best = val
    return best


class TestScaleCeiling:
    def test_brute_force_scan(self):
        rng = np.random.default_rng(13)
        s = np.exp(rng.uniform(-12, 12, size=400))
        for m in (0, 1, 2, 3, 8):
            decoded, _, _ = ceil_scale_array(s, m)
            for si, di in zip(s, decoded):
                assert di == brute_force_ceiling(float(si), m)

    def test_exact_powers_fixed(self):
        for m in range(9):
            s = 2.0 ** np.arange(-20, 21)
            decoded, exps, mants = ceil_scale_array(s, m)
            assert np.array_equal(decoded, s)
            assert np.array_equal(mants, np.zeros_like(mants))

    def test_ceiling_dominates(self):
        rng = np.random.default_rng(14)
        s = np.exp(rng.uniform(-40, 40, size=5000))
        for m in range(9):
            decoded, _, _ = ceil_scale_array(s, m)
            assert (decoded >= s).all()
            # within one mantissa step of s_star
            assert (decoded <= s * (1.0 + 1.0 / (1 << m)) * (1 + 1e-15)).all()

    def test_nesting(self):
        # finer mantissa grids never produce a larger ceiling
        rng = np.random.default_rng(15)
        s = np.exp(rng.uniform(-8, 8, size=2000))
        prev = None
        for m in range(9):
            decoded, _, _ = ceil_scale_array(s, m)
            if prev is not None:
                assert (decoded <= prev).all()
            prev = decoded

    def test_m0_is_pow2_ceiling(self):
        rng = np.random.default_rng(16)
        s = np.exp(rng.uniform(-10, 10, size=2000))
        decoded, _, _ = ceil_scale_array(s, 0)
        assert np.array_equal(decoded, np.exp2(np.ceil(np.log2(s))))

    def test_codes_are_int64(self):
        # shifted into a float64 exponent field, an int32 exponent would wrap;
        # 1e300 and 2^1000 are past E8M0's range, whose top exponent is 127
        for m in (0, 3, 8):
            _, exps, mants = ceil_scale_array(np.array([0.0, 1e-300, 3.0]), m)
            assert exps.dtype == np.int64 and mants.dtype == np.int64
            assert ((1023 + exps) << 52).dtype == np.int64
            with pytest.raises(ValueError, match="E8M0's range"):
                ceil_scale_array(np.array([0.0, 1e-300, 3.0, 1e300]), m)
        _, exps, _ = ceil_scale_array(np.array([2.0 ** 127]), 0)
        assert (1023 + exps[0]) << 52 == (1023 + 127) << 52
        with pytest.raises(ValueError, match="exponent 1000, above the largest, 127"):
            ceil_scale_array(np.array([2.0 ** 1000]), 0)

    @pytest.mark.parametrize("m", range(9))
    def test_range_edge_is_the_largest_scale(self, m):
        # the range check compares the largest entry with 2^127 (2 - 2^-M),
        # the largest E8Mk value: it is coded as itself, and the float above
        # it, anywhere in the array, is refused naming exponent 128
        largest = 2.0 ** 127 * (2.0 - 2.0 ** -m)
        decoded, e, k = ceil_scale_array(np.array([1.0, largest, 0.0]), m)
        assert (decoded[1], e[1], k[1]) == (largest, 127, (1 << m) - 1)
        with pytest.raises(ValueError, match="exponent 128, above the largest, 127"):
            ceil_scale_array(np.array([1.0, np.nextafter(largest, np.inf), 0.0]), m)

    def test_carry_wraps_to_next_exponent(self):
        # just above a power of two with M=0 the ceiling doubles
        decoded, exps, mants = ceil_scale_array(np.array([1.0 + 1e-12]), 0)
        assert decoded[0] == 2.0 and mants[0] == 0


class TestCeilingMinimalityProperty:
    """The coded scale is the least E8Mk value >= s_star: the representable
    value just below it is below s_star, unless the scale is E8M0's least,
    2^-127. Past its largest, 2^127 (2 - 2^-M), s_star is refused. Checked
    in exact rationals."""

    @settings(max_examples=500, deadline=None, derandomize=True)
    @given(st.floats(2.0 ** -1000, 2.0 ** 1000), st.integers(0, 8))
    def test_next_value_below_is_below_s_star(self, s_star, m):
        levels = 1 << m

        def value(exp, code):
            return Fraction(2) ** exp * (1 + Fraction(code, levels))

        if Fraction(s_star) > value(127, levels - 1):
            with pytest.raises(ValueError, match="E8M0's range"):
                ceil_scale_array(np.array([s_star]), m)
            return
        decoded, e, k = ceil_scale_array(np.array([s_star]), m)
        e, k = int(e[0]), int(k[0])
        assert 0 <= k < levels and -127 <= e <= 127
        assert Fraction(float(decoded[0])) == value(e, k)
        assert Fraction(s_star) <= value(e, k)
        if (e, k) != (-127, 0):
            assert (value(e, k - 1) if k else value(e - 1, levels - 1)) < Fraction(s_star)


class TestCodes:
    def test_scale_code_decode(self):
        # m_b = 48 at M = 0: s_star = 8 = 2^3, code (3, 0); m_b = 9 at
        # M = 8: s_star = 1.5 = 2^0 (1 + 128/256), code (0, 128). Every
        # element is a grid value times the scale, so dequantize returns it.
        for x, m, code in (([48.0, -12.0, 4.0, 0.0], 0, (3, 0)),
                           ([9.0, -1.5, 0.75, 0.0], 8, (0, 128))):
            qt = quantize_tensor(np.array(x), BlockQuantConfig(4, m))
            assert (qt.scale_exponents[0], qt.scale_mantissas[0]) == code
            assert qt.dequantize().tolist() == x

    def test_element_grid_frozen(self):
        assert Q_MAX == 6.0 and Q_MIN == 0.5
        assert GRID_MAGNITUDES[-1] == Q_MAX and GRID_MAGNITUDES[1] == Q_MIN


# --- rounding by addition -------------------------------------------------------

_ABOVE_SIX = float(np.nextafter(6.0, np.inf))     # 6 + 2^-50 <= 6 (1 + 2^-52)
# every midpoint and grid point with its one-ulp neighbours, and subnormals
_ADDITION_EDGES = sorted(
    {float(w) for v in [*GRID_MIDPOINTS.tolist(), *GRID_MAGNITUDES[1:].tolist()]
     for w in (v, np.nextafter(v, 0.0), np.nextafter(v, np.inf))}
    | {0.0, 5e-324, 1.5e-323, 2.0 ** -1050, float(np.nextafter(2.0 ** -1022, 0.0)),
       2.0 ** -1022, _ABOVE_SIX})
_ADDITION_INPUTS = st.one_of(st.floats(0.0, _ABOVE_SIX),
                             st.sampled_from(_ADDITION_EDGES))


def _rational_index(r: Fraction) -> int:
    """Index of the grid magnitude nearest the rational r >= 0; an exact tie
    goes to the even index."""
    dist = [abs(r - Fraction(g)) for g in GRID_MAGNITUDES.tolist()]
    best = [i for i, d in enumerate(dist) if d == min(dist)]
    return best[0] if len(best) == 1 else next(i for i in best if i % 2 == 0)


class TestRoundingByAddition:
    """(a + C) - C with C = 1.5 * 2^52 * step, the one rounding kernel,
    against the nearest grid value with index-parity ties, in exact
    rationals, on the magnitudes the quantizers give it: up to 6 (1 +
    2^-52), midpoints and grid points to one ulp, and subnormals."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.lists(_ADDITION_INPUTS, min_size=1, max_size=64), st.booleans())
    def test_round_magnitude(self, values, saturate):
        got = _round_magnitude(np.array(values), saturate=saturate)
        for v, g in zip(values, got.tolist()):
            assert g == GRID_MAGNITUDES[_rational_index(Fraction(v))], v
        assert not np.signbit(got).any()

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.lists(_ADDITION_INPUTS, min_size=1, max_size=64),
           st.sampled_from([*quantize._FOLD_EXPONENTS, -1000, -1, 0, 1, 500]))
    def test_folded_scale(self, values, e):
        # at scale 2^e the fold rounds |x| / 2^e, whatever bits |x| = u 2^e
        # lost to the subnormal range, and gives the grid value times 2^e
        mag = np.array(values) * 2.0 ** e
        got = quantize._mag_round_pow2(mag[None, :], np.array([2.0 ** e]))[0]
        for x, g in zip(mag.tolist(), got.tolist()):
            want = GRID_MAGNITUDES[_rational_index(Fraction(x) / Fraction(2) ** e)]
            assert Fraction(g) == Fraction(want) * Fraction(2) ** e, x


_DBL_MAX = float(np.finfo(np.float64).max)
_CEIL_INPUTS = st.one_of(
    st.floats(2.0 ** -1022, _DBL_MAX),
    st.floats(5e-324, 2.0 ** -1022, exclude_max=True),
    st.builds(math.ldexp, st.just(1.0), st.integers(-1074, 1023)),
    # just above the largest code 2 - 2^-m of a binade: a carry at M <= m
    st.builds(lambda m, e: math.nextafter(math.ldexp(2.0 - 2.0 ** -m, e), math.inf),
              st.integers(0, 8), st.integers(-1074, 1022)),
    st.sampled_from([_DBL_MAX / 6.0, _DBL_MAX, 2.0 ** -1022,
                     float(np.nextafter(2.0 ** -1022, 0.0)), 5e-324, 1.0,
                     float(np.nextafter(1.0, np.inf)), 0.0, -0.0, -1.0]))


def _frexp_ceiling(s, m):
    """(decoded, e, k) of the least (1 + k / 2^m) 2^e >= max(s, 2^-127) for
    s > 0 finite, by frexp: s = f 2^p, t = 2f in [1, 2), k = ceil((t - 1)
    2^m), which is exact in floats, at exponent p - 1; k = 2^m carries to
    the next one. None where e passes E8M0's 127: the scale is refused."""
    f, p = math.frexp(max(s, 2.0 ** -127))
    levels = 1 << m
    k = math.ceil((2.0 * f - 1.0) * levels)
    e = p - 1
    if k == levels:
        k, e = 0, e + 1
    return None if e > 127 else (math.ldexp(1.0 + k / levels, e), e, k)


class TestPowerOfTwoCeilingProperty:
    """ceil_scale_array(s, m), from the bits of max(s, 2^-127), against the
    frexp rule entry by entry at every m: normal and subnormal scales,
    powers of two and mantissa carries, below, within and above E8M0's
    range. M = 0 is the power of two at or above s. A call with any entry
    past the range is refused, and each such entry is refused alone."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.lists(_CEIL_INPUTS, min_size=1, max_size=32), st.integers(0, 8))
    def test_matches_frexp_rule(self, values, m):
        want = [_frexp_ceiling(s, m) if s > 0 else (1.0, 0, 0) for s in values]
        coded = [s for s, w in zip(values, want) if w is not None]
        decoded, e, k = ceil_scale_array(np.array(coded), m)
        assert e.dtype == np.int64 and k.dtype == np.int64
        got = list(zip(decoded.tolist(), e.tolist(), k.tolist()))
        assert got == [w for w in want if w is not None], coded
        for s in {s for s, w in zip(values, want) if w is None}:
            with pytest.raises(ValueError, match="E8M0's range"):
                ceil_scale_array(np.array([s]), m)
        if len(coded) < len(values):
            with pytest.raises(ValueError, match="E8M0's range"):
                ceil_scale_array(np.array(values), m)

    @pytest.mark.parametrize("m", range(9))
    def test_unscalable_entries_pass_through(self, m):
        # s* <= 0 and nan are decoded 1.0 with code (0, 0), without a numpy
        # warning, beside a normal and a subnormal entry; +inf is past
        # E8M0's range and is refused, without a warning too
        bad = [0.0, -0.0, -1.0, -math.inf, -5e-324, math.nan]
        values = np.array(bad + [3.0, 1e-310])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            decoded, e, k = ceil_scale_array(values, m)
            with pytest.raises(ValueError, match="exponent 1024, above the largest, 127"):
                ceil_scale_array(np.array(bad + [math.inf]), m)
        n = len(bad)
        assert decoded[:n].tolist() == [1.0] * n
        assert e[:n].tolist() == [0] * n and k[:n].tolist() == [0] * n
        for s, got in zip(values[n:].tolist(), zip(decoded[n:].tolist(), e[n:].tolist(),
                                                  k[n:].tolist())):
            assert got == _frexp_ceiling(s, m)


# --- E8M0's range over every BF16 block maximum -----------------------------------


def _ceiling_exponent(s, m):
    """(e, k) of the least (1 + k / 2^m) 2^e >= s for s > 0 finite, by
    frexp, with no range: s = f 2^p, k = ceil((2f - 1) 2^m) at exponent p -
    1, and k = 2^m carries to the next exponent."""
    f, p = math.frexp(s)
    k = math.ceil((2.0 * f - 1.0) * (1 << m))
    return (p, 0) if k == 1 << m else (p - 1, k)


class TestE8M0RangeOverBF16:
    """Every positive finite BF16 value, 0x0001 to 0x7F7F, as a block
    maximum: each coded exponent is in [-127, 127] and is the exponent of
    max(ceiling, 2^-127), the ceiling's own codes above 2^-127 and (-127, 0)
    below. The BF16-subnormal maxima, below 2^-126, all get -127. No BF16
    value is past the range (the largest, 3.4e38, codes exponent 126 at M =
    0), and the split of every block passes its check."""

    @pytest.mark.parametrize("m", [0, 8])
    def test_every_positive_bf16_maximum(self, m):
        top = ((np.arange(1, 0x7F80, dtype=np.uint32) << 16).view(np.float32)
               .astype(np.float64))
        assert top.size == 32639 and np.isfinite(top).all() and (top > 0).all()
        x = top[:, None] * np.array([1.0, -0.7, 0.3, -1.0 / 7.0])
        cfg = BlockQuantConfig(4, m)
        qt = quantize_tensor(x, cfg)
        e, k = qt.scale_exponents, qt.scale_mantissas
        assert -127 <= e.min() and e.max() <= 127
        want = [_ceiling_exponent(t / 6.0, m) for t in top.tolist()]
        assert e.tolist() == [max(we, -127) for we, _ in want]
        assert k.tolist() == [wk if we >= -127 else 0 for we, wk in want]
        assert (e[top < 2.0 ** -126] == -127).all()
        _check_split("every BF16 maximum", decompose_tensor(x, cfg, keep_errors=False))
