import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mxblock.formats import (
    E2M1,
    GRID_MAGNITUDES,
    GRID_MIDPOINTS,
    GridCode,
    ScaleCode,
    ceil_scale_array,
    decode_grid,
    encode_scale_ceiling,
    grid_index_array,
    grid_round_array,
    nearest_grid_code,
)

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
        codes = [nearest_grid_code(v) for v in u]
        vals = grid_round_array(u)
        for v, code, val in zip(u, codes, vals):
            assert decode_grid(code) == val

    def test_scalar_zero_sign(self):
        code = nearest_grid_code(-0.1)
        assert code.index == 0 and code.sign == 0  # zero carries no sign

    def test_non_finite_rejected(self):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="non-finite"):
                nearest_grid_code(bad)


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
        idx = grid_index_array(np.abs(u))
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
        assert np.array_equal(grid_index_array(np.abs(u)),
                              [reference_index(v) for v in u.tolist()])


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
        # frexp gives int32 exponents; shifted into a float64 exponent field
        # (quantize._round_pow2) an int32 would wrap
        for m in (0, 3, 8):
            _, exps, mants = ceil_scale_array(np.array([0.0, 1e-300, 3.0, 1e300]), m)
            assert exps.dtype == np.int64 and mants.dtype == np.int64
            assert ((1023 + exps) << 52).dtype == np.int64
        _, exps, _ = ceil_scale_array(np.array([2.0 ** 1000]), 0)
        assert (1023 + exps[0]) << 52 == (1023 + 1000) << 52

    def test_carry_wraps_to_next_exponent(self):
        # just above a power of two with M=0 the ceiling doubles
        decoded, exps, mants = ceil_scale_array(np.array([1.0 + 1e-12]), 0)
        assert decoded[0] == 2.0 and mants[0] == 0

    def test_scalar_encode_matches_kernel(self):
        rng = np.random.default_rng(17)
        for s in np.exp(rng.uniform(-6, 6, size=64)):
            for m in (0, 3, 8):
                code = encode_scale_ceiling(float(s), m)
                decoded, exps, mants = ceil_scale_array(np.array([s]), m)
                assert code.decode() == decoded[0]
                assert code.exponent == exps[0] and code.mantissa_code == mants[0]

    def test_invalid_scale(self):
        for bad in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(ValueError):
                encode_scale_ceiling(bad, 0)


class TestCeilingMinimalityProperty:
    """The coded scale is the least E8Mk value >= s_star: the representable
    value just below it is below s_star. Checked in exact rationals."""

    @settings(max_examples=500, deadline=None, derandomize=True)
    @given(st.floats(2.0 ** -1000, 2.0 ** 1000), st.integers(0, 8))
    def test_next_value_below_is_below_s_star(self, s_star, m):
        decoded, e, k = ceil_scale_array(np.array([s_star]), m)
        e, k, levels = int(e[0]), int(k[0]), 1 << m
        assert 0 <= k < levels

        def value(exp, code):
            return Fraction(2) ** exp * (1 + Fraction(code, levels))

        below = value(e, k - 1) if k else value(e - 1, levels - 1)
        assert Fraction(float(decoded[0])) == value(e, k)
        assert below < Fraction(s_star) <= value(e, k)


class TestCodes:
    def test_grid_code_validation(self):
        with pytest.raises(ValueError):
            GridCode(sign=1, index=8)
        with pytest.raises(ValueError):
            GridCode(sign=-1, index=0)  # zero must carry sign 0
        with pytest.raises(ValueError):
            GridCode(sign=0, index=3)

    def test_scale_code_validation(self):
        with pytest.raises(ValueError):
            ScaleCode(exponent=0, mantissa_code=2, mantissa_bits=1)
        with pytest.raises(ValueError):
            ScaleCode(exponent=0, mantissa_code=0, mantissa_bits=9)

    def test_scale_code_decode(self):
        assert ScaleCode(exponent=3, mantissa_code=0, mantissa_bits=0).decode() == 8.0
        assert ScaleCode(exponent=0, mantissa_code=128, mantissa_bits=8).decode() == 1.5

    def test_element_grid_frozen(self):
        assert E2M1.q_max == 6.0 and E2M1.q_min == 0.5
