import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from mxblock import decompose, quantize
from mxblock.corrections import MbsConfig, OfConfig, mbs_qdq, of_qdq
from mxblock.formats import ceil_scale_array
from mxblock.decompose import (
    DecompReport,
    decompose_tensor,
    orthogonality_check,
    scale_precision_sweep,
    tensor_stats,
    verify_identity,
)
from mxblock.quantize import BlockQuantConfig, block_view, qdq_tensor, qdq_views

WORKED_X = np.array([0.03, 0.1, 0.3, 0.5, 0.9, 1.5, 2.0, 4.0])
WORKED_E_SCALE = np.array([0.0, 0.0, 1 / 6, -1 / 6, 0.0, 1 / 6, 0.0, 0.0])
WORKED_E_DZ = np.array([-0.03, -0.1, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0])
WORKED_E_GRID = np.array([0.0, 0.0, 1 / 30, 1 / 6, 0.1, -1 / 6, 0.0, 0.0])


def _cfg8():
    return BlockQuantConfig(block_size=8)


def _families(rng, shape=(64, 96)):
    yield "gaussian", rng.standard_normal(shape)
    yield "laplace", rng.laplace(size=shape)
    yield "student_t", rng.standard_t(5.0, size=shape)


class TestWorkedBlock:
    def setup_method(self):
        self.d = decompose_tensor(WORKED_X, _cfg8())

    def test_component_vectors(self):
        np.testing.assert_allclose(self.d.e_scale, WORKED_E_SCALE, atol=1e-15)
        np.testing.assert_allclose(self.d.e_dz, WORKED_E_DZ, atol=1e-15)
        np.testing.assert_allclose(self.d.e_grid, WORKED_E_GRID, atol=1e-15)

    def test_norms(self):
        assert self.d.n2_scale == pytest.approx(1 / 12, abs=1e-12)
        assert self.d.n2_dz == pytest.approx(0.0109, abs=1e-12)
        assert self.d.n2_grid == pytest.approx(1 / 15, abs=1e-12)
        assert self.d.n2_total == pytest.approx(0.0609, abs=1e-12)

    def test_cross_term(self):
        assert self.d.ip_scale_grid == pytest.approx(-0.05, abs=1e-12)
        assert self.d.ip_scale_dz == 0.0
        assert self.d.ip_dz_grid == 0.0

    def test_dz_fraction(self):
        assert self.d.dz_fraction == 0.25

    def test_identity(self):
        assert verify_identity(self.d) <= 1e-9

    def test_cosine(self):
        want = -0.05 / np.sqrt((1 / 12) * (1 / 15))
        assert self.d.cos_scale_grid == pytest.approx(want, rel=1e-12)
        assert self.d.cos_defined["scale_grid"]


class TestIdentityAndOrthogonality:
    def test_identity_across_families_and_m(self):
        rng = np.random.default_rng(30)
        for _, x in _families(rng):
            for m in range(9):
                cfg = BlockQuantConfig(scale_mantissa_bits=m)
                d = decompose_tensor(x, cfg)
                assert verify_identity(d) <= 1e-9

    def test_dz_orthogonality_exact(self):
        # structural: e_dz has disjoint support from e_grid, and e_scale
        # vanishes on dead coordinates (both round to zero index)
        rng = np.random.default_rng(31)
        for _, x in _families(rng):
            d = decompose_tensor(x, BlockQuantConfig())
            assert orthogonality_check(d) == (0.0, 0.0)

    def test_components_sum_to_total(self):
        rng = np.random.default_rng(32)
        x = rng.standard_normal((32, 64))
        d = decompose_tensor(x, BlockQuantConfig())
        np.testing.assert_allclose(
            d.e_scale + d.e_dz + d.e_grid, d.e_total, atol=1e-12)

    def test_independent_inner_product_route(self):
        rng = np.random.default_rng(33)
        x = rng.laplace(size=(16, 64))
        d = decompose_tensor(x, BlockQuantConfig())
        assert d.ip_scale_grid == pytest.approx(
            float((d.e_scale * d.e_grid).sum()), rel=1e-10)
        assert d.n2_total == pytest.approx(
            float((d.e_total ** 2).sum()), rel=1e-10)

    def test_sign_flip_invariance(self):
        rng = np.random.default_rng(34)
        x = rng.standard_normal((8, 64))
        a = decompose_tensor(x, BlockQuantConfig())
        b = decompose_tensor(-x, BlockQuantConfig())
        assert np.array_equal(a.e_scale, -b.e_scale)
        assert a.n2_total == b.n2_total
        assert a.ip_scale_grid == b.ip_scale_grid

    def test_cosines_exact_under_power_of_two_scale(self):
        # a power-of-two scale is exact through the whole decomposition, so
        # the cosines must not move; the product of the two squared norms
        # would overflow at 2^300 and underflow at 2^-300
        rng = np.random.default_rng(35)
        x = rng.standard_normal((16, 96))
        ref = decompose_tensor(x, BlockQuantConfig())
        assert all(ref.cos_defined.values())
        for e in (-300, 300):
            d = decompose_tensor(x * 2.0 ** e, BlockQuantConfig())
            assert (d.cos_scale_grid, d.cos_scale_dz, d.cos_dz_grid) == (
                ref.cos_scale_grid, ref.cos_scale_dz, ref.cos_dz_grid)
            assert d.cos_defined == ref.cos_defined

    def test_zero_tensor(self):
        d = decompose_tensor(np.zeros((4, 32)), BlockQuantConfig())
        assert d.n2_total == 0.0
        assert not any(d.cos_defined.values())
        assert d.cos_scale_grid == 0.0
        assert d.dz_fraction == 0.0


class TestTensorStats:
    def test_records_sorted_and_complete(self):
        rng = np.random.default_rng(35)
        tensors = {"b": rng.standard_normal((4, 64)),
                   "a": rng.standard_normal((4, 64)),
                   "c": np.zeros((2, 32))}
        rep = tensor_stats(tensors, BlockQuantConfig())
        assert [r["name"] for r in rep.records] == ["a", "b", "c"]
        assert rep.records[2]["zero_error"]
        assert not rep.records[0]["zero_error"]

    def test_shares_partition_unity(self):
        rng = np.random.default_rng(36)
        tensors = {f"t{i}": rng.standard_normal((8, 64)) for i in range(5)}
        rep = tensor_stats(tensors, BlockQuantConfig())
        for r in rep.records:
            total = (r["share_scale"] + r["share_dz"] + r["share_grid"]
                     + r["cross_share"])
            assert total == pytest.approx(1.0, abs=1e-9)
            assert r["identity_residual"] <= 1e-9
            assert r["dz_inner_products"] == [0.0, 0.0]

    def test_aggregates_exclude_zero_error(self):
        rng = np.random.default_rng(37)
        tensors = {"live": rng.standard_normal((8, 64)),
                   "dead": np.zeros((8, 64))}
        rep = tensor_stats(tensors, BlockQuantConfig())
        live = next(r for r in rep.records if r["name"] == "live")
        assert rep.aggregates["share_scale"]["mean"] == live["share_scale"]
        assert rep.aggregates["share_scale"]["std"] == 0.0

    def test_cos_histogram_accounts_live_tensors(self):
        rng = np.random.default_rng(38)
        tensors = {f"t{i}": rng.standard_normal((4, 64)) for i in range(7)}
        rep = tensor_stats(tensors, BlockQuantConfig())
        hist = rep.cos_histogram
        assert len(hist["counts"]) == len(hist["bin_edges"]) - 1
        assert sum(hist["counts"]) == 7
        assert hist["bin_edges"][0] == -1.0 and hist["bin_edges"][-1] == 1.0

    def test_csv_rows_align_with_records(self):
        rng = np.random.default_rng(39)
        rep = tensor_stats({"x": rng.standard_normal((4, 64))},
                           BlockQuantConfig())
        cols, rows = rep.csv_rows()
        assert len(rows) == 1 and len(rows[0]) == len(cols)
        for c, v in zip(cols, rows[0]):
            assert rep.records[0][c] == v

    def test_to_json_dict_round_trip_keys(self):
        rng = np.random.default_rng(40)
        rep = tensor_stats({"x": rng.standard_normal((4, 64))},
                           BlockQuantConfig())
        d = rep.to_json_dict()
        assert set(d) == {"records", "aggregates", "cos_histogram", "config"}
        assert d["config"]["block_size"] == 32

    def test_empty_raises(self):
        with pytest.raises(ValueError, match="empty"):
            tensor_stats({}, BlockQuantConfig())


class TestScalePrecisionSweep:
    def test_grid_and_dz_bitwise_constant(self):
        rng = np.random.default_rng(41)
        x = rng.standard_normal((32, 128))
        d0 = decompose_tensor(x, BlockQuantConfig(scale_mantissa_bits=0))
        d8 = decompose_tensor(x, BlockQuantConfig(scale_mantissa_bits=8))
        assert np.array_equal(d0.e_grid, d8.e_grid)
        assert np.array_equal(d0.e_dz, d8.e_dz)
        assert d0.n2_grid == d8.n2_grid

    def test_rows_and_flag(self):
        rng = np.random.default_rng(42)
        x = rng.standard_normal((16, 128))
        rows = scale_precision_sweep(x)
        assert [r["M"] for r in rows] == list(range(9))
        flags = {r["mse_monotone"] for r in rows}
        assert len(flags) == 1 and isinstance(flags.pop(), bool)
        for r in rows:
            got = r["mse_scale"] + r["mse_dz"] + r["mse_grid"] + r["cross"]
            assert got == pytest.approx(r["mse_total"], rel=1e-9)

    def test_scale_error_shrinks_with_m(self):
        rng = np.random.default_rng(43)
        x = rng.standard_normal((32, 128))
        rows = scale_precision_sweep(x)
        # e_scale couples to rounding, so it shrinks slower than the pure
        # gamma-ratio mse; measured ratio here is ~87x
        assert rows[8]["mse_scale"] < rows[0]["mse_scale"] / 50.0

    def test_empty_m_list_raises(self):
        with pytest.raises(ValueError, match="empty"):
            scale_precision_sweep(np.ones(32), m_list=[])


# Scaled values that stress Q*: exact midpoints, grid points, and the deadzone
# threshold 0.25 with its neighbours. Under a block max of 6, s_star = 1 and
# these are exactly the scaled values.
_EDGE_U = sorted({float(v) for m in (0.25, 0.5, 0.75, 1.25, 1.75, 2.5, 3.5, 5.0, 6.0)
                  for v in (m, np.nextafter(m, 0.0), np.nextafter(m, 7.0))})


@st.composite
def _qstar_cases(draw):
    lead = draw(hnp.array_shapes(min_dims=0, max_dims=2, min_side=1, max_side=5))
    shape = lead + (draw(st.integers(1, 200)),)
    elements = st.one_of(
        st.floats(-6.0, 6.0, allow_nan=False, allow_subnormal=False),
        st.sampled_from(_EDGE_U + [-u for u in _EDGE_U]))
    x = draw(hnp.arrays(np.float64, shape, elements=elements))
    block_size = draw(st.integers(1, 64))
    if draw(st.booleans()):
        x.reshape(-1, shape[-1])[:, ::block_size] = 6.0   # every block max is 6
    # 2^-1070 makes every value subnormal
    x = x * 2.0 ** draw(st.sampled_from([0, -1000, 1000, -1070]))
    return x, BlockQuantConfig(block_size=block_size,
                               scale_mantissa_bits=draw(st.integers(0, 8)))


class TestQstarFromDecomposition:
    """x + (e_dz + e_grid) is Q*(x): Q*(x) - x is exact, because Q*(x) is
    zero or within a factor of 2 of x."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(_qstar_cases())
    def test_matches_qdq_views(self, case):
        x, cfg = case
        with np.errstate(all="ignore"):   # subnormal maxima, overflowing norms
            d = decompose_tensor(x, cfg)
            view = block_view(x, cfg)
            want = view.restore(qdq_views(view, cfg)[1])
        got = x + (d.e_dz + d.e_grid)
        # equal as floats: the same bits, up to the sign of a zero
        assert np.array_equal(got, want)


# --- the kernel against brute force ---------------------------------------------

_GRID = np.array([0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 6.0])


def _brute_round(b, scale):
    """copysign(g * scale, b) for the grid value g nearest |b| / scale, found
    by trying all eight; a tie has two nearest values and goes to the even
    index. As in perfbench's reference_stats, and +0.0 on all-zero rows."""
    u = np.abs(b) / scale[:, None]
    dist = np.abs(u[:, :, None] - _GRID)
    best = dist == dist.min(axis=2, keepdims=True)
    even = best & (np.arange(_GRID.size) % 2 == 0)
    idx = np.where(best.sum(axis=2) > 1, even.argmax(axis=2), best.argmax(axis=2))
    q = np.copysign(_GRID[idx] * scale[:, None], b)
    q[~b.any(axis=1)] = 0.0         # all-zero blocks are +0.0, -0.0 inputs too
    return q


def _brute_ceil_scale(s_star, m):
    """The coded scale: at M = 0 the power of two from math.frexp; else
    formats' codec, which test_formats checks against a scan of all codes."""
    if m:
        return ceil_scale_array(s_star, m)[0]
    return np.array([s if math.frexp(s)[0] == 0.5 else math.ldexp(1.0, math.frexp(s)[1])
                     for s in s_star.tolist()])


def _brute_split(x, cfg, x_hat=None):
    """(e_scale, e_dz, e_grid, e_total), the seven sums, the deadzone count
    and its zero outputs, straight from the definitions on one padded copy.
    A block whose s_star is 0 (all zero, or a maximum of at most 3 subnormal
    units) is rounded at scale 1."""
    B = cfg.block_size
    n = x.shape[-1] if x.ndim else 1
    rows = x.reshape(-1, n)
    pad = ((0, 0), (0, -n % B))
    b = np.pad(rows, pad).reshape(-1, B)
    valid = np.pad(np.ones(rows.shape, dtype=bool), pad).reshape(-1, B)
    m = np.abs(b).max(axis=1)
    s_star = np.where(m / 6.0 > 0, m / 6.0, 1.0)
    qstar = _brute_round(b, s_star)
    hat = (_brute_round(b, _brute_ceil_scale(s_star, cfg.scale_mantissa_bits))
           if x_hat is None else np.pad(x_hat.reshape(rows.shape), pad).reshape(-1, B))
    dead = (np.abs(b) < (m / 24.0)[:, None]) & valid
    resid = qstar - b
    blocked = (hat - qstar, np.where(dead, resid, 0.0), np.where(dead, 0.0, resid),
               hat - b)
    errors = [e.reshape(len(rows), -1)[:, :n].reshape(x.shape) for e in blocked]
    sums = {f: np.dot(errors[i].ravel(), errors[j].ravel())
            for f, (i, j) in zip(_SPLIT_SUMS, decompose._SUM_PAIRS)}
    return errors, sums, np.count_nonzero(dead), np.count_nonzero(dead & (hat == 0.0))


_SPLIT_SUMS = ("n2_scale", "n2_dz", "n2_grid", "n2_total", "ip_scale_grid",
               "ip_scale_dz", "ip_dz_grid")


@st.composite
def _kernel_cases(draw):
    """One-piece tensors: ragged tails, exact midpoint ties under a block
    maximum of 6, -0.0, all-zero blocks, subnormal and near-overflow scales;
    every M the kernel treats apart; with and without an x_hat."""
    n = draw(st.integers(1, 150))
    shape = draw(st.sampled_from([(n,), (draw(st.integers(1, 4)), n), ()]))
    elements = st.one_of(
        st.floats(-6.0, 6.0, allow_nan=False, allow_subnormal=False),
        st.sampled_from(_EDGE_U + [-u for u in _EDGE_U] + [0.0, -0.0]))
    x = draw(hnp.arrays(np.float64, shape, elements=elements))
    block_size = draw(st.integers(1, 40))
    rows = x.reshape(-1, x.shape[-1] if x.ndim else 1)
    if draw(st.booleans()):
        rows[:, ::block_size] = draw(st.sampled_from([6.0, -6.0]))
    if draw(st.booleans()):
        rows[:, :block_size] = draw(st.sampled_from([0.0, -0.0]))   # a zero block
    # 2^1000 gives 1e300-scale blocks; 2^-1070 makes every value subnormal
    x = x * 2.0 ** draw(st.sampled_from([0, -1000, 1000, -1070]))
    x_hat = None
    if draw(st.booleans()):
        x_hat = np.round(x * draw(st.sampled_from([1.0, 4.0, -2.0]))) / 4.0
    cfg = BlockQuantConfig(block_size=block_size,
                           scale_mantissa_bits=draw(st.sampled_from([0, 1, 3, 8])))
    return x, cfg, x_hat, draw(st.booleans())


def _same_sum(a, b):
    # the same bits, the sign of a zero included; or both nan, from inf - inf
    # in the products of 1e300-scale errors
    a, b = np.float64(a), np.float64(b)
    return a.view(np.uint64) == b.view(np.uint64) or (np.isnan(a) and np.isnan(b))


def _check_against_brute_force(x, cfg, x_hat, keep_errors):
    with np.errstate(over="ignore", invalid="ignore"):     # 1e300-scale norms
        d = decompose_tensor(x, cfg, keep_errors=keep_errors, x_hat=x_hat)
        errors, sums, dead, zeros = _brute_split(x, cfg, x_hat)
    if keep_errors:
        for field, want in zip(("e_scale", "e_dz", "e_grid", "e_total"), errors):
            got = getattr(d, field)
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), field
    for field, want in sums.items():
        assert _same_sum(getattr(d, field), want), field
    assert d.dz_fraction == dead / x.size
    assert d.dz_zero_fraction == zeros / x.size


class TestKernelAgainstBruteForce:
    """decompose_tensor, and qdq_views under it, against _brute_split: the
    error arrays bit for bit, the sums and deadzone counts exactly."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(_kernel_cases())
    def test_split(self, case):
        _check_against_brute_force(*case)

    # (block maximum, whether Q at M = 0 folds its scale 2^e into the grid
    # step): 1 and 3 subnormal units (s_star 0, scale 1), 7 units (s_star one
    # unit, e = -1074), a subnormal block, the two ends of _FOLD_EXPONENTS
    # (e = -1021 at 2e-307, e = 1021 at 1.2e308) and one past each
    _EXTREMES = [(5e-324, True), (1.5e-323, True), (3.5e-323, False), (1e-310, False),
                 (1e-307, False), (2e-307, True), (1e300, True), (1.2e308, True),
                 (1.5e308, False)]

    @pytest.mark.parametrize("top,folded", _EXTREMES)
    @pytest.mark.parametrize("m", [0, 1, 3, 8])
    def test_extreme_blocks(self, top, folded, m, monkeypatch):
        folds = []
        fold = quantize._mag_round_pow2
        monkeypatch.setattr(quantize, "_mag_round_pow2",
                            lambda *args: folds.append(1) or fold(*args))
        rng = np.random.default_rng(48)
        x = rng.uniform(-1.0, 1.0, size=(3, 70)) * top
        x[:, ::9] = top
        x[:, -1] = -top                 # the 6-element tail block too
        x[1, :32] = -0.0
        cfg = BlockQuantConfig(block_size=32, scale_mantissa_bits=m)
        for x_hat in (None, np.round(x / top * 4.0) * (top / 4.0)):
            for keep_errors in (True, False):
                _check_against_brute_force(x, cfg, x_hat, keep_errors)
        # Q is rounded only without x_hat, once per keep_errors
        assert len(folds) == (2 if folded and m == 0 else 0)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(_kernel_cases())
    def test_qdq_views(self, case):
        x, cfg, _, _ = case
        view = block_view(x, cfg)
        with np.errstate(over="ignore"):
            qdq, qstar, dead, _ = qdq_views(view, cfg)
            q_mag, qstar_mag, _, _ = qdq_views(view, cfg, signed=False)
        m = view.m_b
        s_star = np.where(m / 6.0 > 0, m / 6.0, 1.0)
        want_q = _brute_round(view.blocks,
                              _brute_ceil_scale(s_star, cfg.scale_mantissa_bits))
        want_qstar = _brute_round(view.blocks, s_star)
        for got, want in ((qdq, want_q), (qstar, want_qstar)):
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        for got, want in ((q_mag, want_q), (qstar_mag, want_qstar)):
            assert np.array_equal(got.view(np.uint64), np.abs(want).view(np.uint64))
        assert np.array_equal(dead, np.abs(view.blocks) < (m / 24.0)[:, None])


def _one_shot(x, cfg):
    """(e_scale, e_dz, e_grid, e_total) and the deadzone count from a single
    block_view/qdq_views pass over the whole tensor."""
    view = block_view(x, cfg)
    qdq, qstar, dead, _ = qdq_views(view, cfg)
    resid = qstar - view.blocks
    blocked = (qdq - qstar, np.where(dead, resid, 0.0),
               np.where(dead | ~view.valid, 0.0, resid), qdq - view.blocks)
    return [view.restore(e) for e in blocked], int(np.count_nonzero(dead & view.valid))


def _chunk_cases():
    rng = np.random.default_rng(44)
    with_zero_row = rng.standard_normal((12, 20))
    with_zero_row[3] = 0.0
    return [
        ("vector_ragged_tail", rng.standard_normal(1000), 32),
        ("rows_longer_than_piece", rng.laplace(size=(3, 250)), 24),
        ("tensor_3d", rng.standard_t(5.0, size=(4, 5, 24)), 8),
        ("rows_per_piece", rng.standard_normal((40, 10)), 4),
        ("zero_row", with_zero_row, 8),
        ("block_larger_than_piece", rng.standard_normal((2, 350)), 100),
    ]


class TestChunkedDecomposition:
    """decompose_tensor runs over pieces of about _CHUNK_ELEMS elements. With
    the constant at 64, these small tensors span many pieces; the result must
    be the one a single whole-tensor pass gives."""

    @pytest.fixture(autouse=True)
    def small_pieces(self, monkeypatch):
        monkeypatch.setattr(decompose, "_CHUNK_ELEMS", 64)
        calls = []

        def counted(x, cfg, work=None):
            calls.append(np.shape(x))
            return block_view(x, cfg, work)

        monkeypatch.setattr(decompose, "block_view", counted)
        self.pieces = calls

    @pytest.mark.parametrize("m", [0, 3])
    @pytest.mark.parametrize("name,x,block_size", _chunk_cases())
    def test_matches_one_shot(self, name, x, block_size, m):
        cfg = BlockQuantConfig(block_size=block_size, scale_mantissa_bits=m)
        d = decompose_tensor(x, cfg)
        assert len(self.pieces) > 1
        assert all(np.prod(p) <= max(64, block_size) for p in self.pieces)

        errors, dead = _one_shot(x, cfg)
        got = (d.e_scale, d.e_dz, d.e_grid, d.e_total)
        for g, want in zip(got, errors):
            assert g.shape == x.shape
            assert np.array_equal(g.view(np.uint64), want.view(np.uint64))

        e_s, e_d, e_g, e_t = (e.ravel() for e in errors)
        sums = {"n2_scale": (e_s, e_s), "n2_dz": (e_d, e_d), "n2_grid": (e_g, e_g),
                "n2_total": (e_t, e_t), "ip_scale_grid": (e_s, e_g)}
        for field, (a, b) in sums.items():
            assert getattr(d, field) == pytest.approx(np.dot(a, b), rel=1e-12), field
        assert d.ip_scale_dz == 0.0 and d.ip_dz_grid == 0.0
        assert d.dz_fraction == dead / x.size

    @pytest.mark.parametrize("name,x,block_size", _chunk_cases())
    def test_sums_only_path(self, name, x, block_size):
        cfg = BlockQuantConfig(block_size=block_size)
        full = decompose_tensor(x, cfg)
        sums = decompose_tensor(x, cfg, keep_errors=False)
        assert (sums.e_scale, sums.e_dz, sums.e_grid, sums.e_total) == (None,) * 4
        for field in ("n2_scale", "n2_dz", "n2_grid", "n2_total", "ip_scale_grid",
                      "ip_scale_dz", "ip_dz_grid", "cos_scale_grid", "dz_fraction"):
            assert getattr(sums, field) == getattr(full, field), field


def _one_shot_measured(x, x_hat, cfg):
    """(e_scale, e_dz, e_grid, e_total) of x_hat against x from a single
    block_view/qdq_views pass over the whole tensor."""
    view = block_view(x, cfg)
    _, qstar, dead, _ = qdq_views(view, cfg)
    hat = block_view(x_hat, cfg).blocks
    resid = qstar - view.blocks
    blocked = (hat - qstar, np.where(dead, resid, 0.0),
               np.where(dead | ~view.valid, 0.0, resid), hat - view.blocks)
    return [view.restore(e) for e in blocked]


_SUM_FIELDS = ("n2_scale", "n2_dz", "n2_grid", "n2_total", "ip_scale_grid",
               "ip_scale_dz", "ip_dz_grid", "cos_scale_grid", "dz_fraction")


class TestMeasuredQuantizer:
    """decompose_tensor(x, cfg, x_hat=...) splits another quantizer's output
    (here MBS) against the plain Q*(x), over the same pieces as the plain
    path. With the piece size at 64 these tensors span many pieces."""

    @pytest.fixture(autouse=True)
    def small_pieces(self, monkeypatch):
        monkeypatch.setattr(decompose, "_CHUNK_ELEMS", 64)
        self.pieces = []

        def counted(x, cfg, work=None):
            self.pieces.append(np.shape(x))
            return block_view(x, cfg, work)

        monkeypatch.setattr(decompose, "block_view", counted)

    @pytest.mark.parametrize("mode", ["exhaustive", "closed_form"])
    @pytest.mark.parametrize("m", [0, 3])
    @pytest.mark.parametrize("name,x,block_size", _chunk_cases())
    def test_matches_one_shot(self, name, x, block_size, m, mode):
        cfg = BlockQuantConfig(block_size=block_size, scale_mantissa_bits=m)
        x_hat, _ = mbs_qdq(x, MbsConfig(macro_block_size=2 * block_size), cfg, mode)
        kept = x_hat.copy()
        x_hat.flags.writeable = False          # any write into it raises
        d = decompose_tensor(x, cfg, x_hat=x_hat)
        assert len(self.pieces) > 1
        assert np.array_equal(x_hat.view(np.uint64), kept.view(np.uint64))

        errors = _one_shot_measured(x, x_hat, cfg)
        for g, want in zip((d.e_scale, d.e_dz, d.e_grid, d.e_total), errors):
            assert g.shape == x.shape
            assert np.array_equal(g.view(np.uint64), want.view(np.uint64))
        e_s, e_d, e_g, e_t = (e.ravel() for e in errors)
        sums = {"n2_scale": (e_s, e_s), "n2_dz": (e_d, e_d), "n2_grid": (e_g, e_g),
                "n2_total": (e_t, e_t), "ip_scale_grid": (e_s, e_g)}
        for field, (a, b) in sums.items():
            assert getattr(d, field) == pytest.approx(np.dot(a, b), rel=1e-12), field
        assert d.ip_scale_dz == 0.0 and d.ip_dz_grid == 0.0
        assert verify_identity(d) <= 1e-12

        sums_only = decompose_tensor(x, cfg, keep_errors=False, x_hat=x_hat)
        for field in _SUM_FIELDS:
            assert getattr(sums_only, field) == getattr(d, field), field

    @pytest.mark.parametrize("name,x,block_size", _chunk_cases())
    def test_q_as_x_hat_is_the_plain_split(self, name, x, block_size):
        cfg = BlockQuantConfig(block_size=block_size, scale_mantissa_bits=2)
        plain = decompose_tensor(x, cfg)
        measured = decompose_tensor(x, cfg, x_hat=qdq_tensor(x, cfg))
        for field in ("e_scale", "e_dz", "e_grid", "e_total"):
            a, b = getattr(plain, field), getattr(measured, field)
            assert np.array_equal(a.view(np.uint64), b.view(np.uint64)), field
        for field in _SUM_FIELDS:
            assert getattr(measured, field) == getattr(plain, field), field

    def test_x_hat_path_rounds_only_qstar(self, monkeypatch):
        # per piece: Q and Q* on the plain path, Q* alone when x_hat is given;
        # qdq_views rounds Q* by _mag_round and, at M = 0, Q by _mag_round_pow2
        calls = []

        def counting(name):
            real = getattr(quantize, name)

            def counted(*args):
                calls.append(name)
                return real(*args)
            return counted

        for name in ("_mag_round", "_mag_round_pow2"):
            monkeypatch.setattr(quantize, name, counting(name))
        x = np.random.default_rng(47).standard_normal((40, 24))
        cfg = BlockQuantConfig(block_size=8)
        x_hat = qdq_tensor(x, cfg)
        calls.clear()
        decompose_tensor(x, cfg)
        assert len(self.pieces) > 1
        assert calls == ["_mag_round", "_mag_round_pow2"] * len(self.pieces)
        for keep_errors in (True, False):
            calls.clear()
            self.pieces.clear()
            decompose_tensor(x, cfg, keep_errors=keep_errors, x_hat=x_hat)
            assert calls == ["_mag_round"] * len(self.pieces) and len(self.pieces) > 1

    def test_shape_mismatch(self):
        x = np.random.default_rng(46).standard_normal((6, 40))
        cfg = BlockQuantConfig(block_size=8)
        for bad in (x[:, :-1], x.T, x.ravel(), x[None]):
            with pytest.raises(ValueError, match="x_hat shape"):
                decompose_tensor(x, cfg, x_hat=bad)


@st.composite
def _mbs_cases(draw):
    lead = draw(hnp.array_shapes(min_dims=0, max_dims=2, min_side=1, max_side=4))
    shape = lead + (draw(st.integers(1, 300)),)
    elements = st.one_of(
        st.floats(-6.0, 6.0, allow_nan=False, allow_subnormal=False),
        st.sampled_from(_EDGE_U + [-u for u in _EDGE_U]))
    x = draw(hnp.arrays(np.float64, shape, elements=elements))
    block_size = draw(st.integers(1, 32))
    if draw(st.booleans()):
        x.reshape(-1, shape[-1])[:, ::block_size] = 6.0   # edge values exactly on ties
    if draw(st.booleans()):                               # heavy tails
        x = x * np.exp2(draw(hnp.arrays(np.int64, shape, elements=st.integers(-12, 12))))
    if draw(st.booleans()):                               # BF16 values
        x = (x.astype(np.float32).view(np.uint32) & np.uint32(0xFFFF0000)
             ).view(np.float32).astype(np.float64)
    quant = BlockQuantConfig(block_size=block_size,
                             scale_mantissa_bits=draw(st.integers(0, 8)))
    mbs = MbsConfig(macro_block_size=block_size * draw(st.integers(1, 8)))
    return x, quant, mbs, draw(st.sampled_from(["exhaustive", "closed_form"]))


class TestMbsSplitProperty:
    """Under MBS the split stays exact: both deadzone inner products are
    exactly 0.0 and the norms obey the identity. MBS runs Q on the prescaled
    block, whose deadzone holds the same elements, so Q still zeroes them."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(_mbs_cases())
    def test_deadzone_zeros_and_identity(self, case):
        x, quant, mbs, mode = case
        x_hat, _ = mbs_qdq(x, mbs, quant, mode)
        d = decompose_tensor(x, quant, keep_errors=False, x_hat=x_hat)
        assert orthogonality_check(d) == (0.0, 0.0)
        assert verify_identity(d) <= 1e-12


def _expansion_error(d):
    """|n2_total - full expansion| relative to the norms the expansion adds
    up. Its rounding scales with those norms, not with n2_total, which is far
    smaller when x_hat nearly equals x but Q*(x) does not: at x = [1, 0.75 +
    1e-15], B = 2, Q(x) is x to within 1e-15, n2_total is 1e-30 and
    verify_identity's residual, relative to n2_total, reads 1.0."""
    expanded = (d.n2_scale + d.n2_dz + d.n2_grid
                + 2.0 * (d.ip_scale_grid + d.ip_scale_dz))
    norms = d.n2_scale + d.n2_dz + d.n2_grid + d.n2_total
    return abs(d.n2_total - expanded) / norms if norms > 0 else 0.0


@st.composite
def _of_cases(draw):
    x, quant, mbs, mode = draw(_mbs_cases())
    alpha = draw(st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 1.0)))
    return x, quant, draw(st.sampled_from([None, mbs])), mode, alpha


class TestOfSplitProperty:
    """Outlier fallback writes values where Q* is zero, so <e_scale, e_dz> is
    no longer a structural zero. The full expansion still holds, <e_dz, e_grid>
    stays exactly 0.0, and OF can only take elements out of the deadzone. Its
    first pass, plain Q or MBS, keeps both deadzone zeros."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(_of_cases())
    def test_full_expansion_and_recovery(self, case):
        x, quant, mbs, mode, alpha = case
        res = of_qdq(x, OfConfig(alpha=alpha), quant, mbs, mode)
        d = decompose_tensor(x, quant, keep_errors=False, x_hat=res.x_hat)
        assert d.ip_dz_grid == 0.0
        assert _expansion_error(d) <= 1e-12
        assert d.dz_zero_fraction <= d.dz_fraction
        kept = [None, res.pass1] + ([res.x_hat] if alpha == 0.0 else [])
        for x_hat in kept:              # None: the plain path, which measures Q
            k = decompose_tensor(x, quant, keep_errors=False, x_hat=x_hat)
            assert k.dz_zero_fraction == k.dz_fraction
            assert k.ip_scale_dz == 0.0 and k.ip_dz_grid == 0.0
            assert _expansion_error(k) <= 1e-12


class TestOfSplit:
    def test_of_breaks_only_the_scale_dz_zero(self):
        # the residual pass writes where Q* is zero: <e_scale, e_dz> is
        # negative, so the one-cross-term expansion no longer closes
        x = np.random.default_rng(48).standard_t(5.0, size=(128, 256))
        quant = BlockQuantConfig()
        q = decompose_tensor(x, quant, keep_errors=False)
        res = of_qdq(x, OfConfig(alpha=0.5), quant)
        d = decompose_tensor(x, quant, keep_errors=False, x_hat=res.x_hat)
        assert d.ip_dz_grid == 0.0 and d.ip_scale_dz < 0.0
        assert verify_identity(d) <= 1e-12
        one_cross = d.n2_scale + d.n2_dz + d.n2_grid + 2.0 * d.ip_scale_grid
        assert abs(d.n2_total - one_cross) / d.n2_total > 1e-3
        assert d.n2_scale < q.n2_scale
        assert 0.0 < d.dz_zero_fraction < d.dz_fraction == q.dz_fraction
        assert q.dz_zero_fraction == q.dz_fraction
        assert d.n2_total / x.size == pytest.approx(((res.x_hat - x) ** 2).mean(),
                                                    rel=1e-13)


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


def test_tensor_stats_memory_bounded():
    # the working set is one cache-sized piece, not full-size error arrays
    x = np.random.default_rng(45).standard_normal((1024, 1000))
    peak = _peak_bytes(lambda: tensor_stats({"x": x}, BlockQuantConfig()))
    assert peak < 2 * x.nbytes
