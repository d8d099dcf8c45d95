import csv
import io
import json
import os
import re
import subprocess
import sys
import time
import tracemalloc

import numpy as np
import pytest

import mxblock
import mxblock.cli as cli
from mxblock import __version__, decompose
from mxblock.analysis import TempFit
from mxblock.cli import main
from mxblock.decompose import decompose_tensor, verify_identity
from mxblock.quantize import BlockQuantConfig, _deadzone, block_view
from mxblock.tensorstore import TensorSet, load_container, save_container

WORKED_X = np.array([0.03, 0.1, 0.3, 0.5, 0.9, 1.5, 2.0, 4.0])


@pytest.fixture
def worked_container(tmp_path):
    ts = TensorSet()
    ts.add("worked", WORKED_X)
    path = str(tmp_path / "worked.tensors")
    save_container(ts, path)
    return path


# An outlier-fallback output with one nan: the split's norms turn nan, which
# the identity check must reject. Run as a script, so that it can run under -O.
_BROKEN_OF_SCRIPT = """
import sys
import numpy as np
import mxblock.cli as cli
real = cli.of_qdq
def broken(*args, **kwargs):
    res = real(*args, **kwargs)
    res.x_hat.flat[0] = np.nan
    return res
cli.of_qdq = broken
sys.exit(cli.main(["of", "--synth", "gaussian:8x128"]))
"""


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _scalar(v):
    if v is None:
        return "null"
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, int):
        return str(v)
    if isinstance(v, float):
        return "%.12g" % v
    return v


def _flat(obj, prefix=""):
    # independent reimplementation of the report flattening
    out = []
    if isinstance(obj, dict):
        for k in sorted(obj, key=str):
            out += _flat(obj[k], f"{prefix}.{k}" if prefix else str(k))
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            out += _flat(v, f"{prefix}[{i}]")
    else:
        out.append((prefix, _scalar(obj)))
    return out


class TestEnvelope:
    def test_fields_and_golden_block(self, capsys, worked_container):
        code, out, _ = _run(capsys, ["decompose", "--input", worked_container,
                                     "--block-size", "8"])
        assert code == 0
        report = json.loads(out)
        assert set(report) == {"command", "version", "config", "seed",
                               "duration_seconds", "results"}
        assert report["command"] == "decompose"
        assert report["version"] == __version__
        assert report["seed"] == 0
        assert report["config"]["block_size"] == 8
        rec = report["results"]["records"][0]
        assert rec["name"] == "worked"
        assert rec["mse_total"] == pytest.approx(0.0609 / 8, abs=1e-9)
        assert rec["dz_fraction"] == 0.25
        assert rec["dz_inner_products"] == [0.0, 0.0]

    def test_byte_stable_modulo_duration(self, capsys, tmp_path):
        args = ["decompose", "--synth", "gaussian:16x64", "--seed", "3",
                "--out"]
        p1, p2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        assert main(args + [p1]) == 0
        assert main(args + [p2]) == 0
        capsys.readouterr()
        # the out path and the wall time are the only fields allowed to move
        norm = lambda t: re.sub(r'"(duration_seconds|out)": [^\n]+', "D", t)
        t1, t2 = open(p1).read(), open(p2).read()
        assert t1 != t2
        assert norm(t1) == norm(t2)

    def test_out_is_atomic_and_parses(self, capsys, tmp_path):
        out_path = str(tmp_path / "r.json")
        code, _, _ = _run(capsys, ["gamma", "--synth", "gaussian:64x512",
                                   "--out", out_path])
        assert code == 0
        assert sorted(os.listdir(tmp_path)) == ["r.json"]
        report = json.loads(open(out_path).read())
        assert 1.0 < report["results"]["mean_gamma"] < 2.0

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert __version__ in capsys.readouterr().out


class TestFormats:
    def test_csv_matches_json(self, capsys, worked_container):
        base = ["decompose", "--input", worked_container, "--block-size", "8"]
        code, json_out, _ = _run(capsys, base)
        assert code == 0
        code, csv_out, _ = _run(capsys, base + ["--format", "csv"])
        assert code == 0

        want = _flat(json.loads(json_out))
        rows = list(csv.reader(io.StringIO(csv_out)))
        assert rows[0] == ["key", "value"]
        got = [(k, v) for k, v in rows[1:]]
        assert [k for k, _ in got] == [k for k, _ in want]
        for (k, v_csv), (_, v_json) in zip(got, want):
            if k in ("duration_seconds", "config.format"):
                continue  # differ between the two runs by construction
            assert v_csv == v_json, k

    def test_json_keys_sorted(self, capsys, worked_container):
        _, out, _ = _run(capsys, ["decompose", "--input", worked_container,
                                  "--block-size", "8"])
        top = [m.group(1) for m in re.finditer(r'^  "([a-z_]+)":', out, re.M)]
        assert top == sorted(top)


def _source_argv(command, tmp_path):
    # aqn reads tensors only to write a noised container
    if command == "aqn":
        return [command, "--noised-out", str(tmp_path / "noised.tensors")]
    return [command]


# every command that reads tensors, all through one input path
_TENSOR_COMMANDS = ["decompose", "sweep", "mbs", "of", "gamma", "gemm", "aqn"]


class TestExitCodes:
    @pytest.mark.parametrize("command", _TENSOR_COMMANDS)
    def test_missing_source(self, capsys, tmp_path, command):
        code, out, err = _run(capsys, _source_argv(command, tmp_path))
        assert code == 2 and out == ""
        assert err == "error: need --input or --synth\n"
        assert not (tmp_path / "noised.tensors").exists()

    @pytest.mark.parametrize("command", _TENSOR_COMMANDS)
    def test_both_sources(self, capsys, tmp_path, worked_container, command):
        code, out, err = _run(capsys, _source_argv(command, tmp_path)
                              + ["--input", worked_container, "--synth", "gaussian:4x32"])
        assert code == 2 and out == ""
        assert err == "error: --input and --synth are mutually exclusive\n"
        assert not (tmp_path / "noised.tensors").exists()

    def test_bad_synth_specs(self, capsys):
        for spec in ("gaussian", "gaussian:4xq", "cauchy:4x32"):
            code, _, err = _run(capsys, ["decompose", "--synth", spec])
            assert code == 2, spec
            assert "error:" in err

    def test_missing_container(self, capsys, tmp_path):
        code, _, err = _run(capsys, ["decompose", "--input",
                                     str(tmp_path / "absent.tensors")])
        assert code == 2 and "cannot read" in err

    def test_temp_degenerate_vocab(self, capsys):
        code, _, err = _run(capsys, ["temp", "--vocab", "1",
                                     "--draws", "10000"])
        assert code == 2 and "error:" in err

    @pytest.mark.parametrize("sigma", ["nan", "inf", "1e200"])
    def test_temp_bad_sigma_is_2(self, capsys, sigma):
        started = time.perf_counter()
        code, out, err = _run(capsys, ["temp", "--sigma-eta", sigma])
        assert time.perf_counter() - started < 1.0
        assert code == 2 and out == ""
        assert "error: sigma_eta" in err

    def test_gemm_needs_2d(self, capsys):
        code, _, err = _run(capsys, ["gemm", "--synth", "gaussian:64"])
        assert code == 2 and "2-D" in err

    def test_invariant_violation_is_3(self, capsys, monkeypatch):
        class FakeReport:
            records = [{"name": "t", "identity_residual": 1.0,
                        "dz_inner_products": [0.0, 0.0]}]

            def to_json_dict(self):
                return {}

        monkeypatch.setattr(cli, "tensor_stats", lambda *a, **k: FakeReport())
        code, _, err = _run(capsys, ["decompose", "--synth", "gaussian:4x32"])
        assert code == 3 and "invariant violation" in err

    def test_broken_mbs_split_is_3(self, capsys, monkeypatch):
        # x_hat = x: e_total is 0 while e_scale = -(e_dz + e_grid) is not,
        # and <e_scale, e_dz> is -||e_dz||^2, not the structural 0.0
        monkeypatch.setattr(cli, "mbs_qdq",
                            lambda x, *a, **k: (np.asarray(x, dtype=np.float64), None))
        code, out, err = _run(capsys, ["mbs", "--synth", "gaussian:8x128"])
        assert code == 3 and out == ""
        assert "invariant violation" in err

    @pytest.mark.parametrize("flags", [[], ["-O"]])
    def test_broken_of_split_is_3(self, flags):
        src = os.path.dirname(os.path.dirname(mxblock.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        run = subprocess.run([sys.executable, *flags, "-c", _BROKEN_OF_SCRIPT],
                             env={**os.environ, "PYTHONPATH": path},
                             capture_output=True, text=True)
        assert run.returncode == 3 and run.stdout == ""
        assert "invariant violation: identity residual nan" in run.stderr

    def test_mbs_with_one_live_deadzone_entry_is_3(self, capsys, monkeypatch):
        # MBS output that keeps one ideal-deadzone element at its input value:
        # the full expansion still closes, so only the rule that Q and MBS
        # keep <e_scale, e_dz> at exactly 0.0 can catch it
        real = cli.mbs_qdq
        quant = BlockQuantConfig()
        seen = {}

        def leaky(x, *args, **kwargs):
            x_hat, codes = real(x, *args, **kwargs)
            view = block_view(x, quant)
            i = np.flatnonzero(view.restore(_deadzone(view)))[0]
            x_hat.flat[i] = x.flat[i]
            seen.update(x=x, x_hat=x_hat)
            return x_hat, codes

        monkeypatch.setattr(cli, "mbs_qdq", leaky)
        code, out, err = _run(capsys, ["mbs", "--synth", "gaussian:8x128"])
        assert code == 3 and out == ""
        assert "deadzone inner product nonzero" in err
        d = decompose_tensor(seen["x"], quant, keep_errors=False, x_hat=seen["x_hat"])
        assert verify_identity(d) <= 1e-12 and d.ip_scale_dz < 0.0

    @pytest.mark.parametrize("command", ["decompose", "mbs", "of", "sweep"])
    def test_inflated_total_norm_is_3(self, capsys, monkeypatch, command):
        piece_sums = decompose._piece_sums

        def inflated(*args):
            sums, dead, zeros = piece_sums(*args)
            sums = sums.copy()
            sums[3] *= 1.5                  # n2_total
            return sums, dead, zeros

        monkeypatch.setattr(decompose, "_piece_sums", inflated)
        code, out, err = _run(capsys, [command, "--synth", "gaussian:8x128"])
        assert code == 3 and out == ""
        assert "invariant violation: identity residual" in err

    @pytest.mark.parametrize("command", ["decompose", "mbs"])
    def test_overflowing_norms_give_no_report(self, capsys, tmp_path, command):
        # at |x| ~ 1e200 the squared norms overflow: the identity residual
        # is nan and the report would carry nan and inf
        ts = TensorSet()
        ts.add("huge", 1e200 * np.random.default_rng(9).standard_normal((4, 128)))
        path = str(tmp_path / "huge.tensors")
        save_container(ts, path)
        with np.errstate(all="ignore"):
            code, out, err = _run(capsys, [command, "--input", path])
        assert code in (2, 3) and out == ""
        assert err

    def test_sweep_names_the_broken_tensor(self, capsys, monkeypatch):
        # n2_total inflated 1.5x from the second tensor's split on
        piece_sums = decompose._piece_sums
        calls = []

        def inflated(*args):
            sums, dead, zeros = piece_sums(*args)
            calls.append(1)
            if len(calls) > 1:
                sums = sums.copy()
                sums[3] *= 1.5
            return sums, dead, zeros

        monkeypatch.setattr(decompose, "_piece_sums", inflated)
        code, out, err = _run(capsys, ["sweep", "--synth", "gaussian:8x128", "--count", "2",
                                       "--max-mantissa-bits", "0"])
        assert code == 3 and out == ""
        assert "identity residual" in err and "on gaussian_0001, M=0" in err

    def test_near_exact_output_is_fine(self, capsys, tmp_path):
        # Q(x) is x to within 1e-15 while Q*(x) is not: n2_total is 1e-30
        # against n2_scale 6.9e-3, and a residual taken relative to n2_total
        # read 1.0 and exited 3 on a correct split
        ts = TensorSet()
        ts.add("near", np.array([1.0, 0.75 + 1e-15]))
        path = str(tmp_path / "near.tensors")
        save_container(ts, path)
        code, out, err = _run(capsys, ["decompose", "--input", path, "--block-size", "2"])
        assert code == 0, err
        results = json.loads(out)["results"]
        rec = results["records"][0]
        assert 0.0 < rec["mse_total"] < 1e-30
        assert rec["identity_residual"] <= 1e-15
        # a total within the split's resolution is flagged, not divided by:
        # its shares read 1e27 and swamped the aggregates
        assert rec["zero_error"] is True
        assert [rec[k] for k in ("share_scale", "share_dz", "share_grid",
                                 "cross_share")] == [0.0] * 4
        assert results["aggregates"]["share_scale"] == {"mean": 0.0, "std": 0.0}
        assert sum(results["cos_histogram"]["counts"]) == 0

    def test_gemm_near_exact_weight_is_fine(self, capsys, tmp_path):
        # the GEMM traces take the decomposition's residual: relative to
        # var_total (1e-30 here) it read 1.0 and exited 3 on a correct split
        ts = TensorSet()
        ts.add("near", np.array([[1.0, 0.75 + 1e-15]]))
        path = str(tmp_path / "near.tensors")
        save_container(ts, path)
        code, out, err = _run(capsys, ["gemm", "--input", path, "--block-size", "2",
                                       "--samples", "10"])
        assert code == 0, err
        res = json.loads(out)["results"]
        assert 0.0 < res["var_total"] < 1e-29
        assert res["identity_residual"] <= 1e-15

    @pytest.mark.parametrize("command", ["mbs", "sweep"])
    def test_non_finite_in_a_later_tensor_is_2(self, capsys, tmp_path, command):
        # the first tensor is reported on before the second is read
        b = np.ones((4, 32))
        b[2, 5] = np.inf
        ts = TensorSet()
        ts.add("a", np.ones((4, 32)), "BF16")
        ts.add("b", b, "BF16")
        path = str(tmp_path / "inf.tensors")
        save_container(ts, path)
        code, out, err = _run(capsys, [command, "--input", path])
        assert code == 2 and out == ""
        assert "non-finite values (tensor b)" in err

    def test_non_finite_in_a_later_piece_is_2(self, capsys, tmp_path, monkeypatch):
        # with pieces of 64 elements, tensor b (8 rows of 40) is read one row
        # at a time; its last row holds an inf, found when that row is read
        monkeypatch.setattr(decompose, "_CHUNK_ELEMS", 64)
        seen = []

        def counted(x, cfg, work=None):
            seen.append(np.shape(x))
            return block_view(x, cfg, work)

        monkeypatch.setattr(decompose, "block_view", counted)
        b = np.ones((8, 40))
        b[-1, -1] = np.inf
        ts = TensorSet()
        ts.add("a", np.ones((2, 8)), "F32")
        ts.add("b", b, "F32")
        path = str(tmp_path / "inf.tensors")
        save_container(ts, path)
        code, out, err = _run(capsys, ["decompose", "--input", path])
        assert code == 2 and out == ""
        assert "non-finite values (tensor b)" in err
        assert seen == [(2, 8)] + [(1, 40)] * 7

    def test_zero_tensor_is_fine(self, capsys, tmp_path):
        ts = TensorSet()
        ts.add("z", np.zeros((2, 32)))
        path = str(tmp_path / "z.tensors")
        save_container(ts, path)
        code, out, _ = _run(capsys, ["decompose", "--input", path])
        assert code == 0
        rec = json.loads(out)["results"]["records"][0]
        assert rec["zero_error"] is True


class TestCommands:
    def test_sweep_floor_ratio(self, capsys):
        code, out, _ = _run(capsys, ["sweep", "--synth", "gaussian:32x256",
                                     "--max-mantissa-bits", "8"])
        assert code == 0
        pooled = json.loads(out)["results"]["pooled"]
        assert [row["M"] for row in pooled] == list(range(9))
        assert pooled[8]["total_over_floor"] <= 1.01
        assert pooled[0]["total_over_floor"] > pooled[8]["total_over_floor"]

    def test_mbs_scale_reduction(self, capsys):
        code, out, _ = _run(capsys, ["mbs", "--synth", "gaussian:64x512",
                                     "--macro-block", "32",
                                     "--mbs-mode", "closed_form"])
        assert code == 0
        rec = json.loads(out)["results"]["records"][0]
        assert rec["scale_reduction"] > 10.0
        assert rec["total_over_floor"] < 1.01
        assert rec["mse_after"] < rec["mse_before"]

    def test_of_recovery(self, capsys):
        code, out, _ = _run(capsys, ["of", "--synth", "gaussian:64x512",
                                     "--of-alpha", "0.5"])
        assert code == 0
        rec = json.loads(out)["results"]["records"][0]
        assert 0.0 < rec["dz_recovery_ratio"] < 1.0 / 3.0
        assert rec["mse_after"] < rec["mse_before"]

    def test_cltsum(self, capsys):
        code, out, _ = _run(capsys, ["cltsum", "--layers", "48",
                                     "--trials", "20000"])
        assert code == 0
        res = json.loads(out)["results"]
        assert res["theory_std"] == 2.0
        assert 1.9 < res["std_sum"] < 2.1

    def test_temp_explicit_sigma(self, capsys):
        code, out, _ = _run(capsys, ["temp", "--vocab", "12", "--draws",
                                     "10000", "--sigma-eta", "0.8"])
        assert code == 0
        res = json.loads(out)["results"]
        assert res["vocab"] == 12
        row = res["rows"][0]
        assert row["sigma_eta"] == 0.8
        assert row["t_hat"] > 1.0
        assert row["t_predicted"] > 1.0

    def test_temp_var_delta_ell_is_the_fits(self, capsys):
        # above vocab 1414 the fit samples 1e6 pairs; the report must carry
        # the variance the fit used, not one over all pairs
        code, out, _ = _run(capsys, ["temp", "--vocab", "1500", "--draws", "10000",
                                     "--sigma-eta", "0", "--seed", "1"])
        assert code == 0
        reported = json.loads(out)["results"]["var_delta_ell"]
        logits = np.random.default_rng(1).standard_normal(1500)
        fit = cli.effective_temperature_fit(logits, 0.0, draws=10000, seed=1)
        i, j = np.triu_indices(1500, k=1)
        all_pairs = float((logits[i] - logits[j]).var())
        assert _scalar(reported) == _scalar(fit.var_delta_ell) != _scalar(all_pairs)

    def test_temp_default_sweep_uses_the_fits_variance(self, capsys, monkeypatch):
        seen = []

        def fake_fit(logits, sigma_eta, draws, seed):
            seen.append(sigma_eta)
            return TempFit(t_hat=1.0, t_predicted=1.0, var_delta_ell=8.0,
                           sigma_eta=sigma_eta, n_pairs=1, draws=draws,
                           entropy_clean=1.0, entropy_noised=1.0, kl_min=0.0)

        monkeypatch.setattr(cli, "effective_temperature_fit", fake_fit)
        code, out, _ = _run(capsys, ["temp", "--vocab", "12", "--draws", "10000"])
        assert code == 0
        assert seen == [0.0, 1.0, np.sqrt(2.0), 2.0]    # sqrt(r * 8 / 2)
        res = json.loads(out)["results"]
        assert res["var_delta_ell"] == 8.0
        assert [row["sigma_eta"] for row in res["rows"]] == pytest.approx(seen)

    def test_gemm(self, capsys):
        code, out, _ = _run(capsys, ["gemm", "--synth", "gaussian:64x64",
                                     "--samples", "2000"])
        assert code == 0
        res = json.loads(out)["results"]
        assert res["weight"] == "gaussian_0000"
        assert res["identity_residual"] <= 1e-9
        assert res["cov_mode"] == "isotropic"
        assert abs(res["mc_estimate"] - res["var_total"]) / res["var_total"] < 0.1

    def test_aqn_schedule_and_noised_out(self, capsys, tmp_path):
        noised_path = str(tmp_path / "noised.tensors")
        code, out, _ = _run(capsys, ["aqn", "--synth", "gaussian:8x32",
                                     "--stages", "6", "--sigma-grid", "0.003",
                                     "--stage", "3", "--noised-out",
                                     noised_path])
        assert code == 0
        res = json.loads(out)["results"]
        assert len(res["stage_sigmas"]) == 6
        assert len(res["total_noise"]) == 6
        assert res["total_noise"][0] == pytest.approx(
            np.hypot(0.003, 0.01), rel=1e-9)
        back = load_container(noised_path).arrays()
        assert list(back) == ["gaussian_0000"]
        assert back["gaussian_0000"].shape == (8, 32)

    def test_aqn_stage_out_of_range(self, capsys, tmp_path):
        code, _, err = _run(capsys, ["aqn", "--synth", "gaussian:4x32",
                                     "--stages", "3", "--stage", "5",
                                     "--noised-out",
                                     str(tmp_path / "x.tensors")])
        assert code == 2 and "stage out of range" in err

    def test_count_synthesizes_several(self, capsys):
        code, out, _ = _run(capsys, ["decompose", "--synth", "laplace:4x64",
                                     "--count", "3"])
        assert code == 0
        records = json.loads(out)["results"]["records"]
        assert [r["name"] for r in records] == [
            "laplace_0000", "laplace_0001", "laplace_0002"]


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


@pytest.mark.parametrize("argv", [
    ["sweep", "--max-mantissa-bits", "1"],
    ["mbs", "--mbs-mode", "closed_form"],
    ["of"],
    ["gemm", "--samples", "100"],
])
def test_commands_hold_one_tensor(capsys, tmp_path, argv):
    # a command reads one tensor when it gets to it and drops it before the
    # next, so four tensors cost what one does
    x = np.random.default_rng(62).standard_normal((256, 1024))
    paths = {}
    for count in (1, 4):
        ts = TensorSet()
        for i in range(count):
            ts.add(f"w{i}", x, "F32")
        paths[count] = str(tmp_path / f"{count}.tensors")
        save_container(ts, paths[count])
    peaks = {}
    for count, path in paths.items():
        peaks[count] = _peak_bytes(lambda: main([*argv, "--input", path]))
        assert capsys.readouterr().out
    assert peaks[4] <= 1.1 * peaks[1], peaks
