import argparse
import csv
import gc
import io
import json
import os
import re
import subprocess
import sys
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import mxblock
import mxblock.cli as cli
from conftest import joined, read_arrays
from mxblock import __version__, decompose, quantize
from mxblock.analysis import TempFit
from mxblock.cli import main
from mxblock.corrections import AqnSchedule, MbsConfig, OfConfig, aqn_pieces, of_qdq
from mxblock.decompose import decompose_tensor, verify_identity
from mxblock.quantize import BlockQuantConfig, _below_threshold, block_view
from mxblock.tensorstore import (
    StoredTensor,
    SynthTensor,
    TensorSet,
    save_container,
    synth_tensors,
)

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
        t1, t2 = Path(p1).read_text(), Path(p2).read_text()
        assert t1 != t2
        assert norm(t1) == norm(t2)

    def test_out_is_atomic_and_parses(self, capsys, tmp_path):
        out_path = str(tmp_path / "r.json")
        code, _, _ = _run(capsys, ["gamma", "--synth", "gaussian:64x512",
                                   "--out", out_path])
        assert code == 0
        assert sorted(os.listdir(tmp_path)) == ["r.json"]
        report = json.loads(Path(out_path).read_text())
        assert 1.0 < report["results"]["mean_gamma"] < 2.0

    @pytest.mark.parametrize("source", ["synth", "container", "mbs"])
    def test_blas_threads_keep_results_bytes(self, tmp_path, source):
        # each sum is a fixed-order sum of sub-dots that OpenBLAS does not
        # split between threads, so the thread count moves no printed byte,
        # identity_residual included; each input spans several pieces, and
        # the mbs one several MBS steps too
        if source == "synth":
            argv = ["decompose", "--synth", "student_t:512x512", "--seed", "3"]
        elif source == "mbs":
            argv = ["mbs", "--synth", "student_t:512x512", "--seed", "3",
                    "--mbs-mode", "exhaustive"]
        else:
            rng = np.random.default_rng(1)
            ts = TensorSet()
            ts.add("w", rng.standard_t(5.0, size=(512, 512)), "BF16")
            # rows of three whole pieces and a tail
            ts.add("v", rng.standard_normal((2, 3 * quantize._CHUNK_ELEMS + 1003)), "BF16")
            path = str(tmp_path / "c.tensors")
            save_container(ts, path)
            argv = ["decompose", "--input", path]
        src = os.path.dirname(os.path.dirname(mxblock.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        reports = []
        for threads in ("1", "2"):
            run = subprocess.run(
                [sys.executable, "-m", "mxblock.cli", *argv],
                env={**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": threads},
                capture_output=True, text=True)
            assert run.returncode == 0, run.stderr
            reports.append(re.sub(r'"duration_seconds": [^\n]+', "D", run.stdout))
        assert '"results"' in reports[0]
        assert reports[0] == reports[1]

    def test_parser_built_once_per_process(self, capsys):
        # a parser's objects form reference cycles that only the cyclic GC
        # frees; after the first call, main builds no parser
        argv = ["cltsum", "--layers", "4", "--trials", "1000"]

        def parsers():
            return sum(isinstance(o, argparse.ArgumentParser) for o in gc.get_objects())

        code, first, _ = _run(capsys, argv)
        assert code == 0
        gc.disable()
        try:
            before = parsers()
            code, second, _ = _run(capsys, argv)
            after = parsers()
        finally:
            gc.enable()
        assert code == 0 and after == before
        assert json.loads(first)["results"] == json.loads(second)["results"]

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

    @pytest.mark.parametrize("sigma, entry", [("abc", "'abc'"), ("0.5,", "''"),
                                              ("0.5,x,1", "'x'")])
    def test_temp_unparsable_sigma_is_2(self, capsys, sigma, entry):
        code, out, err = _run(capsys, ["temp", "--sigma-eta", sigma])
        assert code == 2 and out == ""
        assert err.startswith("error: --sigma-eta") and entry in err, err

    def test_gemm_needs_2d(self, capsys):
        code, _, err = _run(capsys, ["gemm", "--synth", "gaussian:64"])
        assert code == 2 and "2-D" in err

    # bad numbers on the command line: each is exit 2 with a message and no
    # report, never a numpy error (exit 1) or an invariant violation (exit
    # 3). The two huge counts are past any memory, so np.empty fails at once.
    # The option is at fault, not a tensor, so no tensor is named
    @pytest.mark.parametrize("argv, message", [
        (["gemm", "--cov-var", "nan"], "isotropic variance must be finite and > 0"),
        (["gemm", "--cov-var", "inf"], "isotropic variance must be finite and > 0"),
        (["gemm", "--cov-var", "-1"], "isotropic variance must be finite and > 0"),
        (["gemm", "--samples", "0"], "samples must be >= 1"),
        (["cltsum", "--layers", "0"], "layers must be >= 1"),
        (["temp", "--draws", "5"], "draws must be >= 10000"),
        (["sweep", "--max-mantissa-bits", "9"], "scale_mantissa_bits must be in [0, 8]"),
        (["of", "--of-alpha", "nan"], "alpha must be in [0, 1]"),
        (["aqn", "--stages", "0"], "num_stages must be >= 1"),
        (["gemm", "--samples", "1000000000000000"],
         "cannot hold 1000000000000000 samples in memory: 8000000000000000 bytes"),
        (["cltsum", "--trials", "1000000000000000"],
         "cannot hold 1000000000000000 trials in memory: 8000000000000000 bytes"),
        (["mbs", "--macro-block", "48"], "macro_block_size must be a multiple of block_size"),
        (["of", "--with-mbs", "--macro-block", "48"],
         "macro_block_size must be a multiple of block_size"),
        (["gemm", "--with-mbs", "--macro-block", "48"],
         "macro_block_size must be a multiple of block_size"),
        (["aqn", "--sigma-start", "inf", "--sigma-end", "1"], "sigma_start must be finite, got inf"),
        (["aqn", "--synth", "gaussian:4x4", "--sigma-start", "inf", "--sigma-end", "1",
          "--noised-out", "noised.tensors"], "sigma_start must be finite, got inf"),
        (["aqn", "--sigma-grid", "nan"], "sigma_grid must be finite and >= 0, got nan"),
        (["aqn", "--sigma-grid", "inf"], "sigma_grid must be finite and >= 0, got inf"),
        *(([command, "--seed", "-1"], "--seed must be >= 0, got -1")
          for command in ("temp", "cltsum", "gemm", "aqn", "decompose")),
    ])
    def test_bad_numeric_input_is_2(self, capsys, tmp_path, monkeypatch, argv, message):
        monkeypatch.chdir(tmp_path)
        if argv[0] in ("gemm", "sweep", "of", "mbs", "decompose"):
            argv = [*argv, "--synth", "gaussian:8x64"]
        code, out, err = _run(capsys, argv)
        assert (code, out) == (2, ""), err
        assert err.startswith("error: ") and message in err, err
        assert "(tensor" not in err and os.listdir(tmp_path) == [], err

    def test_infinite_sigma_start_is_2_under_w_error(self):
        # the schedule's stages were nan, a RuntimeWarning that -W error
        # turned into a traceback and exit 1
        src = os.path.dirname(os.path.dirname(mxblock.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        run = subprocess.run([sys.executable, "-W", "error", "-m", "mxblock.cli", "aqn",
                              "--sigma-start", "inf", "--sigma-end", "1"],
                             env={**os.environ, "PYTHONPATH": path},
                             capture_output=True, text=True)
        assert (run.returncode, run.stdout) == (2, "")
        assert run.stderr == "error: sigma_start must be finite, got inf\n"

    def test_invariant_violation_is_3(self, capsys, monkeypatch):
        # tensor_stats checks each split itself: a residual planted past the
        # tolerance is exit 3, with no report, and names the tensor
        monkeypatch.setattr(decompose, "verify_identity", lambda d: 1.0)
        code, out, err = _run(capsys, ["decompose", "--synth", "gaussian:4x32"])
        assert code == 3 and out == ""
        assert "invariant violation: identity residual 1.000e+00 on gaussian_0000" in err

    def test_broken_mbs_split_is_3(self, capsys, monkeypatch):
        # x_hat = x: e_total is 0 while e_scale = -(e_dz + e_grid) is not,
        # and <e_scale, e_dz> is -||e_dz||^2, not the structural 0.0
        monkeypatch.setattr(cli, "mbs_qdq", lambda x, *a, **k: (x, None))
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

        def leaky(piece, *args, **kwargs):          # 8x128 is one piece
            x_hat, codes = real(piece, *args, **kwargs)
            view = block_view(piece, quant)
            i = np.flatnonzero(view.restore(_below_threshold(view.mag, view.m_b)))[0]
            x_hat.flat[i] = piece.flat[i]
            seen.update(x=piece.copy(), x_hat=x_hat.copy())
            return x_hat, codes

        monkeypatch.setattr(cli, "mbs_qdq", leaky)
        code, out, err = _run(capsys, ["mbs", "--synth", "gaussian:8x128"])
        assert code == 3 and out == ""
        assert "deadzone inner product nonzero" in err
        d = decompose_tensor(seen["x"], quant, keep_errors=False, x_hat=seen["x_hat"])
        assert verify_identity(d) <= 1e-12 and d.ip_scale_dz < 0.0

    @pytest.mark.parametrize("command", ["decompose", "sweep", "mbs"])
    def test_q_with_one_live_deadzone_entry_is_3(self, capsys, monkeypatch, command):
        # plain Q that leaves one ideal-deadzone element at half its coded
        # scale. The split takes Q's zero count to be its deadzone count, so
        # only <e_scale, e_dz>, which that element makes negative, catches it
        real = decompose._coded_qdq
        leaked = []

        def leaky(view, config, out, work=None):
            q, s_dec = real(view, config, out, work)
            dead = _below_threshold(view.mag, view.m_b) & (view.m_b > 0)[:, None]
            i = np.flatnonzero(dead)[0]
            q.flat[i] = 0.5 * s_dec[i // view.block_size]
            leaked.append(i)
            return q, s_dec

        monkeypatch.setattr(decompose, "_coded_qdq", leaky)
        code, out, err = _run(capsys, [command, "--synth", "gaussian:8x128"])
        assert leaked and code == 3 and out == ""
        assert "deadzone inner product nonzero on gaussian_0000" in err

    @pytest.mark.parametrize("argv", [["of"], ["of", "--with-mbs"]])
    def test_of_deadzone_rates_are_its_counts(self, argv):
        # on the inputs of the interpreter-flag runs, dz_rate_before is the
        # ideal deadzone's count, dz_rate_after the count of the elements
        # of it that OF leaves at 0.0, and dz_recovery_ratio their quotient,
        # bit for bit: both are counted per piece, and OF's passes are local
        # to a block (a macro under MBS), so the counts are the whole tensor's
        argv = [*argv, "--synth", "gaussian:64x256", "--count", "2", "--seed", "5"]
        args = cli._build_parser().parse_args(argv)
        records = args.func(args)["records"]
        quant = BlockQuantConfig()
        mbs = MbsConfig() if args.with_mbs else None
        tensors = synth_tensors(cli._parse_synth(args.synth, args.seed, args.count))
        assert [r["name"] for r in records] == sorted(tensors)
        for record in records:
            x = np.asarray(tensors[record["name"]])
            x_hat = of_qdq(x, OfConfig(alpha=args.of_alpha), quant, mbs).x_hat
            view = block_view(x, quant)
            dead = view.restore(_below_threshold(view.mag, view.m_b))
            before = np.count_nonzero(dead) / x.size
            after = np.count_nonzero(dead & (x_hat == 0.0)) / x.size
            assert 0.0 < after < before
            assert (record["dz_rate_before"], record["dz_rate_after"],
                    record["dz_recovery_ratio"]) == (before, after, after / before)

    @pytest.mark.parametrize("command", ["decompose", "mbs", "of", "sweep"])
    def test_inflated_total_norm_is_3(self, capsys, monkeypatch, command):
        piece_sums = decompose._piece_sums

        def inflated(*args):
            sums, dead, zeros = piece_sums(*args)
            sums = sums.copy()
            sums[:, 3] *= 1.5               # n2_total of every quantizer
            return sums, dead, zeros

        monkeypatch.setattr(decompose, "_piece_sums", inflated)
        code, out, err = _run(capsys, [command, "--synth", "gaussian:8x128"])
        assert code == 3 and out == ""
        assert "invariant violation: identity residual" in err

    @pytest.mark.parametrize("command", ["decompose", "sweep", "mbs", "of", "gemm", "aqn"])
    def test_overflowing_norms_give_no_report(self, capsys, tmp_path, command):
        # at |x| ~ 1e200 the block scales are past E8M0's range, and the
        # squared norms overflow: an input error, not a violated identity,
        # and no numpy warning on the way, that names the tensor. aqn
        # quantizes nothing, and names the tensor whose norms overflow
        ts = TensorSet()
        ts.add("huge", 1e200 * np.random.default_rng(9).standard_normal((4, 128)))
        path = str(tmp_path / "huge.tensors")
        save_container(ts, path)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = _run(capsys, [*_source_argv(command, tmp_path), "--input", path])
        assert code == 2 and out == ""
        if command == "aqn":
            assert re.search(r"squared norms overflow float64 on huge\b", err)
        else:
            assert "past E8M0's range" in err and "(tensor huge)" in err, err

    @pytest.mark.parametrize("command", ["decompose", "sweep", "mbs", "of", "gemm", "gamma"])
    def test_scale_range_refusal_names_the_tensor(self, capsys, tmp_path, command):
        # in a container of a normal tensor and one past E8M0's range, the
        # refusal names the bad one. gemm reads the first 2-D tensor, the
        # bad one, and gamma reads both (65 blocks beyond its minimum)
        rng = np.random.default_rng(10)
        ts = TensorSet()
        ts.add("a_ok", rng.standard_normal(65 * 1024))
        ts.add("w_huge", 1e160 * rng.standard_normal((64, 1024)))
        path = str(tmp_path / "mixed.tensors")
        save_container(ts, path)
        code, out, err = _run(capsys, [command, "--input", path])
        assert code == 2 and out == ""
        assert re.fullmatch(r"error: block scale past E8M0's range: .* \(tensor w_huge\)\n",
                            err), err

    def test_overflowing_gemm_traces_give_no_report(self, capsys):
        # the traces scale with the input variance: at 1e308 they pass the
        # largest float, an input error that names the weight
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = _run(capsys, ["gemm", "--synth", "gaussian:8x128",
                                           "--cov-var", "1e308", "--samples", "10"])
        assert code == 2 and out == ""
        assert re.search(r"squared norms overflow float64 on GEMM traces of \S+", err)

    def test_sweep_names_the_broken_tensor(self, capsys, monkeypatch):
        # n2_total inflated 1.5x from the second tensor's split on (one
        # piece per tensor, every M in one call)
        piece_sums = decompose._piece_sums
        calls = []

        def inflated(*args):
            sums, dead, zeros = piece_sums(*args)
            calls.append(1)
            if len(calls) > 1:
                sums = sums.copy()
                sums[:, 3] *= 1.5
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
    def test_non_finite_in_a_later_tensor_is_2(self, capsys, tmp_path, command,
                                               reference_container):
        # the first tensor is reported on before the second is read
        b = np.ones((4, 32))
        b[2, 5] = np.inf
        path = tmp_path / "inf.tensors"
        path.write_bytes(reference_container({"a": (np.ones((4, 32)), "BF16"),
                                              "b": (b, "BF16")}))
        code, out, err = _run(capsys, [command, "--input", str(path)])
        assert code == 2 and out == ""
        assert "non-finite values (tensor b)" in err

    def test_non_finite_in_a_later_piece_is_2(self, capsys, tmp_path, monkeypatch,
                                              reference_container):
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
        path = tmp_path / "inf.tensors"
        path.write_bytes(reference_container({"a": (np.ones((2, 8)), "F32"),
                                              "b": (b, "F32")}))
        code, out, err = _run(capsys, ["decompose", "--input", str(path)])
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
        assert row["t_hat_at_bound"] is False

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
        back = read_arrays(noised_path)
        assert list(back) == ["gaussian_0000"]
        assert back["gaussian_0000"].shape == (8, 32)

    def test_aqn_stage_out_of_range(self, capsys, tmp_path):
        code, _, err = _run(capsys, ["aqn", "--synth", "gaussian:4x32",
                                     "--stages", "3", "--stage", "5",
                                     "--noised-out",
                                     str(tmp_path / "x.tensors")])
        assert code == 2 and "stage out of range" in err

    @pytest.mark.parametrize("stage", ["3", "20", "-1"])
    def test_aqn_stage_out_of_range_without_output(self, capsys, stage):
        # the stage is checked whether or not a noised container is written
        code, out, err = _run(capsys, ["aqn", "--stages", "3", "--stage", stage])
        assert code == 2 and "stage out of range" in err and out == ""
        code, _, _ = _run(capsys, ["aqn", "--stages", "3", "--stage", "2"])
        assert code == 0

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


@pytest.mark.parametrize("extra", [[], ["--macro-block", "96"],
                                   ["--mbs-mode", "closed_form"]])
def test_mbs_reads_each_tensor_once(capsys, tmp_path, monkeypatch, extra):
    # MBS picks its codes and writes its x_hat on the piece the split reads,
    # so every stored element is read once
    rng = np.random.default_rng(66)
    ts = TensorSet()
    ts.add("rows", rng.standard_normal((48, 1000)), "F32")
    ts.add("long", rng.standard_normal(70000), "BF16")
    path = str(tmp_path / "in.tensors")
    save_container(ts, path)
    counts = {}
    real = StoredTensor.read

    def counted(self, start, count, out=None):
        counts[self.name] = counts.get(self.name, 0) + count
        return real(self, start, count, out)

    monkeypatch.setattr(StoredTensor, "read", counted)
    code, out, err = _run(capsys, ["mbs", "--input", path, *extra])
    assert code == 0, err
    assert counts == {"rows": 48000, "long": 70000}


@pytest.mark.parametrize("argv,large_extra", [
    (["decompose"], []),
    (["sweep", "--max-mantissa-bits", "1"], []),
    (["mbs"], []),
    (["of"], []),
    # gamma keeps one delta per block, its result: at 4x the block size the
    # large tensor has the small one's blocks, so the bound sees the tensor
    (["gamma"], ["--block-size", "128"]),
    (["aqn", "--noised-out", "{tmp}/noised.tensors"], []),
], ids=["decompose", "sweep", "mbs", "of", "gamma", "aqn"])
def test_synth_commands_hold_one_piece(capsys, tmp_path, argv, large_extra):
    # a synthetic tensor is drawn piece by piece as the command reads it, so
    # one 4x as large peaks no higher: one piece, not the tensor. The first
    # run of a command in a process allocates more, so it is not measured.
    argv = [a.format(tmp=tmp_path) for a in argv]
    small = [*argv, "--synth", "gaussian:256x1024"]
    large = [*argv, *large_extra, "--synth", "gaussian:1024x1024"]
    assert main(small) == 0
    peaks = {}
    for rows, run in ((256, small), (1024, large)):
        peaks[rows] = _peak_bytes(lambda: main(run))
        assert capsys.readouterr().out
    assert peaks[1024] <= 1.1 * peaks[256], peaks


def test_repeated_commands_keep_their_results(capsys, tmp_path):
    # a command's workspace hands one block of memory to its phases in turn
    # (each MBS step, each piece function, each split); a phase that read
    # what an earlier one left there would change a report between runs.
    # Ragged rows, tail macros, a one-row BF16 vector and a 5-element one
    rng = np.random.default_rng(67)
    ts = TensorSet()
    ts.add("rows", rng.standard_t(5.0, size=(70, 700)), "F32")
    ts.add("long", rng.standard_normal(70001), "BF16")
    ts.add("tiny", rng.standard_normal(5))
    path = str(tmp_path / "mixed.tensors")
    save_container(ts, path)
    commands = [["mbs"], ["mbs", "--scale-mantissa-bits", "3"],
                ["mbs", "--mbs-mode", "closed_form"], ["of", "--with-mbs"],
                ["sweep", "--max-mantissa-bits", "3"], ["decompose"]]
    runs = {}
    for _ in range(2):
        for argv in commands:
            code, out, err = _run(capsys, [*argv, "--input", path])
            assert code == 0, err
            results = out[out.index('"results"'):]      # the report after duration_seconds
            runs.setdefault(" ".join(argv), []).append(results)
    assert {name: len(set(texts)) for name, texts in runs.items()} == dict.fromkeys(runs, 1)


def test_gamma_honours_the_scale_width(capsys):
    code, out, _ = _run(capsys, ["gamma", "--synth", "gaussian:256x256"])
    m0 = json.loads(out)["results"]
    code3, out, _ = _run(capsys, ["gamma", "--synth", "gaussian:256x256",
                                  "--scale-mantissa-bits", "3"])
    m3 = json.loads(out)["results"]
    assert code == code3 == 0
    assert 1.0 < m3["mean_gamma"] < 1.125 < m0["mean_gamma"]
    assert sum(m3["histogram"]) == m3["n_blocks"] == m0["n_blocks"]


def test_synth_tensors_hold_nothing_once_read(capsys):
    # a tensor's draw, row maxima included, is dropped once its last piece
    # is read: four lognormal tensors (256 KiB of maxima each) cost what
    # one does
    argv = ["decompose", "--synth", "lognormal_max_blocks:32768x32"]
    assert main(argv) == 0              # the first run allocates more
    peaks = {count: _peak_bytes(lambda: main([*argv, "--count", str(count)]))
             for count in (1, 4)}
    assert capsys.readouterr().out
    assert peaks[4] <= 1.1 * peaks[1], peaks


def _count_synth(monkeypatch) -> tuple[dict, dict]:
    """Elements each SynthTensor was asked for (read) and drew (_draw)."""
    reads, draws = {}, {}
    real_read, real_draw = SynthTensor.read, SynthTensor._draw

    def read(self, start, count, out=None):
        reads[self.name] = reads.get(self.name, 0) + count
        return real_read(self, start, count, out)

    def draw(self, out):
        draws[self.name] = draws.get(self.name, 0) + out.size
        return real_draw(self, out)

    monkeypatch.setattr(SynthTensor, "read", read)
    monkeypatch.setattr(SynthTensor, "_draw", draw)
    return reads, draws


@pytest.mark.parametrize("extra", [[], ["--macro-block", "96"],
                                   ["--mbs-mode", "closed_form"]])
def test_mbs_draws_each_synth_element_once(capsys, monkeypatch, extra):
    # the split reads a synthetic tensor in order, piece by piece, so each
    # element is read and drawn once, as a stored one is read once
    reads, draws = _count_synth(monkeypatch)
    code, _, err = _run(capsys, ["mbs", "--synth", "student_t:48x1000", "--count", "2",
                                 *extra])
    assert code == 0, err
    assert reads == draws == {"student_t_0000": 48000, "student_t_0001": 48000}


def test_aqn_draws_each_synth_tensor_twice(capsys, tmp_path, monkeypatch):
    # its rms, then its noise: the second pass restarts the draw
    reads, draws = _count_synth(monkeypatch)
    code, _, err = _run(capsys, ["aqn", "--synth", "laplace:300x700", "--count", "2",
                                 "--noised-out", str(tmp_path / "noised.tensors")])
    assert code == 0, err
    assert reads == draws == {"laplace_0000": 420000, "laplace_0001": 420000}


def test_synth_shape_numpy_cannot_hold(capsys):
    # refused up front: drawn piece by piece, it would start an endless run
    started = time.perf_counter()
    code, out, err = _run(capsys, ["decompose", "--synth", "gaussian:4000000000x1000000000"])
    assert time.perf_counter() - started < 1.0
    assert code == 2 and out == ""
    assert err.startswith("error: unsupported shape (synth gaussian)"), err


def test_aqn_writes_one_tensor_at_a_time(capsys, tmp_path):
    # each noised tensor is written as soon as it is made and dropped before
    # the next: four tensors cost at most one tensor more than one does
    x = np.random.default_rng(64).standard_normal((256, 1024))
    peaks = {}
    for count in (1, 4):
        ts = TensorSet()
        for i in range(count):
            ts.add(f"w{i}", x, "F32")
        path = str(tmp_path / f"{count}.tensors")
        save_container(ts, path)
        argv = ["aqn", "--input", path, "--noised-out", str(tmp_path / f"{count}.noised")]
        peaks[count] = _peak_bytes(lambda: main(argv))
        assert capsys.readouterr().out
    assert peaks[4] <= peaks[1] + x.nbytes, peaks


def test_aqn_noised_out_is_flat_in_the_tensor_size(capsys, tmp_path):
    # each tensor is read, noised and written piece by piece: a tensor 4x as
    # large peaks no higher, and below one 1024x1024 float64 tensor (8 MiB)
    rng = np.random.default_rng(67)
    peaks = {}
    for rows in (1024, 4096):
        ts = TensorSet()
        ts.add("w", rng.standard_normal((rows, 1024)), "BF16")
        path = str(tmp_path / f"{rows}.tensors")
        save_container(ts, path)
        argv = ["aqn", "--input", path, "--noised-out", str(tmp_path / f"{rows}.noised")]
        peaks[rows] = _peak_bytes(lambda: main(argv))
        assert capsys.readouterr().out
    assert peaks[4096] <= peaks[1024] + (64 << 10), peaks
    assert peaks[4096] < 8 << 20, peaks


def test_aqn_noised_out_is_the_whole_array_encoding(capsys, tmp_path, reference_container):
    # the streamed output is the bytes of each noised tensor encoded whole,
    # for tensors of one piece and of several (rows of 1000, and one row
    # longer than a piece)
    rng = np.random.default_rng(65)
    ts = TensorSet()
    for name, shape in [("wq", (64, 96)), ("post_attention_layernorm", (96,)),
                        ("scalar", ()), ("rows", (300, 1000)),
                        ("long", (quantize._STREAM_ELEMS + 1003,))]:
        ts.add(name, rng.standard_normal(shape), "BF16")
    path = str(tmp_path / "in.tensors")
    save_container(ts, path)
    out = tmp_path / "noised.tensors"
    code, _, err = _run(capsys, ["aqn", "--input", path, "--noised-out", str(out),
                                 "--stage", "2", "--seed", "4"])
    assert code == 0, err
    schedule = AqnSchedule()
    sigma = float(schedule.stage_sigmas()[2])
    loaded = read_arrays(path)
    want = {name: (joined(aqn_pieces(x, sigma, 4, multiplier=schedule.multiplier_for(name),
                                     name=name)).reshape(x.shape), "F64")
            for name, x in loaded.items()}
    assert out.read_bytes() == reference_container(want)


def test_aqn_non_finite_in_last_tensor_leaves_no_file(capsys, tmp_path, reference_container):
    # the tensors before it are already written to the temp file when the
    # last one is read: exit 2, and neither the output nor a temp file stays
    bad = np.ones((4, 32))
    bad[3, 31] = np.nan
    path = tmp_path / "in.tensors"
    path.write_bytes(reference_container({"a": (np.ones((4, 32)), "BF16"),
                                          "z": (bad, "BF16")}))
    code, out, err = _run(capsys, ["aqn", "--input", str(path), "--noised-out",
                                   str(tmp_path / "noised.tensors")])
    assert code == 2 and out == ""
    assert "non-finite values (tensor z)" in err
    assert os.listdir(tmp_path) == ["in.tensors"]


# Writes a small container to sys.argv[1], runs decompose and mbs on it, and
# prints whether OpenSSL's hashlib backend was loaded on the way.
_HASHLIB_SCRIPT = """
import contextlib, io, sys
import numpy as np
import mxblock.cli as cli
from mxblock.tensorstore import TensorSet, save_container
ts = TensorSet()
ts.add("w", np.linspace(-1.0, 1.0, 4 * 256).reshape(4, 256), "BF16")
save_container(ts, sys.argv[1])
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main([command, "--input", sys.argv[1]]) for command in ("decompose", "mbs")]
print(codes, "_hashlib" in sys.modules)
"""


def test_decompose_and_mbs_do_not_load_openssl(tmp_path):
    # only aqn keys noise by sha256; decompose and mbs on --input never touch
    # numpy.random (which loads hashlib itself), so they never load libcrypto
    src = os.path.dirname(os.path.dirname(mxblock.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-c", _HASHLIB_SCRIPT, str(tmp_path / "w.tensors")],
                         env={**os.environ, "PYTHONPATH": path},
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == ["[0,", "0]", "False"]


# Runs cli.main on each argv of the JSON list in sys.argv[1] and prints, per
# run, [exit code, sha256 of the report's results, stderr]; an exception that
# escapes main counts as exit 1, as it does for the installed command.
_FLAG_SCRIPT = """
import contextlib, hashlib, io, json, sys
import mxblock.cli as cli
runs = []
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except Exception as exc:
            code = 1
            print(repr(exc), file=err)
    results = json.loads(out.getvalue())["results"] if code == 0 else None
    digest = hashlib.sha256(json.dumps(results, sort_keys=True).encode()).hexdigest()
    runs.append([code, digest, err.getvalue()])
print(json.dumps(runs))
"""

_FLAG_COMMANDS = {
    "decompose": ["decompose"],
    "sweep": ["sweep"],
    "mbs-M0": ["mbs"],
    "mbs-M3": ["mbs", "--scale-mantissa-bits", "3"],
    "of-with-mbs": ["of", "--with-mbs"],
    "gamma": ["gamma"],
    "gemm": ["gemm", "--samples", "1000"],
}
_INTERPRETER_FLAGS = {"plain": [], "O": ["-O"], "W-error": ["-W", "error"]}


@pytest.fixture(scope="module")
def flag_runs(tmp_path_factory):
    """{flag: {command: (synth run, 1e160 run)}}, each run as _FLAG_SCRIPT
    reports it: every command on two 64x256 Gaussians and on a container of
    one 4x256 Gaussian times 1e160, whose block scales are past E8M0's range
    (and whose squared norms would overflow float64). One interpreter per
    flag runs them all."""
    path = str(tmp_path_factory.mktemp("flags") / "huge.tensors")
    ts = TensorSet()
    ts.add("w", 1e160 * np.random.default_rng(0).standard_normal((4, 256)))
    save_container(ts, path)
    sources = (["--synth", "gaussian:64x256", "--count", "2", "--seed", "5"], ["--input", path])
    argvs = [[*argv, *source] for argv in _FLAG_COMMANDS.values() for source in sources]
    src = os.path.dirname(os.path.dirname(mxblock.__file__))
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    runs = {}
    for flag, flags in _INTERPRETER_FLAGS.items():
        run = subprocess.run([sys.executable, *flags, "-c", _FLAG_SCRIPT, json.dumps(argvs)],
                             env=env, capture_output=True, text=True)
        assert run.returncode == 0, run.stderr
        done = iter(json.loads(run.stdout))
        runs[flag] = {name: (next(done), next(done)) for name in _FLAG_COMMANDS}
    return runs


@pytest.mark.parametrize("command", list(_FLAG_COMMANDS))
def test_interpreter_flags_keep_results(flag_runs, command):
    # no interpreter flag changes a report: every result is the same bits
    # with -O (no assert can carry a check) and with -W error (no numpy
    # warning is raised on the way); the container past E8M0's range is an
    # input error, exit 2, that names the range and the tensor, under every
    # flag (gamma too: it refuses the range before it counts its blocks)
    synth = [flag_runs[flag][command][0] for flag in _INTERPRETER_FLAGS]
    huge = [flag_runs[flag][command][1] for flag in _INTERPRETER_FLAGS]
    for code, _, err in synth:
        assert code == 0, err
    assert len({digest for _, digest, _ in synth}) == 1
    for code, _, err in huge:
        assert code == 2, err
        assert "past E8M0's range" in err and "(tensor w)" in err, err
