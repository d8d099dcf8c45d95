import hashlib
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from conftest import read_arrays
from mxblock import decompose, quantize, tensorstore
from mxblock.analysis import gamma_stats
from mxblock.cli import main
from mxblock.decompose import tensor_stats
from mxblock.quantize import BlockQuantConfig
from mxblock.tensorstore import (
    ContainerReader,
    ContainerWriter,
    StoredTensor,
    SynthSpec,
    SynthTensor,
    TensorSet,
    TensorStoreError,
    atomic_write_bytes,
    save_container,
    synth_tensors,
)


def _container_bytes(header: dict, data: bytes) -> bytes:
    hjson = json.dumps(header, separators=(",", ":")).encode()
    return len(hjson).to_bytes(8, "little") + hjson + data


def _write(tmp_path, blob: bytes) -> str:
    p = tmp_path / "c.tensors"
    p.write_bytes(blob)
    return str(p)


class TestRoundTrip:
    def test_f64_bitwise(self, tmp_path):
        rng = np.random.default_rng(50)
        ts = TensorSet()
        ts.add("w", rng.standard_normal((7, 13)))
        ts.add("v", rng.laplace(size=40))
        path = str(tmp_path / "a.tensors")
        save_container(ts, path)
        back = read_arrays(path)
        assert len(back) == 2
        for name in ("w", "v"):
            assert np.array_equal(back[name], ts.arrays()[name])
            assert back[name].shape == ts.entries[name].shape

    def test_narrow_dtypes_representable_values(self, tmp_path):
        # values exactly representable in each narrow format survive the
        # narrow/widen cycle bit for bit
        cases = {
            "F32": np.array([0.5, -1.25, 3.0, 0.0, 65504.0]),
            "F16": np.array([0.5, -1.5, 2.0, 0.25, -6.0]),
            "BF16": np.array([1.0, -3.0, 0.0078125, 0.5, 128.0]),
        }
        for dtype, vals in cases.items():
            ts = TensorSet()
            ts.add("x", vals, dtype=dtype)
            path = str(tmp_path / f"{dtype}.tensors")
            save_container(ts, path)
            with ContainerReader(path) as reader:
                assert np.array_equal(np.asarray(reader.tensors["x"]), vals), dtype
                assert reader.tensors["x"].dtype == dtype

    @pytest.mark.parametrize("dtype", ["F64", "F32", "F16", "BF16"])
    def test_asarray_is_the_loaded_array(self, tmp_path, monkeypatch, dtype):
        # np.asarray(stored) is the whole tensor, bit for bit one read of all
        # of it; small pieces so np.asarray takes several reads
        monkeypatch.setattr(tensorstore, "_STREAM_ELEMS", 16)
        rng = np.random.default_rng(63)
        ts = TensorSet()
        for shape in [(), (37,), (3, 5, 7)]:
            ts.add(f"x{len(shape)}", rng.standard_normal(shape), dtype=dtype)
        path = str(tmp_path / "a.tensors")
        save_container(ts, path)
        with ContainerReader(path) as reader:
            for name, t in reader.tensors.items():
                whole = t.read(0, t.size).reshape(t.shape).copy()
                arr = np.asarray(t)
                assert arr.dtype == np.float64 and arr.shape == t.shape
                assert arr.tobytes() == whole.tobytes(), name
                assert np.asarray(t, dtype=np.float32).dtype == np.float32
                with pytest.raises(ValueError, match="without a copy"):
                    np.asarray(t, copy=False)

    def test_save_is_sorted_and_gapless(self, tmp_path):
        ts = TensorSet()
        ts.add("b", np.ones(2))
        ts.add("a", np.zeros(3))
        path = str(tmp_path / "s.tensors")
        save_container(ts, path)
        blob = Path(path).read_bytes()
        n = int.from_bytes(blob[:8], "little")
        header = json.loads(blob[8:8 + n])
        assert list(header) == ["a", "b"]
        assert header["a"]["data_offsets"] == [0, 24]
        assert header["b"]["data_offsets"] == [24, 40]

    def test_no_temp_residue(self, tmp_path):
        ts = TensorSet()
        ts.add("x", np.ones(4))
        save_container(ts, str(tmp_path / "r.tensors"))
        names = os.listdir(tmp_path)
        assert names == ["r.tensors"]

    def test_atomic_write_replaces(self, tmp_path):
        p = tmp_path / "f.bin"
        p.write_bytes(b"old")
        atomic_write_bytes(str(p), b"new")
        assert p.read_bytes() == b"new"

    def test_atomic_write_failure_leaves_no_temp(self, tmp_path):
        # the rename onto a directory fails: the temp file is removed
        (tmp_path / "d").mkdir()
        with pytest.raises(OSError):
            atomic_write_bytes(str(tmp_path / "d"), b"new")
        assert os.listdir(tmp_path) == ["d"]

    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)],
                             ids=["umask022", "umask077"])
    def test_atomic_write_mode_follows_umask(self, tmp_path, umask, mode):
        # the mode open(path, "wb") gives, not the temp file's 0o600
        old = os.umask(umask)
        try:
            atomic_write_bytes(str(tmp_path / "f.bin"), b"new")
            with open(tmp_path / "plain.bin", "wb") as f:
                f.write(b"new")
        finally:
            os.umask(old)
        assert os.stat(tmp_path / "f.bin").st_mode & 0o777 == mode
        assert os.stat(tmp_path / "plain.bin").st_mode & 0o777 == mode


def test_load_bf16_memory_bounded(tmp_path):
    # each tensor is widened piece by piece into its own preallocated array
    x = np.random.default_rng(53).standard_normal((1024, 1000))
    ts = TensorSet()
    ts.add("x", x, dtype="BF16")
    path = str(tmp_path / "m.tensors")
    save_container(ts, path)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        back = read_arrays(path)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert back["x"].nbytes == x.nbytes
    assert peak < 2 * x.nbytes


class TestTensorSet:
    def test_duplicate_name(self):
        ts = TensorSet()
        ts.add("x", np.ones(2))
        with pytest.raises(TensorStoreError, match="duplicate"):
            ts.add("x", np.zeros(2))

    def test_unknown_dtype(self):
        with pytest.raises(TensorStoreError, match="dtype"):
            TensorSet().add("x", np.ones(2), dtype="F13")

    def test_is_value_error(self):
        assert issubclass(TensorStoreError, ValueError)


class TestMalformed:
    def test_missing_file(self, tmp_path):
        with pytest.raises(TensorStoreError, match="cannot read"):
            read_arrays(str(tmp_path / "nope.tensors"))

    def test_short_file(self, tmp_path):
        with pytest.raises(TensorStoreError, match="shorter than 8"):
            read_arrays(_write(tmp_path, b"\x01\x02"))

    def test_header_length_overruns(self, tmp_path):
        blob = (100).to_bytes(8, "little") + b"{}"
        with pytest.raises(TensorStoreError, match="exceeds file size"):
            read_arrays(_write(tmp_path, blob))

    def test_header_not_utf8(self, tmp_path):
        blob = (4).to_bytes(8, "little") + b"\xff\xfe{}"
        with pytest.raises(TensorStoreError, match="malformed header"):
            read_arrays(_write(tmp_path, blob))

    def test_header_not_json(self, tmp_path):
        blob = (4).to_bytes(8, "little") + b"@@@@"
        with pytest.raises(TensorStoreError, match="malformed header"):
            read_arrays(_write(tmp_path, blob))

    def test_header_not_object(self, tmp_path):
        body = b"[1,2]"
        blob = len(body).to_bytes(8, "little") + body
        with pytest.raises(TensorStoreError, match="not a JSON object"):
            read_arrays(_write(tmp_path, blob))

    def test_entry_not_dict(self, tmp_path):
        blob = _container_bytes({"t": 7}, b"")
        with pytest.raises(TensorStoreError, match="malformed entry for t"):
            read_arrays(_write(tmp_path, blob))

    def test_entry_missing_keys(self, tmp_path):
        blob = _container_bytes({"t": {"dtype": "F64"}}, b"")
        with pytest.raises(TensorStoreError, match="malformed entry for t"):
            read_arrays(_write(tmp_path, blob))

    def test_unknown_dtype(self, tmp_path):
        meta = {"dtype": "F13", "shape": [1], "data_offsets": [0, 8]}
        blob = _container_bytes({"t": meta}, b"\x00" * 8)
        with pytest.raises(TensorStoreError, match="unknown dtype"):
            read_arrays(_write(tmp_path, blob))

    def test_negative_dimension(self, tmp_path):
        meta = {"dtype": "F64", "shape": [-1], "data_offsets": [0, 8]}
        blob = _container_bytes({"t": meta}, b"\x00" * 8)
        with pytest.raises(TensorStoreError, match="negative dimension"):
            read_arrays(_write(tmp_path, blob))

    def test_offsets_out_of_bounds(self, tmp_path):
        meta = {"dtype": "F64", "shape": [1], "data_offsets": [0, 16]}
        blob = _container_bytes({"t": meta}, b"\x00" * 8)
        with pytest.raises(TensorStoreError, match="out of bounds"):
            read_arrays(_write(tmp_path, blob))

    def test_size_mismatch(self, tmp_path):
        meta = {"dtype": "F64", "shape": [3], "data_offsets": [0, 8]}
        blob = _container_bytes({"t": meta}, b"\x00" * 8)
        with pytest.raises(TensorStoreError, match="size mismatch"):
            read_arrays(_write(tmp_path, blob))

    def test_shape_product_overflow(self, tmp_path):
        # 2^32 * 2^32 wraps to 0 in int64, which matched the empty span
        meta = {"dtype": "BF16", "shape": [2 ** 32, 2 ** 32], "data_offsets": [0, 0]}
        blob = _container_bytes({"t": meta}, b"")
        with pytest.raises(TensorStoreError, match="size mismatch"):
            read_arrays(_write(tmp_path, blob))

    def test_overlapping_offsets(self, tmp_path):
        data = np.array([1.0, 2.0]).astype("<f8").tobytes()
        header = {"a": {"dtype": "F64", "shape": [1], "data_offsets": [0, 8]},
                  "b": {"dtype": "F64", "shape": [1], "data_offsets": [4, 12]}}
        blob = _container_bytes(header, data)
        with pytest.raises(TensorStoreError, match="overlapping"):
            read_arrays(_write(tmp_path, blob))

    def test_non_finite_named(self, tmp_path):
        data = np.array([1.0, np.inf]).astype("<f8").tobytes()
        meta = {"dtype": "F64", "shape": [2], "data_offsets": [0, 16]}
        blob = _container_bytes({"bad": meta}, data)
        with pytest.raises(TensorStoreError, match=r"non-finite.*bad"):
            read_arrays(_write(tmp_path, blob))

    def test_metadata_key_ignored(self, tmp_path):
        data = np.array([4.0]).astype("<f8").tobytes()
        header = {"__metadata__": {"origin": "test"},
                  "t": {"dtype": "F64", "shape": [1], "data_offsets": [0, 8]}}
        ts = read_arrays(_write(tmp_path, _container_bytes(header, data)))
        assert list(ts) == ["t"]
        assert ts["t"][0] == 4.0


class TestHostileHeaderTypes:
    """Field types JSON allows but the format does not: each is a named
    TensorStoreError, never a stray TypeError or a silent reinterpretation."""

    @pytest.mark.parametrize("override", [
        {"dtype": ["F64"]},                             # unhashable: was a TypeError
        {"dtype": {"F64": 1}},
        {"dtype": 64},
        {"shape": "12"},                                # was loaded as shape (1, 2)
        {"shape": [2.7]},                               # was (2,)
        {"shape": [True, 2]},                           # was (1, 2)
        {"shape": 2},
        {"shape": [[2]]},
        {"shape": [1], "data_offsets": "08"},           # was offsets (0, 8)
        {"data_offsets": [0.0, 16.0]},
        {"data_offsets": [False, 16]},
        {"data_offsets": [0, 16, 16]},
        {"data_offsets": None},
    ])
    def test_rejected(self, tmp_path, override):
        # without the override the entry is valid: two F64 values
        meta = {"dtype": "F64", "shape": [2], "data_offsets": [0, 16], **override}
        blob = _container_bytes({"t": meta}, np.array([1.0, 2.0]).astype("<f8").tobytes())
        with pytest.raises(TensorStoreError):
            read_arrays(_write(tmp_path, blob))

    def test_zero_size_shape_numpy_cannot_hold(self, tmp_path):
        meta = {"dtype": "F64", "shape": [2 ** 70, 0], "data_offsets": [0, 0]}
        with pytest.raises(TensorStoreError, match="unsupported shape"):
            read_arrays(_write(tmp_path, _container_bytes({"t": meta}, b"")))

    def test_deeply_nested_header(self, tmp_path):
        hjson = b"[" * 100_000 + b"]" * 100_000
        blob = len(hjson).to_bytes(8, "little") + hjson
        with pytest.raises(TensorStoreError, match="malformed header"):
            read_arrays(_write(tmp_path, blob))


_VALID_HEADER = {
    "a": {"dtype": "F32", "shape": [2, 3], "data_offsets": [0, 24]},
    "b": {"dtype": "BF16", "shape": [4], "data_offsets": [24, 32]},
}
# finite under every dtype reading: with every byte 0x3f, an element of any
# width is a normal number (4.8e-4 as F64, 0.75 as F32 or BF16, 1.8 as F16)
_VALID_DATA = b"\x3f" * 32

_json_scalar = st.one_of(
    st.none(), st.booleans(), st.integers(-4, 40), st.integers(-2 ** 70, 2 ** 70),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from(["F64", "F32", "F16", "BF16", "F13", "12", "08", ""]))
_json_value = st.recursive(
    _json_scalar,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner,
                                                                  max_size=2),
    max_leaves=6)
_field_value = st.one_of(
    _json_value,
    st.lists(st.integers(0, 40), max_size=4),          # plausible shapes and offsets
    st.lists(st.sampled_from([0, 1, 2, 3, 4, 6, 8, 16, 24, 32, 2 ** 64]), max_size=3))


@st.composite
def _mutated_headers(draw):
    header = json.loads(json.dumps(_VALID_HEADER))
    for _ in range(draw(st.integers(1, 3))):
        entry = header[draw(st.sampled_from(["a", "b"]))]
        key = draw(st.sampled_from(["dtype", "shape", "data_offsets", "extra"]))
        if draw(st.integers(0, 5)) == 0:
            entry.pop(key, None)
        else:
            entry[key] = draw(_field_value)
    if draw(st.booleans()):
        header[draw(st.sampled_from(["a", "c", "__metadata__"]))] = draw(_json_value)
    return header


@settings(max_examples=400, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_mutated_headers())
def test_mutated_header_loads_or_names_its_error(tmp_path, header):
    path = _write(tmp_path, _container_bytes(header, _VALID_DATA))
    try:
        with ContainerReader(path) as reader:
            ts = {name: (t, np.asarray(t)) for name, t in reader.tensors.items()}
    except TensorStoreError:
        return
    declared = {k: v for k, v in header.items() if k != "__metadata__"}
    assert sorted(ts) == sorted(declared)
    for name, meta in declared.items():
        entry, data = ts[name]
        assert entry.dtype == meta["dtype"]
        assert entry.shape == tuple(meta["shape"]) == data.shape
        assert data.dtype == np.float64 and np.isfinite(data).all()


class TestReader:
    def test_header_checked_before_any_data(self, tmp_path):
        # the first tensor holds an inf, the second overlaps it: the header
        # error comes first, and opening reads no tensor data
        data = np.array([np.inf, 2.0]).astype("<f8").tobytes()
        header = {"a": {"dtype": "F64", "shape": [1], "data_offsets": [0, 8]},
                  "b": {"dtype": "F64", "shape": [1], "data_offsets": [4, 12]}}
        with pytest.raises(TensorStoreError, match="overlapping"):
            ContainerReader(_write(tmp_path, _container_bytes(header, data + b"\0" * 4)))

    def test_tensors_and_pieces(self, tmp_path):
        x = np.random.default_rng(54).standard_normal((3, 5, 7))
        ts = TensorSet()
        ts.add("x", x, dtype="F32")
        path = str(tmp_path / "p.tensors")
        save_container(ts, path)
        with ContainerReader(path) as reader:
            t = reader.tensors["x"]
            assert isinstance(t, StoredTensor)
            assert (t.dtype, t.shape, t.size, t.ndim) == ("F32", (3, 5, 7), 105, 3)
            want = x.astype(np.float32).astype(np.float64).ravel()
            assert np.array_equal(t.read(17, 40), want[17:57])
            out = np.empty(5)
            assert t.read(100, 5, out) is out and np.array_equal(out, want[100:])

    def test_file_truncated_after_open(self, tmp_path):
        ts = TensorSet()
        ts.add("x", np.ones(8192))
        path = str(tmp_path / "t.tensors")
        save_container(ts, path)
        with ContainerReader(path) as reader:
            os.truncate(path, os.path.getsize(path) - 8)
            assert np.array_equal(reader.tensors["x"].read(0, 8191), np.ones(8191))
            with pytest.raises(TensorStoreError, match="short read.*tensor x"):
                reader.tensors["x"].read(8000, 192)

    def test_non_finite_found_in_its_piece(self, tmp_path, reference_container):
        x = np.ones(100)
        x[90] = np.nan
        path = _write(tmp_path, reference_container({"bad": (x, "F16")}))
        with ContainerReader(path) as reader:
            assert np.array_equal(reader.tensors["bad"].read(0, 90), np.ones(90))
            with pytest.raises(TensorStoreError, match=r"non-finite.*bad"):
                reader.tensors["bad"].read(80, 20)


# the stored words of non-finite values: +inf, -inf, a quiet NaN, a NaN
# with a payload (negative) and a signaling NaN, in each dtype's own bits
_NON_FINITE_WORDS = {
    "BF16": ("<u2", [0x7F80, 0xFF80, 0x7FC0, 0xFFD5, 0x7F81]),
    "F16": ("<u2", [0x7C00, 0xFC00, 0x7E00, 0xFE2A, 0x7C01]),
    "F32": ("<u4", [0x7F800000, 0xFF800000, 0x7FC00000, 0xFFC0ABCD, 0x7F800001]),
}


class TestReaderFiniteness:
    """The reader tests finiteness on the stored words' exponent bits,
    before it widens them."""

    @pytest.mark.parametrize("dtype", list(_NON_FINITE_WORDS))
    def test_every_non_finite_word_is_2(self, capsys, tmp_path, dtype):
        # each word at the first, middle and last element of the second of
        # two pieces: the first piece is read and split before it
        words, bad = _NON_FINITE_WORDS[dtype]
        rows, n = 2 * decompose._CHUNK_ELEMS // 512, 512
        one = {"<u2": {"BF16": 0x3F80, "F16": 0x3C00}, "<u4": {"F32": 0x3F800000}}[words][dtype]
        meta = {"dtype": dtype, "shape": [rows, n], "data_offsets": [0, rows * n * int(words[-1])]}
        half = rows * n // 2
        for word in bad:
            for at in (half, half + half // 2, rows * n - 1):
                data = np.full(rows * n, one, dtype=words)
                data[at] = word
                path = _write(tmp_path, _container_bytes({"t": meta}, data.tobytes()))
                code = main(["decompose", "--input", path])
                captured = capsys.readouterr()
                assert code == 2 and captured.out == "", (hex(word), at)
                assert "non-finite values (tensor t)" in captured.err, (hex(word), at)

    @pytest.mark.parametrize("dtype", list(_NON_FINITE_WORDS))
    def test_extremes_read_back_exactly(self, tmp_path, dtype):
        # each dtype's largest finite value and smallest subnormal, both signs
        words, _ = _NON_FINITE_WORDS[dtype]
        stored, want = {
            "BF16": ([0x7F7F, 0x0001], [float.fromhex("0x1.fep+127"), 2.0 ** -133]),
            "F16": ([0x7BFF, 0x0001], [65504.0, 2.0 ** -24]),
            "F32": ([0x7F7FFFFF, 0x00000001], [float.fromhex("0x1.fffffep+127"), 2.0 ** -149]),
        }[dtype]
        sign = 1 << (8 * int(words[-1]) - 1)
        data = np.array(stored + [w | sign for w in stored], dtype=words)
        meta = {"dtype": dtype, "shape": [4], "data_offsets": [0, data.nbytes]}
        path = _write(tmp_path, _container_bytes({"t": meta}, data.tobytes()))
        with ContainerReader(path) as reader:
            got = reader.tensors["t"].read(0, 4)
            assert got.tolist() == want + [-v for v in want]
            assert np.signbit(got).tolist() == [False, False, True, True]


class TestWriter:
    @pytest.mark.parametrize("dtype, value", [
        ("F16", 1e6),
        ("F32", 1e39),
        ("BF16", 1e39),
        ("F64", np.inf),
        ("F32", -np.inf),
        ("BF16", np.nan),
        # FLT_MAX is finite as a float32; its BF16 rounding carries into inf
        ("BF16", float(np.finfo(np.float32).max)),
        # the BF16 tie above the largest BF16 rounds to the even inf
        ("BF16", -float.fromhex("0x1.ffp+127")),
    ], ids=["f16-1e6", "f32-1e39", "bf16-1e39", "f64-inf", "f32-minus-inf", "bf16-nan",
            "bf16-flt-max", "bf16-tie-to-inf"])
    def test_refuses_what_the_reader_refuses(self, tmp_path, dtype, value):
        # a named error, not a numpy overflow warning (an error under the
        # test suite's filters), and no file and no temp file left behind
        bad = np.ones(40)
        bad[33] = value
        ts = TensorSet()
        ts.add("a", np.ones(8), dtype)
        ts.add("bad", bad, dtype)
        with pytest.raises(TensorStoreError, match=rf"non-finite values as {dtype} \(tensor bad\)"):
            save_container(ts, str(tmp_path / "o.tensors"))
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("dtype", ["F16", "F32", "BF16"])
    def test_refuses_a_signaling_nan(self, tmp_path, dtype):
        # float64 bits 0x7FF0000000000001: narrowing it to float32 raises
        # numpy's invalid-cast warning, which must not escape as the error
        snan = np.array([0x7FF0000000000001], np.uint64).view(np.float64)
        ts = TensorSet()
        ts.add("a", snan, dtype)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(TensorStoreError, match=rf"non-finite values as {dtype} \(tensor a\)"):
                save_container(ts, str(tmp_path / "o.tensors"))
        assert os.listdir(tmp_path) == []

    def test_largest_finite_values_are_written(self, tmp_path):
        # just below each limit the value narrows to the dtype's largest
        # finite number
        below_tie = float(np.nextafter(np.float32(float.fromhex("0x1.ffp+127")), np.float32(0)))
        cases = {"F16": (65519.0, 65504.0), "F32": (float(np.finfo(np.float32).max),) * 2,
                 "BF16": (below_tie, float.fromhex("0x1.fep+127"))}
        ts = TensorSet()
        for dtype, (value, _) in cases.items():
            ts.add(dtype, np.array([value, -value]), dtype)
        path = str(tmp_path / "m.tensors")
        save_container(ts, path)
        back = read_arrays(path)
        for dtype, (_, want) in cases.items():
            assert back[dtype].tolist() == [want, -want], dtype

    def test_misuse_is_named_and_leaves_nothing(self, tmp_path):
        path = str(tmp_path / "o.tensors")
        entries = [("b", "F32", (2,)), ("a", "F64", (3,))]
        with pytest.raises(TensorStoreError, match="duplicate"):
            ContainerWriter(path, entries + [("a", "F16", (1,))])
        with pytest.raises(TensorStoreError, match="reserved"):
            ContainerWriter(path, [("__metadata__", "F64", (1,))])
        with pytest.raises(TensorStoreError, match="unknown dtype"):
            ContainerWriter(path, [("a", "F8", (1,))])
        with pytest.raises(TensorStoreError, match="out of header order"):
            with ContainerWriter(path, entries) as out:
                assert out.names == ["a", "b"]
                out.write("b", np.ones(2))
        with pytest.raises(TensorStoreError, match=r"shape mismatch \(tensor a\)"):
            with ContainerWriter(path, entries) as out:
                out.write("a", np.ones(4))
        with pytest.raises(TensorStoreError, match="tensor b declared but not written"):
            with ContainerWriter(path, entries) as out:
                out.write("a", np.ones(3))
        with pytest.raises(TensorStoreError, match=r"more than the declared 3 elements \(tensor a\)"):
            with ContainerWriter(path, entries) as out:
                out.write_pieces("a", [np.ones(2), np.ones(2)])
        with pytest.raises(TensorStoreError, match=r"2 of the declared 3 elements \(tensor a\)"):
            with ContainerWriter(path, entries) as out:
                out.write_pieces("a", [np.ones((1, 2))])
        with pytest.raises(TensorStoreError, match="out of header order"):
            with ContainerWriter(path, entries) as out:
                out.write_pieces("b", [np.ones(2)])
        with pytest.raises(KeyboardInterrupt):
            with ContainerWriter(path, entries) as out:
                out.write("a", np.ones(3))
                raise KeyboardInterrupt
        assert os.listdir(tmp_path) == []


    @pytest.mark.parametrize("dtype", ["F64", "F32", "F16", "BF16"])
    def test_pieces_are_the_bytes_of_the_whole(self, tmp_path, monkeypatch, dtype):
        # consecutive pieces of any shapes and lengths, across the writer's
        # own 16-element pieces, write the bytes of the whole tensor
        monkeypatch.setattr(tensorstore, "_STREAM_ELEMS", 16)
        x = np.random.default_rng(56).standard_normal((3, 50))
        whole, pieces = tmp_path / "whole.tensors", tmp_path / "pieces.tensors"
        with ContainerWriter(str(whole), [("x", dtype, x.shape)]) as out:
            out.write("x", x)
        flat = x.ravel()
        with ContainerWriter(str(pieces), [("x", dtype, x.shape)]) as out:
            out.write_pieces("x", [flat[:1], flat[1:8].reshape(7, 1), flat[8:8],
                                   flat[8:40].reshape(4, 8), flat[40:]])
        assert pieces.read_bytes() == whole.read_bytes()


def _f32_bits(bits: int) -> float:
    return float(np.array(bits, np.uint32).view(np.float32))


# float32 values whose low half is exactly 0x8000, a BF16 tie: with an odd or
# an even high half, so the rounding goes up or stays
_bf16_ties = st.integers(0, 0xFFFF).map(lambda hi: _f32_bits(hi << 16 | 0x8000))
# float64 values that float32 rounding puts on a BF16 tie: within half a
# float32 ulp of one, off the tie itself (a direct rounding would not tie)
_double_rounded = st.tuples(
    st.integers(0, 0xFFFF), st.sampled_from([-0.49, -0.25, -2.0 ** -20, 2.0 ** -20, 0.25, 0.49]),
).map(lambda p: _f32_bits(p[0] << 16 | 0x8000)
      + p[1] * float(np.spacing(abs(np.float32(_f32_bits(p[0] << 16 | 0x8000))))))
_edge_values = st.sampled_from([
    0.0, -0.0, 5e-324, -5e-324, 2.0 ** -149, -2.0 ** -149, 2.0 ** -126, 2.0 ** -24,
    -2.0 ** -25, 65504.0, 65519.0, 65520.0, float(np.finfo(np.float32).max),
    float.fromhex("0x1.ffp+127"), float.fromhex("0x1.fefffep+127"),
    float.fromhex("0x1.fep+127"), 1e39, 1e300,
    np.inf, -np.inf, np.nan])
_f32_subnormals = st.integers(1, 0x7FFFFF).map(_f32_bits) | st.integers(1, 0x7FFFFF).map(
    lambda b: -_f32_bits(b))
_values = st.one_of(_bf16_ties, _double_rounded, _edge_values, _f32_subnormals,
                    st.floats(-70000.0, 70000.0), st.floats(width=64))
_shapes = st.sampled_from([(), (1,), (15,), (16,), (17,), (3, 11), (2, 40), (0,), (2, 0, 3)])


@st.composite
def _tensor_sets(draw):
    tensors = {}
    for name in draw(st.sets(st.sampled_from(["a", "b", "c"]), min_size=1)):
        shape = draw(_shapes)
        values = draw(st.lists(_values, min_size=math.prod(shape), max_size=math.prod(shape)))
        dtype = draw(st.sampled_from(["F64", "F32", "F16", "BF16"]))
        tensors[name] = (np.array(values, dtype=np.float64).reshape(shape), dtype)
    return tensors


@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_tensor_sets())
def test_streamed_writer_bytes_equal_whole_array_encoder(tmp_path, monkeypatch,
                                                         reference_container, tensors):
    # pieces of 16 elements, so tensors cross pieces; where the reader
    # accepts the reference encoder's file, the writer's file is the same
    # bytes, and where it refuses it, the writer refuses too and leaves nothing
    monkeypatch.setattr(tensorstore, "_STREAM_ELEMS", 16)
    ref = tmp_path / "ref.tensors"
    out = tmp_path / "out" / "o.tensors"
    out.parent.mkdir(exist_ok=True)
    for leftover in out.parent.iterdir():
        leftover.unlink()
    ref.write_bytes(reference_container(tensors))
    ts = TensorSet()
    for name, (data, dtype) in tensors.items():
        ts.add(name, data, dtype)
    try:
        read_arrays(str(ref))
    except TensorStoreError:
        with pytest.raises(TensorStoreError, match="non-finite values as"):
            save_container(ts, str(out))
        assert os.listdir(out.parent) == []
    else:
        save_container(ts, str(out))
        assert out.read_bytes() == ref.read_bytes()
        assert os.listdir(out.parent) == ["o.tensors"]


def _stream_cases(tmp_path):
    """A container of every dtype, 0-d, 1-D and 3-D shapes, short tail
    blocks, an all-zero tensor and a row longer than one piece, with a
    __metadata__ entry; its path."""
    rng = np.random.default_rng(55)
    ts = TensorSet()
    ts.add("vec_f64", rng.standard_normal(1000), "F64")
    ts.add("cube_f32", rng.standard_t(5.0, size=(3, 5, 40)), "F32")
    ts.add("rows_f16", rng.laplace(size=(7, 100)), "F16")
    ts.add("long_bf16", rng.standard_normal((2, quantize._CHUNK_ELEMS + 1003)), "BF16")
    ts.add("scalar_bf16", np.array(-3.3), "BF16")
    ts.add("zeros_f32", np.zeros((4, 32)), "F32")
    path = str(tmp_path / "s.tensors")
    save_container(ts, path)
    with open(path, "rb") as f:
        blob = f.read()
    n = int.from_bytes(blob[:8], "little")
    header = {"__metadata__": {"origin": "test"}, **json.loads(blob[8:8 + n])}
    return _write(tmp_path, _container_bytes(header, blob[8 + n:]))


@pytest.mark.parametrize("block_size,m", [(32, 0), (7, 3), (1000, 0)])
def test_streamed_stats_match_loaded_bitwise(tmp_path, block_size, m):
    # the pieces, and their order, are those of the in-memory path, so every
    # record is the same bits (json.dumps writes each float's shortest repr)
    path = _stream_cases(tmp_path)
    cfg = BlockQuantConfig(block_size=block_size, scale_mantissa_bits=m)
    loaded = tensor_stats(read_arrays(path), cfg)
    with ContainerReader(path) as reader:
        assert "__metadata__" not in reader.tensors
        streamed = tensor_stats(reader.tensors, cfg)
    assert len(streamed.records) == 6
    assert json.dumps(streamed.to_json_dict()) == json.dumps(loaded.to_json_dict())


def test_streamed_gamma_matches_loaded(tmp_path):
    path = _stream_cases(tmp_path)
    loaded = gamma_stats(read_arrays(path), min_blocks=1)
    with ContainerReader(path) as reader:
        streamed = gamma_stats(reader.tensors, min_blocks=1)
        # one source on its own, as one array is taken
        one = gamma_stats(reader.tensors["long_bf16"], min_blocks=1)
    assert np.array_equal(streamed.delta, loaded.delta)
    assert json.dumps(streamed.summary_dict()) == json.dumps(loaded.summary_dict())
    want = gamma_stats(read_arrays(path)["long_bf16"], min_blocks=1)
    assert np.array_equal(one.delta, want.delta)


def test_stream_takes_the_column_split(tmp_path, monkeypatch):
    # the long row is cut into runs of whole blocks, each read on its own
    path = _stream_cases(tmp_path)
    reads = []
    real = StoredTensor.read

    def counted(self, start, count, out=None):
        reads.append((self.name, start, count))
        return real(self, start, count, out)

    monkeypatch.setattr(StoredTensor, "read", counted)
    with ContainerReader(path) as reader:
        tensor_stats({"long": reader.tensors["long_bf16"]}, BlockQuantConfig())
    piece = quantize._CHUNK_ELEMS
    n = piece + 1003
    assert reads == [("long_bf16", 0, piece), ("long_bf16", piece, 1003),
                     ("long_bf16", n, piece), ("long_bf16", n + piece, 1003)]


def _command_peak(capsys, argv) -> int:
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        assert main(argv) == 0
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
        capsys.readouterr()


def test_decompose_input_memory_independent_of_file_size(tmp_path, capsys):
    # one piece's buffers, whatever the tensor's size: a container 4x larger
    # peaks no higher, and neither holds its tensor as float64
    rng = np.random.default_rng(56)
    peaks = []
    for rows in (1024, 4096):
        ts = TensorSet()
        ts.add("w", rng.standard_normal((rows, 1024)), "BF16")
        path = str(tmp_path / f"w{rows}.tensors")
        save_container(ts, path)
        peaks.append(_command_peak(capsys, ["decompose", "--input", path]))
    small, large = peaks
    assert large <= small + 64 * 1024
    assert large < 16 * 1024 * 1024        # half the large tensor as float64


@pytest.mark.parametrize("argv", [["sweep", "--max-mantissa-bits", "1"], ["mbs"], ["of"]])
def test_measuring_commands_memory_independent_of_file_size(tmp_path, capsys, argv):
    # sweep, mbs and of measure their quantizers against one Q*(x), piece by
    # piece: a container 4x larger peaks no higher (mbs keeps one byte per
    # macro, 24 KiB more here), and neither holds its tensor as float64
    rng = np.random.default_rng(57)
    peaks = []
    for rows in (1024, 4096):
        ts = TensorSet()
        ts.add("w", rng.standard_normal((rows, 1024)), "BF16")
        path = str(tmp_path / f"w{rows}.tensors")
        save_container(ts, path)
        peaks.append(_command_peak(capsys, [*argv, "--input", path]))
    small, large = peaks
    assert large <= small + 64 * 1024, peaks
    assert large < 16 * 1024 * 1024, peaks


def test_save_memory_independent_of_tensor_size(tmp_path):
    # the writer narrows one piece at a time into reused buffers: a tensor 4x
    # larger peaks no higher above its input, and neither peak comes near
    # one whole-tensor temporary
    rng = np.random.default_rng(58)
    peaks = []
    for rows in (1024, 4096):
        ts = TensorSet()
        ts.add("w", rng.standard_normal((rows, 1024)), "BF16")
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            save_container(ts, str(tmp_path / f"w{rows}.tensors"))
            peaks.append(tracemalloc.get_traced_memory()[1] - base)
        finally:
            tracemalloc.stop()
    small, large = peaks
    assert large <= small + 64 * 1024, peaks
    assert large < 4 * 1024 * 1024, peaks     # an eighth of the large tensor


class TestSynth:
    def test_determinism_and_names(self):
        spec = SynthSpec("gaussian", (8, 32), seed=9, count=3)
        a = {name: np.asarray(t) for name, t in synth_tensors(spec).items()}
        b = {name: np.asarray(t) for name, t in synth_tensors(spec).items()}
        assert list(a) == ["gaussian_0000", "gaussian_0001", "gaussian_0002"]
        for name in a:
            assert np.array_equal(a[name], b[name])
        assert not np.array_equal(a["gaussian_0000"], a["gaussian_0001"])

    def test_validation(self):
        with pytest.raises(TensorStoreError, match="unknown distribution"):
            SynthSpec("cauchy", (4, 4))
        with pytest.raises(TensorStoreError, match="count"):
            SynthSpec("gaussian", (4, 4), count=0)
        with pytest.raises(TensorStoreError, match="shape"):
            SynthSpec("gaussian", ())
        with pytest.raises(TensorStoreError, match="dof"):
            SynthSpec("student_t", (4, 4), dof=4.0)
        with pytest.raises(TensorStoreError, match="2-D"):
            SynthSpec("lognormal_max_blocks", (64,))
        # the header's shape rule: drawn piece by piece, nothing would fail
        # to allocate, and a draw of 4e18 elements would start
        with pytest.raises(TensorStoreError, match="unsupported shape"):
            SynthSpec("gaussian", (4_000_000_000, 1_000_000_000))
        with pytest.raises(TensorStoreError, match="unsupported shape"):
            SynthSpec("gaussian", (1,) * 65)

    def test_laplace_kurtosis(self):
        x = np.asarray(synth_tensors(SynthSpec("laplace", (1000, 1000), seed=3))[
            "laplace_0000"])
        m2 = (x ** 2).mean()
        m4 = (x ** 4).mean()
        assert m4 / m2 ** 2 == pytest.approx(6.0, abs=0.2)

    def test_student_t_variance(self):
        x = np.asarray(synth_tensors(SynthSpec("student_t", (1000, 1000), seed=4))[
            "student_t_0000"])
        # dof=5 gives variance dof/(dof-2) = 5/3
        assert x.var() == pytest.approx(5.0 / 3.0, rel=0.02)

    def test_lognormal_max_structure(self):
        x = np.asarray(synth_tensors(SynthSpec("lognormal_max_blocks", (5000, 32),
                                               seed=5))["lognormal_max_blocks_0000"])
        maxima = np.abs(x).max(axis=1)
        assert (maxima > 0).all()
        logs = np.log(maxima)
        assert logs.mean() == pytest.approx(0.0, abs=0.05)
        assert logs.std() == pytest.approx(1.0, abs=0.05)

    def test_gaussian_moments(self):
        x = np.asarray(synth_tensors(SynthSpec("gaussian", (500, 500), seed=6))[
            "gaussian_0000"])
        assert x.mean() == pytest.approx(0.0, abs=0.01)
        assert x.std() == pytest.approx(1.0, rel=0.01)


# sha256 of each tensor of SynthSpec(family, (24, 40), seed=17, count=2),
# computed when every tensor was drawn whole, in one call per tensor, on
# this numpy build: drawing piece by piece keeps those bits
_SYNTH_DIGESTS = {
    "gaussian_0000": "1888b8aa0dcfac1ba4623eeba4919535095ec32b4a96005bdad83c691b98d672",
    "gaussian_0001": "0e3fe59607cd1fe40cc0f4a1365bfbe21acf99edba194c23e4bc4fa288acc6c9",
    "laplace_0000": "2aec95da0b89eeee5ff98e9fcf632b11f19a4cc0f834f4ece83d84e35f3d89c5",
    "laplace_0001": "18c92aae28ac3600073e468c7101f009817b7c1b77f5ee28a5f19f57e357def5",
    "student_t_0000": "ebe6fc6bf390ed79b39761a3ad19f510072663b03170f6f988622616467c9a26",
    "student_t_0001": "41166cf4a7d1637485abce4d0fa06b50d92b22377dec3afc0c0cf16ce835f5c1",
    "lognormal_max_blocks_0000":
        "bb9c02b108324d752e4193bc8e16e1f48cffe16cdd0f466e9cd72fb6640f92b8",
    "lognormal_max_blocks_0001":
        "9fb643194522b20b865d672eb014f8a605c54f211ccac50af34edb4eec128d01",
}


class TestSynthTensor:
    @pytest.mark.parametrize("family", tensorstore._DISTRIBUTIONS)
    def test_synth_keeps_the_whole_draw_digests(self, family):
        spec = SynthSpec(family, (24, 40), seed=17, count=2)
        arrays = {name: np.asarray(t) for name, t in synth_tensors(spec).items()}
        assert len(arrays) == 2
        for name, x in arrays.items():
            assert hashlib.sha256(x.tobytes()).hexdigest() == _SYNTH_DIGESTS[name], name

    @pytest.mark.parametrize("family,shape", [
        *((f, (37, 53)) for f in tensorstore._DISTRIBUTIONS),
        # rows longer than a piece: every read starts or ends inside a row
        ("lognormal_max_blocks", (3, quantize._STREAM_ELEMS + 1003)),
    ])
    def test_reads_are_slices_of_the_whole(self, family, shape):
        # reads at unaligned cuts, taken in turn from three tensors that
        # share one buffer, then a backward read (a restart), a forward skip,
        # a read into out and a whole read: each is the slice of the whole
        # tensor, bit for bit
        sources = synth_tensors(SynthSpec(family, shape, seed=23, count=3))
        assert all(isinstance(t, SynthTensor) for t in sources.values())
        wholes = {name: np.asarray(t).ravel() for name, t in sources.items()}
        n = math.prod(shape)
        cuts = [0, 1, 7, 53, 54, 200, n // 2 + 3, n - 5, n]
        for a, b in zip(cuts, cuts[1:]):
            for name, t in sources.items():
                got = t.read(a, b - a)
                assert got.tobytes() == wholes[name][a:b].tobytes(), (name, a, b)
        for a, b in [(n // 3, n // 3 + 61), (5, 9), (n - 40, n - 1), (0, n)]:
            for name, t in sources.items():
                got = t.read(a, b - a)
                assert got.tobytes() == wholes[name][a:b].tobytes(), (name, a, b)
        t = sources[min(sources)]
        out = np.empty(30)
        assert t.read(n - 70, 30, out) is out
        assert out.tobytes() == wholes[t.name][n - 70:n - 40].tobytes()


# Lowers this process's own address-space limit to what it maps now plus
# 256 MiB, then asks each source, and gemm, for a whole 2 GiB tensor: numpy's
# allocation fails before any memory is touched. argv[1] is a container
# whose one tensor, "big", is a sparse 2 GiB run of the file.
_WHOLE_READ_SCRIPT = """
import resource, sys
import numpy as np
from mxblock.cli import main
from mxblock.tensorstore import ContainerReader, SynthSpec, TensorStoreError, synth_tensors
with open("/proc/self/status") as f:
    mapped = next(int(line.split()[1]) for line in f if line.startswith("VmSize:"))
_, hard = resource.getrlimit(resource.RLIMIT_AS)
soft = (mapped << 10) + (256 << 20)
if hard != resource.RLIM_INFINITY:
    soft = min(soft, hard)
resource.setrlimit(resource.RLIMIT_AS, (soft, hard))
with ContainerReader(sys.argv[1]) as reader:
    sources = [synth_tensors(SynthSpec("gaussian", (16384, 16384)))["gaussian_0000"],
               reader.tensors["big"]]
    for t in sources:
        try:
            np.asarray(t)
            print("allocated")
        except TensorStoreError as exc:
            print(exc)
sys.exit(main(["gemm", "--synth", "gaussian:16384x16384"]))
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs Linux's VmSize")
def test_whole_read_numpy_cannot_allocate(tmp_path):
    nbytes = 8 * 16384 * 16384
    meta = {"dtype": "F64", "shape": [16384, 16384], "data_offsets": [0, nbytes]}
    head = _container_bytes({"big": meta}, b"")
    path = _write(tmp_path, head)
    os.truncate(path, len(head) + nbytes)
    src = os.path.dirname(os.path.dirname(tensorstore.__file__))
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    run = subprocess.run([sys.executable, "-c", _WHOLE_READ_SCRIPT, path],
                         env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 2, run.stderr
    held = f"in memory: {nbytes} bytes as float64"
    assert run.stdout.splitlines() == [f"cannot hold tensor gaussian_0000 {held}",
                                       f"cannot hold tensor big {held}"]
    assert run.stderr == f"error: cannot hold tensor gaussian_0000 {held}\n"
