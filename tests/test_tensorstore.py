import json
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from mxblock import decompose, tensorstore
from mxblock.analysis import gamma_stats
from mxblock.cli import main
from mxblock.decompose import tensor_stats
from mxblock.quantize import BlockQuantConfig
from mxblock.tensorstore import (
    ContainerReader,
    StoredTensor,
    SynthSpec,
    TensorSet,
    TensorStoreError,
    atomic_write_bytes,
    load_container,
    save_container,
    synth,
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
        back = load_container(path)
        assert len(back) == 2
        for name in ("w", "v"):
            assert np.array_equal(back.arrays()[name], ts.arrays()[name])
            assert back.entries[name].shape == ts.entries[name].shape

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
            back = load_container(path)
            assert np.array_equal(back.arrays()["x"], vals), dtype
            assert back.entries["x"].dtype == dtype

    @pytest.mark.parametrize("dtype", ["F64", "F32", "F16", "BF16"])
    def test_asarray_is_the_loaded_array(self, tmp_path, monkeypatch, dtype):
        # np.asarray(stored) is the whole tensor, bit for bit what
        # load_container gives; small pieces so a tensor takes several reads
        monkeypatch.setattr(tensorstore, "_CHUNK_ELEMS", 16)
        rng = np.random.default_rng(63)
        ts = TensorSet()
        for shape in [(), (37,), (3, 5, 7)]:
            ts.add(f"x{len(shape)}", rng.standard_normal(shape), dtype=dtype)
        path = str(tmp_path / "a.tensors")
        save_container(ts, path)
        loaded = load_container(path).arrays()
        with ContainerReader(path) as reader:
            for name, t in reader.tensors.items():
                arr = np.asarray(t)
                assert arr.dtype == np.float64 and arr.shape == t.shape
                assert arr.tobytes() == loaded[name].tobytes(), name
                assert np.asarray(t, dtype=np.float32).dtype == np.float32
                with pytest.raises(ValueError, match="without a copy"):
                    np.asarray(t, copy=False)

    def test_save_is_sorted_and_gapless(self, tmp_path):
        ts = TensorSet()
        ts.add("b", np.ones(2))
        ts.add("a", np.zeros(3))
        path = str(tmp_path / "s.tensors")
        save_container(ts, path)
        blob = open(path, "rb").read()
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
        back = load_container(path)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert back.arrays()["x"].nbytes == x.nbytes
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
            load_container(str(tmp_path / "nope.tensors"))

    def test_short_file(self, tmp_path):
        with pytest.raises(TensorStoreError, match="shorter than 8"):
            load_container(_write(tmp_path, b"\x01\x02"))

    def test_header_length_overruns(self, tmp_path):
        blob = (100).to_bytes(8, "little") + b"{}"
        with pytest.raises(TensorStoreError, match="exceeds file size"):
            load_container(_write(tmp_path, blob))

    def test_header_not_utf8(self, tmp_path):
        blob = (4).to_bytes(8, "little") + b"\xff\xfe{}"
        with pytest.raises(TensorStoreError, match="malformed header"):
            load_container(_write(tmp_path, blob))

    def test_header_not_json(self, tmp_path):
        blob = (4).to_bytes(8, "little") + b"@@@@"
        with pytest.raises(TensorStoreError, match="malformed header"):
            load_container(_write(tmp_path, blob))

    def test_header_not_object(self, tmp_path):
        body = b"[1,2]"
        blob = len(body).to_bytes(8, "little") + body
        with pytest.raises(TensorStoreError, match="not a JSON object"):
            load_container(_write(tmp_path, blob))

    def test_entry_not_dict(self, tmp_path):
        blob = _container_bytes({"t": 7}, b"")
        with pytest.raises(TensorStoreError, match="malformed entry for t"):
            load_container(_write(tmp_path, blob))

    def test_entry_missing_keys(self, tmp_path):
        blob = _container_bytes({"t": {"dtype": "F64"}}, b"")
        with pytest.raises(TensorStoreError, match="malformed entry for t"):
            load_container(_write(tmp_path, blob))

    def test_unknown_dtype(self, tmp_path):
        meta = {"dtype": "F13", "shape": [1], "data_offsets": [0, 8]}
        blob = _container_bytes({"t": meta}, b"\x00" * 8)
        with pytest.raises(TensorStoreError, match="unknown dtype"):
            load_container(_write(tmp_path, blob))

    def test_negative_dimension(self, tmp_path):
        meta = {"dtype": "F64", "shape": [-1], "data_offsets": [0, 8]}
        blob = _container_bytes({"t": meta}, b"\x00" * 8)
        with pytest.raises(TensorStoreError, match="negative dimension"):
            load_container(_write(tmp_path, blob))

    def test_offsets_out_of_bounds(self, tmp_path):
        meta = {"dtype": "F64", "shape": [1], "data_offsets": [0, 16]}
        blob = _container_bytes({"t": meta}, b"\x00" * 8)
        with pytest.raises(TensorStoreError, match="out of bounds"):
            load_container(_write(tmp_path, blob))

    def test_size_mismatch(self, tmp_path):
        meta = {"dtype": "F64", "shape": [3], "data_offsets": [0, 8]}
        blob = _container_bytes({"t": meta}, b"\x00" * 8)
        with pytest.raises(TensorStoreError, match="size mismatch"):
            load_container(_write(tmp_path, blob))

    def test_shape_product_overflow(self, tmp_path):
        # 2^32 * 2^32 wraps to 0 in int64, which matched the empty span
        meta = {"dtype": "BF16", "shape": [2 ** 32, 2 ** 32], "data_offsets": [0, 0]}
        blob = _container_bytes({"t": meta}, b"")
        with pytest.raises(TensorStoreError, match="size mismatch"):
            load_container(_write(tmp_path, blob))

    def test_overlapping_offsets(self, tmp_path):
        data = np.array([1.0, 2.0]).astype("<f8").tobytes()
        header = {"a": {"dtype": "F64", "shape": [1], "data_offsets": [0, 8]},
                  "b": {"dtype": "F64", "shape": [1], "data_offsets": [4, 12]}}
        blob = _container_bytes(header, data)
        with pytest.raises(TensorStoreError, match="overlapping"):
            load_container(_write(tmp_path, blob))

    def test_non_finite_named(self, tmp_path):
        data = np.array([1.0, np.inf]).astype("<f8").tobytes()
        meta = {"dtype": "F64", "shape": [2], "data_offsets": [0, 16]}
        blob = _container_bytes({"bad": meta}, data)
        with pytest.raises(TensorStoreError, match=r"non-finite.*bad"):
            load_container(_write(tmp_path, blob))

    def test_metadata_key_ignored(self, tmp_path):
        data = np.array([4.0]).astype("<f8").tobytes()
        header = {"__metadata__": {"origin": "test"},
                  "t": {"dtype": "F64", "shape": [1], "data_offsets": [0, 8]}}
        ts = load_container(_write(tmp_path, _container_bytes(header, data)))
        assert list(ts.arrays()) == ["t"]
        assert ts.arrays()["t"][0] == 4.0


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
            load_container(_write(tmp_path, blob))

    def test_zero_size_shape_numpy_cannot_hold(self, tmp_path):
        meta = {"dtype": "F64", "shape": [2 ** 70, 0], "data_offsets": [0, 0]}
        with pytest.raises(TensorStoreError, match="unsupported shape"):
            load_container(_write(tmp_path, _container_bytes({"t": meta}, b"")))

    def test_deeply_nested_header(self, tmp_path):
        hjson = b"[" * 100_000 + b"]" * 100_000
        blob = len(hjson).to_bytes(8, "little") + hjson
        with pytest.raises(TensorStoreError, match="malformed header"):
            load_container(_write(tmp_path, blob))


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
        ts = load_container(path)
    except TensorStoreError:
        return
    declared = {k: v for k, v in header.items() if k != "__metadata__"}
    assert sorted(ts.entries) == sorted(declared)
    for name, meta in declared.items():
        entry = ts.entries[name]
        assert entry.dtype == meta["dtype"]
        assert entry.shape == tuple(meta["shape"]) == entry.data.shape
        assert entry.data.dtype == np.float64 and np.isfinite(entry.data).all()


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

    def test_non_finite_found_in_its_piece(self, tmp_path):
        x = np.ones(100)
        x[90] = np.nan
        ts = TensorSet()
        ts.add("bad", x, dtype="F16")
        path = str(tmp_path / "n.tensors")
        save_container(ts, path)
        with ContainerReader(path) as reader:
            assert np.array_equal(reader.tensors["bad"].read(0, 90), np.ones(90))
            with pytest.raises(TensorStoreError, match=r"non-finite.*bad"):
                reader.tensors["bad"].read(80, 20)


def _stream_cases(tmp_path):
    """A container of every dtype, 0-d, 1-D and 3-D shapes, short tail
    blocks, an all-zero tensor and a row longer than one piece, with a
    __metadata__ entry; its path."""
    rng = np.random.default_rng(55)
    ts = TensorSet()
    ts.add("vec_f64", rng.standard_normal(1000), "F64")
    ts.add("cube_f32", rng.standard_t(5.0, size=(3, 5, 40)), "F32")
    ts.add("rows_f16", rng.laplace(size=(7, 100)), "F16")
    ts.add("long_bf16", rng.standard_normal((2, 2 ** 17 + 1003)), "BF16")
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
    loaded = tensor_stats(load_container(path).arrays(), cfg)
    with ContainerReader(path) as reader:
        assert "__metadata__" not in reader.tensors
        streamed = tensor_stats(reader.tensors, cfg)
    assert len(streamed.records) == 6
    assert json.dumps(streamed.to_json_dict()) == json.dumps(loaded.to_json_dict())


def test_streamed_gamma_matches_loaded(tmp_path):
    path = _stream_cases(tmp_path)
    loaded = gamma_stats(load_container(path).arrays(), min_blocks=1)
    with ContainerReader(path) as reader:
        streamed = gamma_stats(reader.tensors, min_blocks=1)
    assert np.array_equal(streamed.delta, loaded.delta)
    assert json.dumps(streamed.summary_dict()) == json.dumps(loaded.summary_dict())


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
    n = 2 ** 17 + 1003
    assert reads == [("long_bf16", 0, 2 ** 17), ("long_bf16", 2 ** 17, 1003),
                     ("long_bf16", n, 2 ** 17), ("long_bf16", n + 2 ** 17, 1003)]


def _decompose_peak(capsys, path) -> int:
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        assert main(["decompose", "--input", path]) == 0
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
        peaks.append(_decompose_peak(capsys, path))
    small, large = peaks
    assert large <= small + 64 * 1024
    assert large < 16 * 1024 * 1024        # half the large tensor as float64


class TestSynth:
    def test_determinism_and_names(self):
        spec = SynthSpec("gaussian", (8, 32), seed=9, count=3)
        a = synth(spec).arrays()
        b = synth(spec).arrays()
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

    def test_laplace_kurtosis(self):
        x = synth(SynthSpec("laplace", (1000, 1000), seed=3)).arrays()[
            "laplace_0000"]
        m2 = (x ** 2).mean()
        m4 = (x ** 4).mean()
        assert m4 / m2 ** 2 == pytest.approx(6.0, abs=0.2)

    def test_student_t_variance(self):
        x = synth(SynthSpec("student_t", (1000, 1000), seed=4)).arrays()[
            "student_t_0000"]
        # dof=5 gives variance dof/(dof-2) = 5/3
        assert x.var() == pytest.approx(5.0 / 3.0, rel=0.02)

    def test_lognormal_max_structure(self):
        x = synth(SynthSpec("lognormal_max_blocks", (5000, 32), seed=5)
                  ).arrays()["lognormal_max_blocks_0000"]
        maxima = np.abs(x).max(axis=1)
        assert (maxima > 0).all()
        logs = np.log(maxima)
        assert logs.mean() == pytest.approx(0.0, abs=0.05)
        assert logs.std() == pytest.approx(1.0, abs=0.05)

    def test_gaussian_moments(self):
        x = synth(SynthSpec("gaussian", (500, 500), seed=6)).arrays()[
            "gaussian_0000"]
        assert x.mean() == pytest.approx(0.0, abs=0.01)
        assert x.std() == pytest.approx(1.0, rel=0.01)
