import json
import os

import numpy as np
import pytest

from mxblock.tensorstore import (
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
