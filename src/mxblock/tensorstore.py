"""Named-tensor container I/O and seeded synthetic tensor generation.

Container layout (little-endian throughout):

    bytes 0..8   : uint64 N, the header length
    bytes 8..8+N : JSON object, tensor name -> {"dtype", "shape",
                   "data_offsets": [begin, end]}; offsets are relative to
                   byte 8+N; a "__metadata__" key is ignored
    bytes 8+N..  : raw tensor data

Supported dtypes: F64, F32, F16, BF16. Values are widened to float64 on
load (exactly); the source dtype is kept so save restores the original
byte layout. Non-finite values abort a load: every downstream identity
assumes finite inputs.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "TensorStoreError",
    "TensorEntry",
    "TensorSet",
    "SynthSpec",
    "load_container",
    "save_container",
    "synth",
    "atomic_write_bytes",
]


class TensorStoreError(ValueError):
    """Malformed container or invalid synthesis spec."""


_DTYPES = {"F64": 8, "F32": 4, "F16": 2, "BF16": 2}


@dataclass
class TensorEntry:
    dtype: str
    shape: tuple[int, ...]
    data: np.ndarray        # float64, shape as declared


@dataclass
class TensorSet:
    """Ordered name -> entry map. ``arrays()`` gives the plain dict views
    most operations take."""

    entries: dict[str, TensorEntry] = field(default_factory=dict)

    def arrays(self) -> dict[str, np.ndarray]:
        return {name: e.data for name, e in self.entries.items()}

    def add(self, name: str, data: np.ndarray, dtype: str = "F64") -> None:
        if name in self.entries:
            raise TensorStoreError(f"duplicate tensor name: {name}")
        if dtype not in _DTYPES:
            raise TensorStoreError(f"unknown dtype: {dtype}")
        arr = np.asarray(data, dtype=np.float64)
        self.entries[name] = TensorEntry(dtype, arr.shape, arr)

    def __len__(self) -> int:
        return len(self.entries)


# --- dtype packing ------------------------------------------------------------


def _widen(raw: memoryview, dtype: str, count: int) -> np.ndarray:
    if dtype == "F64":
        return np.frombuffer(raw, dtype="<f8", count=count).astype(np.float64)
    if dtype == "F32":
        return np.frombuffer(raw, dtype="<f4", count=count).astype(np.float64)
    if dtype == "F16":
        return np.frombuffer(raw, dtype="<f2", count=count).astype(np.float64)
    # BF16: high 16 bits of an F32, shifted in place
    u32 = np.frombuffer(raw, dtype="<u2", count=count).astype(np.uint32)
    u32 <<= 16
    return u32.view(np.float32).astype(np.float64)


def _narrow(data: np.ndarray, dtype: str) -> bytes:
    if dtype == "F64":
        return data.astype("<f8").tobytes()
    if dtype == "F32":
        return data.astype("<f4").tobytes()
    if dtype == "F16":
        return data.astype("<f2").tobytes()
    u32 = data.astype(np.float32).view(np.uint32)
    # round to nearest even in the low 16 bits
    rounded = (u32 + 0x7FFF + ((u32 >> 16) & 1)) >> 16
    return rounded.astype("<u2").tobytes()


# --- container I/O ------------------------------------------------------------


def load_container(path: str) -> TensorSet:
    """Read a container and widen every tensor to float64. The file is read
    once; the header and tensor data are sliced from it without copies."""
    try:
        with open(path, "rb") as f:
            blob = memoryview(f.read())
    except OSError as exc:
        raise TensorStoreError(f"cannot read container: {exc}") from exc

    if len(blob) < 8:
        raise TensorStoreError("malformed header: file shorter than 8 bytes")
    n = int.from_bytes(blob[:8], "little")
    if 8 + n > len(blob):
        raise TensorStoreError("malformed header: header length exceeds file size")
    try:
        header = json.loads(str(blob[8:8 + n], "utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise TensorStoreError(f"malformed header: {exc}") from exc
    if not isinstance(header, dict):
        raise TensorStoreError("malformed header: not a JSON object")

    data = blob[8 + n:]
    spans = []
    out = TensorSet()
    for name, meta in header.items():
        if name == "__metadata__":
            continue
        if not isinstance(meta, dict):
            raise TensorStoreError(f"malformed entry for {name}")
        try:
            dtype, shape, offsets = meta["dtype"], meta["shape"], meta["data_offsets"]
        except KeyError as exc:
            raise TensorStoreError(f"malformed entry for {name}: missing {exc}") from exc
        # lists of JSON integers only: no strings, floats or booleans
        if not (isinstance(shape, list) and isinstance(offsets, list) and len(offsets) == 2
                and all(type(v) is int for v in shape + offsets)):
            raise TensorStoreError(f"malformed entry for {name}: shape and data_offsets "
                                   "must be integer lists, data_offsets of length 2")
        shape, (begin, end) = tuple(shape), offsets
        if not isinstance(dtype, str) or dtype not in _DTYPES:
            raise TensorStoreError(f"unknown dtype: {dtype} (tensor {name})")
        if any(d < 0 for d in shape):
            raise TensorStoreError(f"negative dimension (tensor {name})")
        numel = math.prod(shape)        # exact: a fixed-width product can wrap
        if begin < 0 or end < begin or end > len(data):
            raise TensorStoreError(f"data_offsets out of bounds (tensor {name})")
        if end - begin != numel * _DTYPES[dtype]:
            raise TensorStoreError(f"data size mismatch (tensor {name})")
        spans.append((begin, end, name))

        try:
            values = _widen(data[begin:end], dtype, numel).reshape(shape)
        except ValueError as exc:       # e.g. [2**70, 0], or more than 64 dims
            raise TensorStoreError(f"unsupported shape (tensor {name}): {exc}") from exc
        if not np.isfinite(values).all():
            raise TensorStoreError(f"non-finite values (tensor {name})")
        out.entries[name] = TensorEntry(dtype, shape, values)

    spans.sort()
    for (b0, e0, n0), (b1, e1, n1) in zip(spans, spans[1:]):
        if b1 < e0:
            raise TensorStoreError(f"overlapping data_offsets ({n0} / {n1})")
    return out


def atomic_write_bytes(path: str, payload: bytes) -> None:
    """Write via a sibling temp file and rename, so readers never see a
    half-written file."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-")
    try:
        with os.fdopen(fd, "wb") as f:
            f.write(payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def save_container(tset: TensorSet, path: str) -> None:
    """Inverse of load. Header keys sorted by name; data packed in the
    same order with no gaps."""
    header: dict[str, dict] = {}
    chunks: list[bytes] = []
    offset = 0
    for name in sorted(tset.entries):
        e = tset.entries[name]
        raw = _narrow(e.data, e.dtype)
        header[name] = {"dtype": e.dtype, "shape": list(e.shape),
                        "data_offsets": [offset, offset + len(raw)]}
        chunks.append(raw)
        offset += len(raw)
    hjson = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    payload = len(hjson).to_bytes(8, "little") + hjson + b"".join(chunks)
    atomic_write_bytes(path, payload)


# --- synthetic tensors ---------------------------------------------------------

_DISTRIBUTIONS = ("gaussian", "laplace", "student_t", "lognormal_max_blocks")


@dataclass(frozen=True)
class SynthSpec:
    """Seeded synthetic tensor request. ``count`` tensors of ``shape`` are
    generated with independent child seeds, named ``{distribution}_{i:04d}``.

    student_t needs dof > 4 so the fourth moment exists. lognormal_max_blocks
    treats shape as (n_blocks, block_len) and draws each block with a
    log-normally distributed max magnitude (sigma_log in natural log units),
    placing the max exactly.
    """

    distribution: str
    shape: tuple[int, ...]
    seed: int = 0
    count: int = 1
    dof: float = 5.0
    sigma_log: float = 1.0

    def __post_init__(self) -> None:
        if self.distribution not in _DISTRIBUTIONS:
            raise TensorStoreError(f"unknown distribution: {self.distribution}")
        if self.count < 1:
            raise TensorStoreError("count must be >= 1")
        if not self.shape or any(d < 1 for d in self.shape):
            raise TensorStoreError("shape dims must be >= 1")
        if self.distribution == "student_t" and not self.dof > 4:
            raise TensorStoreError("student_t needs dof > 4")
        if self.distribution == "lognormal_max_blocks" and len(self.shape) != 2:
            raise TensorStoreError("lognormal_max_blocks needs a 2-D shape")


def _lognormal_max_blocks(rng: np.random.Generator, shape: tuple[int, ...],
                          sigma_log: float) -> np.ndarray:
    n_blocks, b = shape
    maxima = np.exp(rng.normal(0.0, sigma_log, size=n_blocks))
    body = rng.uniform(-1.0, 1.0, size=(n_blocks, b))
    peak = np.abs(body).argmax(axis=1)
    rows = np.arange(n_blocks)
    peak_vals = np.abs(body[rows, peak])
    peak_vals[peak_vals == 0.0] = 1.0          # measure-zero guard
    return body * (maxima / peak_vals)[:, None]


def synth(spec: SynthSpec) -> TensorSet:
    out = TensorSet()
    children = np.random.SeedSequence(spec.seed).spawn(spec.count)
    for i, child in enumerate(children):
        rng = np.random.default_rng(child)
        if spec.distribution == "gaussian":
            data = rng.standard_normal(spec.shape)
        elif spec.distribution == "laplace":
            data = rng.laplace(0.0, 1.0, size=spec.shape)
        elif spec.distribution == "student_t":
            data = rng.standard_t(spec.dof, size=spec.shape)
        else:
            data = _lognormal_max_blocks(rng, spec.shape, spec.sigma_log)
        out.add(f"{spec.distribution}_{i:04d}", data)
    return out
