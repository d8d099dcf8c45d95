"""Named-tensor container I/O and seeded synthetic tensor generation.

Container layout (little-endian throughout):

    bytes 0..8   : uint64 N, the header length
    bytes 8..8+N : JSON object, tensor name -> {"dtype", "shape",
                   "data_offsets": [begin, end]}; offsets are relative to
                   byte 8+N; a "__metadata__" key is ignored
    bytes 8+N..  : raw tensor data

Supported dtypes: F64, F32, F16, BF16. Values are widened to float64
(exactly); the source dtype is kept so save restores the original byte
layout.

ContainerReader opens a file and runs every header check (field types,
dtype, shape, span bounds and sizes, overlaps) before any tensor data is
read. Its StoredTensors are the one way data leaves a file. read() gives any
run of elements, readinto one reused byte buffer and widened into one reused
float64 buffer, so a caller that walks a tensor in pieces (decompose_tensor,
gamma_stats) holds one piece, not the file. np.asarray(stored) is the same
reads filling one preallocated float64 array, so a caller that needs whole
tensors holds the one it asked for; load_container is that for every
tensor. The non-finite check runs on every read, on the piece just widened:
a non-finite value is a TensorStoreError naming the tensor, because every
downstream identity assumes finite inputs.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from dataclasses import dataclass, field

import numpy as np

from .quantize import _CHUNK_ELEMS, _Workspace

__all__ = [
    "TensorStoreError",
    "TensorEntry",
    "TensorSet",
    "SynthSpec",
    "StoredTensor",
    "ContainerReader",
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

_NARROW = {"F64": "<f8", "F32": "<f4", "F16": "<f2"}


def _narrow(data: np.ndarray, dtype: str) -> bytes:
    if dtype in _NARROW:
        return data.astype(_NARROW[dtype]).tobytes()
    u32 = data.astype(np.float32).view(np.uint32)
    # round to nearest even in the low 16 bits
    rounded = (u32 + 0x7FFF + ((u32 >> 16) & 1)) >> 16
    return rounded.astype("<u2").tobytes()


# --- container I/O ------------------------------------------------------------

_MAX_DIMS = 64              # numpy's limit on ndim
_MAX_BYTES = 2 ** 63 - 1    # numpy's limit on itemsize * the nonzero dimensions


@dataclass(frozen=True)
class StoredTensor:
    """One tensor of an open container, read piece by piece (read) or whole
    (np.asarray): the header's dtype and shape, and the file offset of its
    first byte."""

    name: str
    dtype: str
    shape: tuple[int, ...]
    offset: int
    reader: ContainerReader = field(repr=False, compare=False)

    @property
    def size(self) -> int:
        return math.prod(self.shape)

    @property
    def ndim(self) -> int:
        return len(self.shape)

    def read(self, start: int, count: int, out: np.ndarray | None = None) -> np.ndarray:
        """Elements [start, start + count) in row-major order, widened
        exactly to float64 into out or into the reader's reused buffer, which
        the next read overwrites. A non-finite value is a TensorStoreError
        naming the tensor: every downstream identity assumes finite input."""
        work, f, width = self.reader.work, self.reader.file, _DTYPES[self.dtype]
        raw = work.take("raw", (count * width,), np.uint8)
        f.seek(self.offset + start * width)
        if f.readinto(raw) != raw.size:
            raise TensorStoreError(f"short read (tensor {self.name}): the file "
                                   "is shorter than its header says")
        if self.dtype == "BF16":          # the high 16 bits of an F32
            wide = work.take("bf16", (count,), np.uint32)
            np.left_shift(raw.view("<u2"), 16, out=wide, dtype=np.uint32)
            src = wide.view(np.float32)
        else:
            src = raw.view(_NARROW[self.dtype])
        values = work.take("values", (count,)) if out is None else out
        np.copyto(values, src)
        if not np.isfinite(values).all():
            raise TensorStoreError(f"non-finite values (tensor {self.name})")
        return values

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        """The whole tensor as a new float64 array (np.asarray(stored)),
        filled piece by piece through read(), so the only other memory is one
        piece's buffers. Nothing in memory can be viewed: copy=False raises."""
        if copy is False:
            raise ValueError(f"tensor {self.name} is read from its file: "
                             "it cannot be an array without a copy")
        data = np.empty(self.shape)
        flat = data.reshape(-1)
        for start in range(0, self.size, _CHUNK_ELEMS):
            count = min(_CHUNK_ELEMS, self.size - start)
            self.read(start, count, flat[start:start + count])
        return data if dtype is None else data.astype(dtype, copy=False)


def _parse_header(reader: ContainerReader) -> dict[str, StoredTensor]:
    """Every entry of the container's header, in header order, checked
    before any tensor data is read: field types, dtype, a shape numpy can
    hold, the span's size and bounds, and no two spans overlapping."""
    f = reader.file
    size = os.fstat(f.fileno()).st_size
    if size < 8:
        raise TensorStoreError("malformed header: file shorter than 8 bytes")
    n = int.from_bytes(f.read(8), "little")
    if 8 + n > size:
        raise TensorStoreError("malformed header: header length exceeds file size")
    try:
        header = json.loads(str(f.read(n), "utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise TensorStoreError(f"malformed header: {exc}") from exc
    if not isinstance(header, dict):
        raise TensorStoreError("malformed header: not a JSON object")

    data_size = size - 8 - n
    spans = []
    tensors = {}
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
        if begin < 0 or end < begin or end > data_size:
            raise TensorStoreError(f"data_offsets out of bounds (tensor {name})")
        if end - begin != numel * _DTYPES[dtype]:
            raise TensorStoreError(f"data size mismatch (tensor {name})")
        # e.g. [2**70, 0]: no data, but no float64 array of that shape exists
        if len(shape) > _MAX_DIMS or 8 * math.prod(d for d in shape if d) > _MAX_BYTES:
            raise TensorStoreError(f"unsupported shape (tensor {name}): numpy "
                                   f"cannot hold a float64 array of shape {list(shape)}")
        spans.append((begin, end, name))
        tensors[name] = StoredTensor(name, dtype, shape, 8 + n + begin, reader)

    spans.sort()
    for (b0, e0, n0), (b1, e1, n1) in zip(spans, spans[1:]):
        if b1 < e0:
            raise TensorStoreError(f"overlapping data_offsets ({n0} / {n1})")
    return tensors


class ContainerReader:
    """An open container: ``tensors`` maps each name to a StoredTensor,
    whose reads share one set of reused buffers. Use as a context manager,
    or close() it."""

    def __init__(self, path: str) -> None:
        try:
            self.file = open(path, "rb")
        except OSError as exc:
            raise TensorStoreError(f"cannot read container: {exc}") from exc
        self.work = _Workspace()
        try:
            self.tensors = _parse_header(self)
        except BaseException:
            self.file.close()
            raise

    def close(self) -> None:
        self.file.close()

    def __enter__(self) -> ContainerReader:
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def load_container(path: str) -> TensorSet:
    """Read a container and widen every tensor to float64: np.asarray of
    each StoredTensor, so the only other memory is one piece's buffers."""
    out = TensorSet()
    with ContainerReader(path) as reader:
        for name, t in reader.tensors.items():
            out.entries[name] = TensorEntry(t.dtype, t.shape, np.asarray(t))
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
