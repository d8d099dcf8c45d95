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

A TensorSource is a tensor read piece by piece: read(start, count) gives
any run of its row-major elements as float64 in one reused buffer, so a
caller that walks a tensor in pieces (decompose_tensor, gamma_stats,
gemm_error_propagation, every command) holds one piece, not the tensor.
np.asarray(source) is the same reads filling one preallocated float64
array, for a library caller that needs the whole tensor; an array numpy
cannot allocate is a TensorStoreError naming the tensor. There are two
sources, and they are the one way data enters an analysis from outside
the caller's arrays.

StoredTensor reads a container. ContainerReader opens a file and runs every
header check (field types, dtype, shape, span bounds and sizes, overlaps)
before any tensor data is read. A read is readinto one reused byte buffer
and widened into one reused float64 buffer. The non-finite check runs on
every read, on the exponent bits of the piece's stored words before they
are widened: a non-finite value is a TensorStoreError naming the tensor,
because every downstream identity assumes finite inputs.

SynthTensor draws a SynthSpec's tensor from its own seeded generator, in
order, so each read has the bits of the whole tensor drawn at once (see
its docstring); synth_tensors gives every tensor of a spec. A spec whose
shape no float64 array can have is refused by the header's own shape rule.

ContainerWriter is the inverse: it writes the header from the declared
(name, dtype, shape) entries first, then takes each tensor in header order
and narrows it one piece at a time into one set of reused buffers, so a
caller that makes its tensors one at a time (aqn) holds one tensor, and
save_container holds one piece past its TensorSet. Each narrowed piece gets
the reader's check: a value that is not finite in its dtype, including a
finite one past the dtype's range (1e6 as F16, or a float32 whose BF16
rounding carries into inf), is a TensorStoreError naming the tensor and its
dtype, not a numpy overflow warning and a file the reader refuses. The file
is written under a temp name and renamed over the target only when the
writer closes cleanly; after any error neither it nor the temp file exists.
atomic_write_bytes (reports) uses the same temp-file path.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from dataclasses import dataclass, field

import numpy as np

from .quantize import _STREAM_ELEMS, _Workspace

__all__ = [
    "TensorStoreError",
    "TensorEntry",
    "TensorSet",
    "SynthSpec",
    "TensorSource",
    "StoredTensor",
    "SynthTensor",
    "ContainerReader",
    "ContainerWriter",
    "save_container",
    "synth_tensors",
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
# each dtype's +inf, whose bits are its exponent field: a value is not
# finite exactly when its word has all of them set
_INF_BITS = {"F64": 0x7FF0_0000_0000_0000, "F32": 0x7F80_0000, "F16": 0x7C00, "BF16": 0x7F80}


# --- container I/O ------------------------------------------------------------

_MAX_DIMS = 64              # numpy's limit on ndim
_MAX_BYTES = 2 ** 63 - 1    # numpy's limit on itemsize * the nonzero dimensions


def _check_shape(shape: tuple[int, ...], what: str) -> None:
    """A TensorStoreError unless numpy can hold a float64 array of shape:
    at most _MAX_DIMS dimensions, and at most _MAX_BYTES over the nonzero
    ones (e.g. [2**70, 0] has no data, but no such array exists)."""
    if len(shape) > _MAX_DIMS or 8 * math.prod(d for d in shape if d) > _MAX_BYTES:
        raise TensorStoreError(f"unsupported shape ({what}): numpy "
                               f"cannot hold a float64 array of shape {list(shape)}")


def _empty(shape: tuple[int, ...], what: str,
           error: type[ValueError] = ValueError) -> np.ndarray:
    """np.empty(shape), a new float64 array, or error naming what and its
    bytes when numpy cannot allocate it."""
    try:
        return np.empty(shape)
    except MemoryError:
        raise error(f"cannot hold {what} in memory: "
                    f"{8 * math.prod(shape)} bytes as float64") from None


class TensorSource:
    """A named tensor of a fixed shape that is read piece by piece:
    read(start, count, out=None) gives elements [start, start + count) in
    row-major order as float64, into out or into a reused buffer that the
    next read overwrites. np.asarray(source) is the whole tensor, filled by
    the same reads. StoredTensor reads a container file; SynthTensor draws."""

    name: str
    shape: tuple[int, ...]

    @property
    def size(self) -> int:
        return math.prod(self.shape)

    @property
    def ndim(self) -> int:
        return len(self.shape)

    def read(self, start: int, count: int, out: np.ndarray | None = None) -> np.ndarray:
        raise NotImplementedError

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        """The whole tensor as a new float64 array (np.asarray(source)),
        filled piece by piece through read(), so the only other memory is one
        piece's buffers. Nothing in memory can be viewed: copy=False raises.
        An array numpy cannot allocate is a TensorStoreError naming the
        tensor and its bytes."""
        if copy is False:
            raise ValueError(f"tensor {self.name} is read piece by piece: "
                             "it cannot be an array without a copy")
        data = _empty(self.shape, f"tensor {self.name}", TensorStoreError)
        flat = data.reshape(-1)
        for start in range(0, self.size, _STREAM_ELEMS):
            count = min(_STREAM_ELEMS, self.size - start)
            self.read(start, count, flat[start:start + count])
        return data if dtype is None else data.astype(dtype, copy=False)


@dataclass(frozen=True)
class StoredTensor(TensorSource):
    """One tensor of an open container, read piece by piece (read) or whole
    (np.asarray): the header's dtype and shape, and the file offset of its
    first byte."""

    name: str
    dtype: str
    shape: tuple[int, ...]
    offset: int
    reader: ContainerReader = field(repr=False, compare=False)

    def read(self, start: int, count: int, out: np.ndarray | None = None) -> np.ndarray:
        """Elements [start, start + count) in row-major order, widened
        exactly to float64 into out or into the reader's reused buffer, which
        the next read overwrites. A non-finite value is a TensorStoreError
        naming the tensor: every downstream identity assumes finite input.
        It is found on the stored words, before they are widened: one mask
        and one max over the exponent fields (_INF_BITS)."""
        work, f, width = self.reader.work, self.reader.file, _DTYPES[self.dtype]
        raw = work.take("raw", (count * width,), np.uint8)
        f.seek(self.offset + start * width)
        if f.readinto(raw) != raw.size:
            raise TensorStoreError(f"short read (tensor {self.name}): the file "
                                   "is shorter than its header says")
        words, inf = raw.view(f"<u{width}"), _INF_BITS[self.dtype]
        fields = np.bitwise_and(words, inf, out=work.take("fields", (count,), words.dtype))
        if count and fields.max() == inf:
            raise TensorStoreError(f"non-finite values (tensor {self.name})")
        if self.dtype == "BF16":          # the high 16 bits of an F32
            wide = work.take("bf16", (count,), np.uint32)
            np.left_shift(words, 16, out=wide, dtype=np.uint32)
            src = wide.view(np.float32)
        else:
            src = raw.view(_NARROW[self.dtype])
        values = work.take("values", (count,)) if out is None else out
        np.copyto(values, src)
        return values


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
        _check_shape(shape, f"tensor {name}")
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


class _AtomicFile:
    """A file written under a sibling temp name (``.tmp-*``) that is renamed
    over path when its with-block ends cleanly, so readers never see a
    half-written file; on any exception the temp file is removed instead.
    head is written on entry. The file gets the mode open(path, "wb") would
    give, 0o666 less the umask, not mkstemp's 0o600."""

    def __init__(self, path: str, head: bytes = b"") -> None:
        self.path, self._head = path, head

    def __enter__(self):
        directory = os.path.dirname(os.path.abspath(self.path))
        fd, self._tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-")
        self.file = os.fdopen(fd, "wb")
        try:
            self.file.write(self._head)
        except BaseException:
            self._finish(False)
            raise
        return self

    def __exit__(self, kind, exc, tb) -> None:
        self._finish(kind is None)

    def _complete(self) -> None:
        """Raise if the content is not whole; runs before the rename."""

    def _finish(self, ok: bool) -> None:
        renamed = False
        try:
            with self.file:
                if ok:
                    self._complete()
            if ok:
                umask = os.umask(0)     # reading the umask means setting it
                os.umask(umask)
                os.chmod(self._tmp, 0o666 & ~umask)
                os.replace(self._tmp, self.path)
                renamed = True
        finally:
            if not renamed:
                os.unlink(self._tmp)


def atomic_write_bytes(path: str, payload: bytes) -> None:
    """Write payload to path through a temp file and a rename."""
    with _AtomicFile(path) as out:
        out.file.write(payload)


# float32 magnitudes from this one up round to a BF16 inf: 0x7F7F8000, the
# tie above the largest BF16, 0x7F7F, rounds to the even 0x7F80
_BF16_LIMIT = float.fromhex("0x1.ffp+127")


class ContainerWriter(_AtomicFile):
    """A container written one tensor at a time: the inverse of
    ContainerReader. The header is built from the declared (name, dtype,
    shape) entries, sorted by name with the data packed in that order and no
    gaps, and is written first. write() then takes each tensor in header
    order and narrows it one piece (_STREAM_ELEMS elements) at a time into
    one set of reused buffers, writing each piece as it is made, so past
    the caller's float64 tensor the memory is one piece. write_pieces()
    takes a tensor as consecutive pieces instead, so that it is never whole
    in memory. A value that is not finite once narrowed (an inf or a nan,
    or a finite value beyond the dtype's range) is a TensorStoreError
    naming the tensor and its dtype, because the reader would refuse it. Use as a context manager: the file
    appears at path, whole, when the block ends cleanly, and not at all
    otherwise."""

    def __init__(self, path: str, entries) -> None:
        header: dict[str, dict] = {}
        offset = 0
        for name, dtype, shape in sorted(entries, key=lambda e: e[0]):
            if name in header or name == "__metadata__":
                raise TensorStoreError(f"duplicate or reserved tensor name: {name}")
            if dtype not in _DTYPES:
                raise TensorStoreError(f"unknown dtype: {dtype} (tensor {name})")
            shape = [int(d) for d in shape]
            nbytes = math.prod(shape) * _DTYPES[dtype]
            header[name] = {"dtype": dtype, "shape": shape,
                            "data_offsets": [offset, offset + nbytes]}
            offset += nbytes
        hjson = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
        super().__init__(path, len(hjson).to_bytes(8, "little") + hjson)
        self.names = list(header)
        self._header = header
        self._written = 0
        self.work = _Workspace()

    def write(self, name: str, data) -> None:
        """Append tensor name, the next in header order, narrowed to its
        declared dtype piece by piece."""
        meta = self._next(name)
        x = np.asarray(data, dtype=np.float64)
        if list(x.shape) != meta["shape"]:
            raise TensorStoreError(f"shape mismatch (tensor {name}): declared "
                                   f"{meta['shape']}, given {list(x.shape)}")
        self.write_pieces(name, (x,))

    def write_pieces(self, name: str, pieces) -> None:
        """Append tensor name, the next in header order, from pieces: arrays
        whose row-major elements, one piece after another, are the tensor's.
        Each piece is narrowed and written before the next is taken, so the
        pieces can be made one at a time in one reused buffer. Elements past
        the declared size, or fewer than it, are a TensorStoreError."""
        meta = self._next(name)
        size = math.prod(meta["shape"])
        done = 0
        for piece in pieces:
            flat = np.asarray(piece, dtype=np.float64).reshape(-1)
            if done + flat.size > size:
                raise TensorStoreError(f"more than the declared {size} elements "
                                       f"(tensor {name})")
            for start in range(0, flat.size, _STREAM_ELEMS):
                part = flat[start:start + _STREAM_ELEMS]
                self.file.write(self._narrow(part, name, meta["dtype"]))
            done += flat.size
        if done < size:
            raise TensorStoreError(f"{done} of the declared {size} elements "
                                   f"(tensor {name})")
        self._written += 1

    def _next(self, name: str) -> dict:
        """The header entry of name, the next tensor to write."""
        if self._written == len(self.names) or name != self.names[self._written]:
            raise TensorStoreError(f"tensor {name} written out of header order")
        return self._header[name]

    def _narrow(self, piece: np.ndarray, name: str, dtype: str) -> np.ndarray:
        """piece as dtype's little-endian values, in a reused buffer. BF16
        keeps the high half of each float32, rounded to nearest even on the
        low 16 bits, in place on the float32 bits."""
        count = piece.size
        if dtype == "BF16":         # checked as the float32 it is rounded from
            values = self.work.take("f32", (count,), np.float32)
            limit = _BF16_LIMIT
        else:
            values = self.work.take("out", (count,), _NARROW[dtype])
            limit = math.inf
        # an overflow, or a signaling nan made quiet, is the error below
        with np.errstate(over="ignore", invalid="ignore"):
            np.copyto(values, piece, casting="same_kind")
        # a nan fails both comparisons
        if not (values.max() < limit and values.min() > -limit):
            raise TensorStoreError(f"non-finite values as {dtype} (tensor {name})")
        if dtype != "BF16":
            return values
        u32 = values.view(np.uint32)
        odd = self.work.take("odd", (count,), np.uint32)
        np.right_shift(u32, 16, out=odd)
        np.bitwise_and(odd, 1, out=odd)
        np.add(u32, odd, out=u32)
        np.add(u32, 0x7FFF, out=u32)
        np.right_shift(u32, 16, out=u32)
        out = self.work.take("out", (count,), "<u2")
        np.copyto(out, u32, casting="unsafe")
        return out

    def _complete(self) -> None:
        if self._written < len(self.names):
            raise TensorStoreError(f"tensor {self.names[self._written]} declared "
                                   "but not written")


def save_container(tset: TensorSet, path: str) -> None:
    """Inverse of ContainerReader: every tensor of tset through one
    ContainerWriter."""
    entries = tset.entries
    with ContainerWriter(path, [(n, e.dtype, e.shape) for n, e in entries.items()]) as out:
        for name in out.names:
            out.write(name, entries[name].data)


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
        _check_shape(self.shape, f"synth {self.distribution}")
        if self.distribution == "student_t" and not self.dof > 4:
            raise TensorStoreError("student_t needs dof > 4")
        if self.distribution == "lognormal_max_blocks" and len(self.shape) != 2:
            raise TensorStoreError("lognormal_max_blocks needs a 2-D shape")


class SynthTensor(TensorSource):
    """One tensor of a SynthSpec, drawn from its own generator, which its
    child SeedSequence seeds: read piece by piece (read) or whole
    (np.asarray), like a StoredTensor. A read that starts where the last one
    ended continues the draw; any other read restarts from the seed and
    draws forward to its start. So every read has the bits of the whole
    tensor drawn at once, in any order, and a pass in order draws each
    element once. The tensors of one synth_tensors call share its reused
    buffers.

    lognormal_max_blocks draws every row maximum first, one float per row,
    then whole body rows, each scaled to its maximum; a read that ends
    inside a row keeps the rest of that row for the next. After a read that
    ends the tensor, nothing of the draw is held."""

    def __init__(self, name: str, spec: SynthSpec, child: np.random.SeedSequence,
                 work: _Workspace) -> None:
        self.name, self.shape, self.spec, self.child = name, spec.shape, spec, child
        self.work = work
        self._rng = None            # the draw: None until a read starts it

    def read(self, start: int, count: int, out: np.ndarray | None = None) -> np.ndarray:
        """Elements [start, start + count) in row-major order, into out or
        into the reused buffer, which the next read overwrites."""
        values = self.work.take("values", (count,)) if out is None else out
        if self._rng is None or start < self._at:
            self._restart()
        while self._at < start:     # a skip draws what it passes over
            self._draw(self.work.take("skip", (min(_STREAM_ELEMS, start - self._at),)))
        self._draw(values)
        if self._at == self.size:
            self._rng = self._maxima = self._rest = None
        return values

    def _restart(self) -> None:
        self._rng = np.random.default_rng(self.child)
        self._at = 0
        self._rest = None           # the undelivered end of the last row drawn
        if self.spec.distribution == "lognormal_max_blocks":
            self._maxima = np.exp(self._rng.normal(0.0, self.spec.sigma_log,
                                                   size=self.shape[0]))
            self._row = 0

    def _draw(self, out: np.ndarray) -> None:
        """The next out.size elements of the draw, into out."""
        rng, spec = self._rng, self.spec
        if spec.distribution == "gaussian":
            rng.standard_normal(out=out)
        elif spec.distribution == "laplace":
            out[...] = rng.laplace(0.0, 1.0, size=out.size)
        elif spec.distribution == "student_t":
            out[...] = rng.standard_t(spec.dof, size=out.size)
        else:
            self._draw_rows(out)
        self._at += out.size

    def _draw_rows(self, out: np.ndarray) -> None:
        """lognormal_max_blocks: the rest of the last row, then whole rows,
        then the head of one more row, whose rest is kept."""
        b = self.shape[1]
        done = 0
        if self._rest is not None:
            done = min(self._rest.size, out.size)
            out[:done] = self._rest[:done]
            self._rest = self._rest[done:] if done < self._rest.size else None
        whole = (out.size - done) // b
        self._body_rows(out[done:done + whole * b].reshape(whole, b))
        done += whole * b
        if done < out.size:
            row = np.empty((1, b))
            self._body_rows(row)
            out[done:] = row[0, :out.size - done]
            self._rest = row[0, out.size - done:]

    def _body_rows(self, rows: np.ndarray) -> None:
        """The next rows of the body, uniform on (-1, 1), each scaled by its
        maximum over its largest magnitude."""
        if not rows.size:
            return
        rows[...] = self._rng.uniform(-1.0, 1.0, size=rows.shape)
        peak = np.abs(rows).max(axis=1)
        peak[peak == 0.0] = 1.0                 # measure-zero guard
        rows *= (self._maxima[self._row:self._row + rows.shape[0]] / peak)[:, None]
        self._row += rows.shape[0]


def synth_tensors(spec: SynthSpec) -> dict[str, SynthTensor]:
    """The tensors of spec as SynthTensors, read only when asked, sharing
    one set of reused buffers."""
    work = _Workspace()
    children = np.random.SeedSequence(spec.seed).spawn(spec.count)
    names = [f"{spec.distribution}_{i:04d}" for i in range(spec.count)]
    return {name: SynthTensor(name, spec, child, work)
            for name, child in zip(names, children)}
