import json

import numpy as np
import pytest

from mxblock.tensorstore import ContainerReader

_NARROW = {"F64": "<f8", "F32": "<f4", "F16": "<f2"}


def _reference_narrow(data: np.ndarray, dtype: str) -> bytes:
    """The whole-array encoder: each tensor narrowed in one pass; BF16 keeps
    the high half of the float32 bits, rounded to nearest even, and a NaN
    stays a NaN: rounding its payload can carry into the exponent and the
    sign (0x7FFFFFFF would become -0.0)."""
    if dtype in _NARROW:
        return data.astype(_NARROW[dtype]).tobytes()
    f32 = data.astype(np.float32)
    u32 = f32.view(np.uint32)
    rounded = (u32 + 0x7FFF + ((u32 >> 16) & 1)) >> 16
    rounded = np.where(np.isnan(f32), (u32 >> 16) | 0x40, rounded)
    return rounded.astype("<u2").tobytes()


def _reference_container_bytes(tensors: dict) -> bytes:
    """A container of {name: (float64 data, dtype)}: header keys sorted by
    name, data packed in the same order with no gaps. Nothing is checked,
    so it also writes the non-finite values mxblock's writer refuses."""
    header, chunks, offset = {}, [], 0
    for name in sorted(tensors):
        data, dtype = tensors[name]
        data = np.asarray(data, dtype=np.float64)
        with np.errstate(over="ignore"):
            raw = _reference_narrow(data, dtype)
        header[name] = {"dtype": dtype, "shape": list(data.shape),
                        "data_offsets": [offset, offset + len(raw)]}
        chunks.append(raw)
        offset += len(raw)
    hjson = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return len(hjson).to_bytes(8, "little") + hjson + b"".join(chunks)


@pytest.fixture
def reference_container():
    """_reference_container_bytes: the reference for the streamed writer's
    bytes, and the way to hand the reader values that writer refuses."""
    return _reference_container_bytes


def read_arrays(path: str) -> dict:
    """Every tensor of the container at path as a float64 array, in header
    order: np.asarray of each of ContainerReader's StoredTensors."""
    with ContainerReader(path) as reader:
        return {name: np.asarray(t) for name, t in reader.tensors.items()}


def joined(pieces) -> np.ndarray:
    """The elements of pieces, one piece after another, as one new 1-D array;
    each piece is copied before the next is made, so it may be a reused
    buffer."""
    return np.concatenate([np.array(p, dtype=np.float64).ravel() for p in pieces])
