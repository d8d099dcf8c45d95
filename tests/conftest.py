import json

import numpy as np
import pytest

_NARROW = {"F64": "<f8", "F32": "<f4", "F16": "<f2"}


def _reference_narrow(data: np.ndarray, dtype: str) -> bytes:
    """The whole-array encoder: each tensor narrowed in one pass; BF16 keeps
    the high half of the float32 bits, rounded to nearest even."""
    if dtype in _NARROW:
        return data.astype(_NARROW[dtype]).tobytes()
    u32 = data.astype(np.float32).view(np.uint32)
    rounded = (u32 + 0x7FFF + ((u32 >> 16) & 1)) >> 16
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
