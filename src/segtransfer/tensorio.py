"""TNSR binary tensor container.

Layout, all little-endian, no padding:

    magic   4 bytes  b"TNSR"
    version u8       1
    dtype   u8       1 = float32, 2 = uint16, 3 = uint8
    ndim    u8       1..4
    dims    ndim x u32
    payload row-major, tightly packed

Writes are atomic (temp file + rename in the target directory).
"""

import functools
import json
import math
import os
import struct
import tempfile

import numpy as np

from .errors import TensorFormatError

MAGIC = b"TNSR"
VERSION = 1

DTYPE_F32 = 1
DTYPE_U16 = 2
DTYPE_U8 = 3

_CODE_TO_NP = {
    DTYPE_F32: np.dtype("<f4"),
    DTYPE_U16: np.dtype("<u2"),
    DTYPE_U8: np.dtype("u1"),
}
# implicit inference is exact: any other dtype needs a named code, whose conversion is checked
_NP_TO_CODE = {"float32": DTYPE_F32, "uint16": DTYPE_U16, "uint8": DTYPE_U8}


@functools.cache
def _new_file_mode() -> int:
    """0o666 less the umask, read once per process (reading it means setting it)."""
    umask = os.umask(0)
    os.umask(umask)
    return 0o666 & ~umask


def atomic_write_bytes(path, data: bytes) -> None:
    path = os.fspath(path)
    d = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-", suffix=".part")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        # mkstemp makes the file 0o600, and the rename would keep that
        os.chmod(tmp, _new_file_mode())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_json(path, doc) -> None:
    atomic_write_bytes(path, (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode())


def tensor_bytes(arr, dtype_code: int = None) -> bytes:
    arr = np.asarray(arr)
    if dtype_code is None:
        name = arr.dtype.name
        if name not in _NP_TO_CODE:
            raise TensorFormatError(f"no dtype code for {name}")
        dtype_code = _NP_TO_CODE[name]
    if dtype_code not in _CODE_TO_NP:
        raise TensorFormatError(f"unknown dtype code {dtype_code}")
    if not (1 <= arr.ndim <= 4):
        raise TensorFormatError(f"ndim must be 1..4, got {arr.ndim}")
    np_dtype = _CODE_TO_NP[dtype_code]
    cast_float = arr.dtype.kind == "f" and arr.dtype != np_dtype
    if np_dtype.kind == "u":
        # NaN != trunc(NaN), so this also rejects NaN
        if cast_float and np.any(arr != np.trunc(arr)):
            raise TensorFormatError(f"non-integral values for dtype code {dtype_code}")
        if np.any(arr < 0) or np.any(arr > np.iinfo(np_dtype).max):
            raise TensorFormatError(f"values out of range for dtype code {dtype_code}")
    with np.errstate(over="ignore"):  # overflow is detected below
        payload = np.ascontiguousarray(arr).astype(np_dtype, copy=False)
    if cast_float and np_dtype.kind == "f" and np.any(np.isinf(payload) & np.isfinite(arr)):
        raise TensorFormatError(f"finite values overflow dtype code {dtype_code}")
    header = MAGIC + struct.pack("<BBB", VERSION, dtype_code, arr.ndim)
    header += struct.pack(f"<{arr.ndim}I", *arr.shape)
    return header + payload.tobytes()


def write_tensor(path, arr, dtype_code: int = None) -> None:
    atomic_write_bytes(path, tensor_bytes(arr, dtype_code))


def read_tensor(path) -> np.ndarray:
    with open(path, "rb", buffering=0) as fh:  # no read buffer: one bytes object per file
        return tensor_from_bytes(fh.read())


def tensor_from_bytes(data: bytes) -> np.ndarray:
    if len(data) < 7 or data[:4] != MAGIC:
        raise TensorFormatError("bad magic")
    version, dtype_code, ndim = struct.unpack("<BBB", data[4:7])
    if version != VERSION:
        raise TensorFormatError(f"unsupported version {version}")
    if dtype_code not in _CODE_TO_NP:
        raise TensorFormatError(f"unknown dtype code {dtype_code}")
    if not (1 <= ndim <= 4):
        raise TensorFormatError(f"bad ndim {ndim}")
    hdr_end = 7 + 4 * ndim
    if len(data) < hdr_end:
        raise TensorFormatError("truncated header")
    dims = struct.unpack(f"<{ndim}I", data[7:hdr_end])
    np_dtype = _CODE_TO_NP[dtype_code]
    # math.prod, not np.prod: four u32 dims overflow int64
    expected = math.prod(dims) * np_dtype.itemsize
    if len(data) - hdr_end != expected:
        raise TensorFormatError(
            f"payload length {len(data) - hdr_end} != expected {expected}")
    return np.frombuffer(data, np_dtype, offset=hdr_end).reshape(dims).copy()  # no sliced copy
