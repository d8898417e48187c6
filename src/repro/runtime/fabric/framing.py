"""Wire format of the process fabric's control plane.

A *frame* is a self-describing byte string:

``magic(4) | kind(1) | header_len(u32) | header(json) | payload``

- ``kind == ND``: payload is the raw C-order bytes of one ndarray; the
  header carries ``dtype`` (string) and ``shape`` (list).  Encoding and
  decoding are exact for every dtype — the payload is ``tobytes()``, so
  a round-trip is bitwise identical.
- ``kind == OBJ``: payload is a pickle of an arbitrary Python object
  (rank results, exceptions, control messages).

The shm ring carries frames behind a u64 length prefix
(:func:`prefixed`); :class:`FrameAssembler` takes them back out of
whatever chunks the consumer drains.
"""

from __future__ import annotations

import json
import pickle
import struct

import numpy as np

from repro.utils.errors import CommunicatorError

#: Identifies a repro-fabric frame (and its version).
MAGIC = b"RFB1"

KIND_NDARRAY = 0x01
KIND_OBJECT = 0x02

_PREFIX = struct.Struct("<Q")  # u64 little-endian length prefix
_HEAD = struct.Struct("<4sBI")  # magic, kind, header_len


class FrameError(CommunicatorError):
    """A frame failed to parse (bad magic, truncation, unknown kind)."""


def encode_ndarray(arr: np.ndarray) -> bytes:
    """Encode one array as a self-describing frame (bitwise exact)."""
    arr = np.asarray(arr)
    shape = arr.shape  # before ascontiguousarray, which promotes 0-d to 1-d
    arr = np.ascontiguousarray(arr)
    header = json.dumps(
        {"dtype": arr.dtype.str, "shape": list(shape)},
        separators=(",", ":")).encode("ascii")
    return (_HEAD.pack(MAGIC, KIND_NDARRAY, len(header))
            + header + arr.tobytes())


def encode_object(obj: object) -> bytes:
    """Encode an arbitrary picklable object as a frame."""
    payload = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    return _HEAD.pack(MAGIC, KIND_OBJECT, 0) + payload


def decode(frame: bytes | memoryview) -> tuple[int, object]:
    """Decode one frame to ``(kind, value)``.

    ``value`` is an ndarray (owning its data — safe to keep after the
    backing buffer is reused) for ``KIND_NDARRAY`` frames, otherwise the
    unpickled object.
    """
    view = memoryview(frame)
    if len(view) < _HEAD.size:
        raise FrameError(f"frame truncated: {len(view)} bytes")
    magic, kind, header_len = _HEAD.unpack_from(view, 0)
    if magic != MAGIC:
        raise FrameError(f"bad frame magic {magic!r}")
    body = view[_HEAD.size:]
    if kind == KIND_NDARRAY:
        if len(body) < header_len:
            raise FrameError("ndarray frame header truncated")
        header = json.loads(bytes(body[:header_len]).decode("ascii"))
        dtype = np.dtype(header["dtype"])
        shape = tuple(header["shape"])
        payload = body[header_len:]
        expected = dtype.itemsize * int(np.prod(shape, dtype=np.int64))
        if len(payload) != expected:
            raise FrameError(
                f"ndarray payload is {len(payload)} bytes, "
                f"expected {expected} for {dtype} {shape}")
        arr = np.frombuffer(bytes(payload), dtype=dtype).reshape(shape)
        return KIND_NDARRAY, arr
    if kind == KIND_OBJECT:
        return KIND_OBJECT, pickle.loads(bytes(body))
    raise FrameError(f"unknown frame kind 0x{kind:02x}")


class FrameAssembler:
    """Reassemble u64-length-prefixed frames from an arbitrary byte feed.

    The shm ring's driver side drains bytes in whatever pieces the
    child has published; :meth:`feed` buffers partials and returns only
    complete frames, in order.
    """

    def __init__(self):
        self._buf = bytearray()

    def feed(self, data: bytes | memoryview) -> list[bytes]:
        self._buf += data
        frames: list[bytes] = []
        while len(self._buf) >= _PREFIX.size:
            (length,) = _PREFIX.unpack_from(self._buf, 0)
            if len(self._buf) < _PREFIX.size + length:
                break
            frames.append(bytes(self._buf[_PREFIX.size:_PREFIX.size + length]))
            del self._buf[:_PREFIX.size + length]
        return frames

    @property
    def pending_bytes(self) -> int:
        return len(self._buf)


def prefixed(frame: bytes) -> bytes:
    """One frame behind its u64 length prefix (the stream encoding)."""
    return _PREFIX.pack(len(frame)) + frame

