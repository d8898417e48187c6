"""Shared-memory primitives for the process fabric.

Two building blocks, both backed by :class:`multiprocessing.shared_memory
.SharedMemory` and designed for *fork* children — the child inherits the
parent's mapping, so no name-based re-attach (or pickling) is needed:

- :class:`SharedArrayPool` re-backs a set of ndarrays onto one shared
  block.  The trainer's :class:`~repro.runtime.buckets.GradientBucketer`
  flat buffers live here: a child rank ``pack()``-ing gradients writes
  straight into memory the driver reduces from — zero copies cross the
  process boundary.
- :class:`ShmRing` is a single-producer single-consumer byte ring with a
  seqlock-style handshake: the producer writes payload bytes first, then
  publishes them by storing a monotonically increasing ``tail`` counter;
  the consumer reads up to ``tail`` and publishes consumption through
  ``head``.  Each counter has exactly one writer, so the
  publish-after-write ordering is the only fence the protocol needs (and
  what CPython's bytecode boundaries plus x86-TSO store ordering give
  us).  Rings carry the control plane: per-rank result / error frames.
"""

from __future__ import annotations

import struct
import time
from multiprocessing import shared_memory

import numpy as np

from repro.runtime.fabric import framing
from repro.utils.errors import CommunicatorError

_ALIGN = 64  # cache-line align every array slice in a pool

_U64 = struct.Struct("<Q")

#: ring header layout: head(u64) | tail(u64) | closed(u8), padded
_HEAD_OFF = 0
_TAIL_OFF = 8
_CLOSED_OFF = 16
_DATA_OFF = 64


def _destroy(shm: shared_memory.SharedMemory) -> None:
    """Free a shared block, tolerating live numpy views.

    ``unlink`` drops the name (the memory itself dies with the last
    mapping); ``close`` raises ``BufferError`` while numpy views are
    alive, which is harmless — the mapping is reclaimed at process exit.
    """
    try:
        shm.unlink()
    except FileNotFoundError:
        pass
    try:
        shm.close()
    except BufferError:
        pass


class SharedArrayPool:
    """Re-back a list of ndarrays on one shared-memory block.

    The returned views preserve dtype, shape and initial contents; each
    slice is cache-line aligned so concurrent per-rank writers never
    share a line across pool instances.
    """

    def __init__(self, arrays: list[np.ndarray]):
        offsets: list[int] = []
        size = 0
        for arr in arrays:
            size = -(-size // _ALIGN) * _ALIGN  # round up
            offsets.append(size)
            size += int(arr.nbytes)
        self.shm = shared_memory.SharedMemory(create=True, size=max(size, 1))
        self.arrays: list[np.ndarray] = []
        for arr, off in zip(arrays, offsets):
            view = np.ndarray(arr.shape, dtype=arr.dtype,
                              buffer=self.shm.buf, offset=off)
            np.copyto(view, arr)
            self.arrays.append(view)

    def destroy(self) -> None:
        # Views into self.arrays may still be referenced by trainer
        # state; release ours first so close() has a chance to succeed.
        self.arrays = []
        _destroy(self.shm)


class RingClosed(CommunicatorError):
    """Write attempted on a ring whose producer already closed it."""


class ShmRing:
    """SPSC byte ring over shared memory, carrying length-prefixed frames.

    One process writes (the forked rank child), one reads (the driver).
    ``head``/``tail`` are free-running u64 byte counters — ``tail - head``
    bytes are readable, ``capacity - (tail - head)`` writable.  A writer
    that outruns the consumer blocks (spin + sleep) until space frees,
    so frames larger than the ring still flow as long as the consumer
    drains concurrently.
    """

    def __init__(self, capacity: int = 1 << 16):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = int(capacity)
        self.shm = shared_memory.SharedMemory(
            create=True, size=_DATA_OFF + self.capacity)
        self.shm.buf[:_DATA_OFF] = bytes(_DATA_OFF)
        self._assembler = framing.FrameAssembler()  # consumer side

    # -- counters (each has exactly one writing process) ----------------
    def _load(self, off: int) -> int:
        return _U64.unpack_from(self.shm.buf, off)[0]

    def _store(self, off: int, value: int) -> None:
        _U64.pack_into(self.shm.buf, off, value)

    @property
    def closed(self) -> bool:
        return self.shm.buf[_CLOSED_OFF] != 0

    def close_writer(self) -> None:
        """Producer side: publish that no more bytes are coming."""
        self.shm.buf[_CLOSED_OFF] = 1

    # -- producer -------------------------------------------------------
    def _write_bytes(self, data: bytes) -> None:
        mv = memoryview(data)
        tail = self._load(_TAIL_OFF)
        while mv:
            free = self.capacity - (tail - self._load(_HEAD_OFF))
            if free == 0:
                time.sleep(0.0002)
                continue
            pos = tail % self.capacity
            n = min(len(mv), free, self.capacity - pos)
            self.shm.buf[_DATA_OFF + pos:_DATA_OFF + pos + n] = mv[:n]
            mv = mv[n:]
            tail += n
            # Publish *after* the payload bytes are in place — the
            # consumer never reads past tail, so it can only observe
            # fully written data.
            self._store(_TAIL_OFF, tail)

    def write_frame(self, frame: bytes) -> None:
        """Write one u64-length-prefixed frame (blocks while full)."""
        if self.closed:
            raise RingClosed("ring writer already closed")
        self._write_bytes(framing.prefixed(frame))

    # -- consumer -------------------------------------------------------
    def drain(self) -> list[bytes]:
        """Consume available bytes; return any *complete* frames.

        Partial frames are buffered consumer-side and completed by later
        calls — safe to call in a polling loop.
        """
        frames: list[bytes] = []
        head = self._load(_HEAD_OFF)
        tail = self._load(_TAIL_OFF)
        while head != tail:
            pos = head % self.capacity
            n = min(tail - head, self.capacity - pos)
            frames += self._assembler.feed(
                self.shm.buf[_DATA_OFF + pos:_DATA_OFF + pos + n])
            head += n
            self._store(_HEAD_OFF, head)
        return frames

    def destroy(self) -> None:
        _destroy(self.shm)
