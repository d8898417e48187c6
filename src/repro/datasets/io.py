"""Dataset persistence: save/load raw datasets as portable ``.npz`` files.

Lets users generate a synthetic dataset once and share it — the role the
PeMS HDF extracts play for the original pipelines.

**Format.**  One zip archive (the ``.npz`` layout, readable by ``np.load``)
of ``.npy`` members: ``signals``, ``timestamps``, ``coords``, the CSR
adjacency (``adj_data / adj_indices / adj_indptr / adj_shape``) and two
``uint8`` byte strings (``graph_name``, and ``spec`` as JSON).  Members are
*stored*, not deflated.  On sensor data deflate saves ~10% of the file and
costs an inflate pass on every load; more to the point, a stored member's
bytes sit in the file exactly as they sit in memory, so ``signals`` need not
be loaded at all: :func:`load_dataset_file` hands back a :class:`StoredArray`
that reads the rows a caller slices, and index-batching set-up
(:meth:`~repro.preprocessing.IndexDataset.from_dataset`, which reads
``signals[first:last]`` one block at a time) never holds the raw file in
memory.  Archives written by earlier versions (deflated members) still
load, through the same reader, eagerly.

**Verification.**  ``np.load`` checked each member's CRC-32 as it read it.
The lazy reader checks the ``signals`` member's size against its ``.npy``
header before allocating anything and its CRC-32 in one streamed pass
(1 MiB buffer) before :func:`load_dataset_file` returns; every unreadable
file raises :class:`~repro.utils.errors.DatasetFileError` naming the path.
"""

from __future__ import annotations

import json
import math
import os
import struct
import zipfile
import zlib
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from numpy.lib import format as npy

from repro.datasets.base import SpatioTemporalDataset
from repro.datasets.catalog import DatasetSpec
from repro.graph.adjacency import SensorGraph
from repro.utils.errors import DatasetFileError
from repro.utils.files import ARCHIVE_ERRORS, savez_atomic

#: Largest buffer the streamed CRC-32 pass holds.
_CHUNK = 1 << 20
#: Zip local file header: signature, version, flags, method, time, date,
#: CRC-32, compressed size, size, name length, extra-field length.
_LOCAL_HEADER = struct.Struct("<4s5H3L2H")


def _stamp(f) -> tuple[int, int]:
    st = os.fstat(f.fileno())
    return st.st_size, st.st_mtime_ns


def _read_at(f, pos: int, buf) -> None:
    """Fill ``buf`` from byte ``pos`` of the unbuffered file ``f``."""
    view = memoryview(buf)
    f.seek(pos)
    got = 0
    while got < len(view):
        n = f.readinto(view[got:])
        if not n:
            raise EOFError(f"file ends {len(view) - got} bytes short")
        got += n


@dataclass(frozen=True)
class StoredArray:
    """A read-only array whose bytes stay in a file: one stored
    (uncompressed, C-ordered) ``.npy`` member of a dataset archive.

    Offers what :class:`~repro.datasets.base.SpatioTemporalDataset` asks of
    ``signals``: ``shape / dtype / ndim / nbytes``, ``len()``, leading-axis
    slices that return ordinary arrays holding just those rows, and
    ``__array__`` for whole-array consumers.  Each read opens the file,
    reads at the rows' offset into a fresh buffer and closes it again.  A
    long-lived ``np.memmap`` would not do: the file pages it touches count
    in the process's resident set just as a loaded copy does.  Holding only
    a path and numbers, it survives ``pickle``, ``deepcopy`` and ``fork``.
    """

    path: str
    #: byte offset of the first element in the file
    offset: int
    shape: tuple[int, ...]
    dtype: np.dtype
    #: the file's size and mtime when it was verified
    stamp: tuple[int, int]

    @property
    def ndim(self) -> int:
        return len(self.shape)

    @property
    def nbytes(self) -> int:
        return math.prod(self.shape) * self.dtype.itemsize

    def __len__(self) -> int:
        return self.shape[0]

    def __getitem__(self, key) -> np.ndarray:
        if not (isinstance(key, slice) and key.step in (None, 1)):
            return np.asarray(self)[key]
        first, last, _ = key.indices(len(self))
        out = np.empty((max(last - first, 0),) + self.shape[1:], self.dtype)
        row_nbytes = math.prod(self.shape[1:]) * self.dtype.itemsize
        try:
            with open(self.path, "rb", buffering=0) as f:
                if _stamp(f) != self.stamp:
                    raise ValueError("the file changed after it was loaded")
                _read_at(f, self.offset + first * row_nbytes,
                         out.reshape(-1).view(np.uint8))
        except ARCHIVE_ERRORS as exc:
            raise _unreadable(self.path, exc) from exc
        return out

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        if copy is False:
            raise ValueError("a file-backed array is always read into a copy")
        return self[:].astype(self.dtype if dtype is None else dtype,
                              copy=False)


def _unreadable(path: str, exc: Exception) -> DatasetFileError:
    if isinstance(exc, FileNotFoundError):
        return DatasetFileError(f"dataset file {path!r} does not exist")
    return DatasetFileError(
        f"dataset file {path!r} is corrupted, truncated or not a dataset "
        f"archive ({type(exc).__name__}: {exc})")


def save_dataset(path: str, dataset: SpatioTemporalDataset) -> None:
    """Write signals, graph and spec to one ``.npz``-format archive at
    exactly ``path``, whatever its suffix (format: module docstring).

    The write is atomic (:func:`~repro.utils.files.savez_atomic`): a save
    that fails part-way leaves the previous file at ``path`` intact."""
    w = dataset.graph.weights.tocsr()
    spec_json = json.dumps({
        "name": dataset.spec.name,
        "domain": dataset.spec.domain,
        "feature_names": list(dataset.spec.feature_names),
        "num_nodes": dataset.spec.num_nodes,
        "num_entries": dataset.spec.num_entries,
        "raw_features": dataset.spec.raw_features,
        "horizon": dataset.spec.horizon,
        "interval_minutes": dataset.spec.interval_minutes,
    })
    arrays = dict(
        # C order is what StoredArray's row offsets assume.
        signals=np.ascontiguousarray(dataset.signals),
        timestamps=dataset.timestamps,
        coords=dataset.graph.coords,
        adj_data=w.data, adj_indices=w.indices, adj_indptr=w.indptr,
        adj_shape=np.array(w.shape),
        graph_name=np.frombuffer(dataset.graph.name.encode(), dtype=np.uint8),
        spec=np.frombuffer(spec_json.encode(), dtype=np.uint8))
    savez_atomic(path, arrays)


def _read_member(f, zf: zipfile.ZipFile, stamp: tuple[int, int], name: str,
                 lazy_path: str | None = None):
    """Member ``name`` of the open archive, verified: an ndarray, or, for a
    stored member when ``lazy_path`` (the archive's path) is given, a
    :class:`StoredArray` over its bytes."""
    info = zf.getinfo(name + ".npy")
    stored = info.compress_type == zipfile.ZIP_STORED
    if not stored and info.compress_type != zipfile.ZIP_DEFLATED:
        raise ValueError(f"member {name!r}: unsupported compression method")
    if info.header_offset + info.compress_size > stamp[0]:
        raise ValueError(f"member {name!r}: lies beyond the end of the file")
    with zf.open(info) as member:
        version = npy.read_magic(member)
        if version not in ((1, 0), (2, 0)):
            raise ValueError(f"member {name!r}: unsupported .npy version")
        shape, fortran_order, dtype = (
            npy.read_array_header_1_0 if version == (1, 0)
            else npy.read_array_header_2_0)(member)
        header_len = member.tell()
        if dtype.hasobject:
            raise ValueError(f"member {name!r}: holds pickled objects")
        # The sizes must agree before anything is allocated from them: the
        # .npy header's with the directory's, and the directory's with the
        # bytes present (checked above; deflate expands at most 1032 times).
        nbytes = math.prod(shape) * dtype.itemsize
        if (min(shape, default=0) < 0
                or info.file_size != header_len + nbytes
                or info.file_size > info.compress_size * (1 if stored else 1032)):
            raise ValueError(f"member {name!r}: .npy header and zip directory "
                             f"sizes disagree")
        if lazy_path is None or not stored or fortran_order:
            member.seek(0)
            return npy.read_array(member)    # checks the CRC-32 at its end
    # The member's first byte, from the local file header itself (the
    # central directory does not record the local extra field's length).
    local = bytearray(_LOCAL_HEADER.size)
    _read_at(f, info.header_offset, local)
    signature, *_, name_len, extra_len = _LOCAL_HEADER.unpack(local)
    if signature != b"PK\x03\x04":
        raise ValueError(f"member {name!r}: bad local file header")
    start = info.header_offset + len(local) + name_len + extra_len
    end = start + info.file_size
    buf = memoryview(bytearray(min(_CHUNK, info.file_size)))
    crc = 0
    for pos in range(start, end, _CHUNK):
        part = buf[: end - pos]
        _read_at(f, pos, part)
        crc = zlib.crc32(part, crc)
    if crc != info.CRC:
        raise ValueError(f"member {name!r}: bad CRC-32")
    return StoredArray(os.path.abspath(lazy_path), start + header_len, shape,
                       dtype, stamp)


def load_dataset_file(path: str) -> SpatioTemporalDataset:
    """Inverse of :func:`save_dataset`.

    ``signals`` of the result is file-backed (a :class:`StoredArray`) when
    the archive stores it uncompressed, as :func:`save_dataset` writes it;
    everything else, and ``signals`` of an archive with deflated members,
    is read into memory.  Raises
    :class:`~repro.utils.errors.DatasetFileError` (naming ``path``) when the
    file is missing, truncated, corrupted or not a dataset archive.
    """
    try:
        with open(path, "rb", buffering=0) as f, zipfile.ZipFile(f) as zf:
            stamp = _stamp(f)

            def member(name, **kw):
                return _read_member(f, zf, stamp, name, **kw)

            spec_dict = json.loads(bytes(member("spec")).decode())
            spec = DatasetSpec(
                name=spec_dict["name"], domain=spec_dict["domain"],
                feature_names=tuple(spec_dict["feature_names"]),
                num_nodes=spec_dict["num_nodes"],
                num_entries=spec_dict["num_entries"],
                raw_features=spec_dict["raw_features"],
                horizon=spec_dict["horizon"],
                interval_minutes=spec_dict["interval_minutes"])
            weights = sp.csr_matrix(
                (member("adj_data"), member("adj_indices"),
                 member("adj_indptr")),
                shape=tuple(member("adj_shape")))
            graph = SensorGraph(coords=member("coords"), weights=weights,
                                name=bytes(member("graph_name")).decode())
            return SpatioTemporalDataset(
                signals=member("signals", lazy_path=path), graph=graph,
                spec=spec,
                timestamps=member("timestamps"))
    except ARCHIVE_ERRORS as exc:
        raise _unreadable(path, exc) from exc
