"""Tests for dataset save/load round-trips and the file-backed reader."""

import copy
import io
import json
import os
import pickle
import re
import subprocess
import sys
import tracemalloc
import zipfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.api.builders  # noqa: F401  (registers BATCHINGS)
from repro.api.registry import BATCHINGS
from repro.datasets import load_dataset
from repro.datasets.io import StoredArray, load_dataset_file, save_dataset
from repro.preprocessing import IndexDataset
from repro.utils.errors import DatasetFileError, ReproError


class TestDatasetIO:
    def test_roundtrip_preserves_everything(self, tmp_path):
        ds = load_dataset("pems-bay", nodes=12, entries=150, seed=8)
        path = str(tmp_path / "ds.npz")
        save_dataset(path, ds)
        loaded = load_dataset_file(path)
        np.testing.assert_array_equal(loaded.signals, ds.signals)
        np.testing.assert_array_equal(loaded.timestamps, ds.timestamps)
        np.testing.assert_array_equal(loaded.graph.coords, ds.graph.coords)
        assert (loaded.graph.weights != ds.graph.weights).nnz == 0
        assert loaded.spec == ds.spec
        assert loaded.graph.name == ds.graph.name

    def test_loaded_dataset_preprocesses_identically(self, tmp_path):
        ds = load_dataset("metr-la", nodes=8, entries=120, seed=2)
        path = str(tmp_path / "metr.npz")
        save_dataset(path, ds)
        loaded = load_dataset_file(path)
        a = IndexDataset.from_dataset(ds)
        b = IndexDataset.from_dataset(loaded)
        np.testing.assert_array_equal(a.data, b.data)
        np.testing.assert_array_equal(a.starts, b.starts)

    def test_epidemic_domain_roundtrip(self, tmp_path):
        ds = load_dataset("chickenpox-hungary", nodes=6, entries=60, seed=1)
        path = str(tmp_path / "chick.npz")
        save_dataset(path, ds)
        loaded = load_dataset_file(path)
        assert loaded.spec.domain == "epidemiological"
        np.testing.assert_array_equal(loaded.signals, ds.signals)

    @pytest.mark.parametrize("name", ["ds", "ds.npz", "ds.v2.dat"])
    def test_writes_exactly_the_path_given(self, tmp_path, name):
        # np.savez given a *path* appends ".npz" to any other suffix, so
        # save_dataset("x") used to write "x.npz" and load_dataset_file("x")
        # raised FileNotFoundError.
        ds = load_dataset("pems-bay", nodes=5, entries=60, seed=3)
        path = str(tmp_path / name)
        save_dataset(path, ds)
        assert [p.name for p in tmp_path.iterdir()] == [name]
        loaded = load_dataset_file(path)
        np.testing.assert_array_equal(loaded.signals, ds.signals)
        assert loaded.spec == ds.spec

    def test_a_failed_save_leaves_the_old_file(self, tmp_path, monkeypatch):
        """A save that dies part-way leaves the previous archive loading
        bit for bit, and no temp file beside it."""
        old = load_dataset("pems-bay", nodes=5, entries=60, seed=3)
        path = tmp_path / "ds.npz"
        save_dataset(str(path), old)
        before = path.read_bytes()

        def savez(file, **arrays):
            file.write(b"PK\x03\x04 half an archive")
            raise OSError("disk full")

        monkeypatch.setattr(np, "savez", savez)
        with pytest.raises(OSError, match="disk full"):
            save_dataset(str(path), load_dataset("pems-bay", nodes=5,
                                                 entries=60, seed=4))
        assert [p.name for p in tmp_path.iterdir()] == ["ds.npz"]
        assert path.read_bytes() == before
        _same_dataset(load_dataset_file(str(path)), old)

    def test_members_are_stored_and_np_load_still_reads_them(self, tmp_path):
        ds = load_dataset("pems-bay", nodes=5, entries=60, seed=3)
        path = str(tmp_path / "ds.npz")
        save_dataset(path, ds)
        with zipfile.ZipFile(path) as zf:
            assert {i.compress_type for i in zf.infolist()} == {
                zipfile.ZIP_STORED}
        with np.load(path) as archive:
            np.testing.assert_array_equal(archive["signals"], ds.signals)


def _members(path) -> dict[str, bytes]:
    """The raw ``.npy`` bytes of every member of an archive."""
    with zipfile.ZipFile(path) as zf:
        return {name: zf.read(name) for name in zf.namelist()}


def _write_members(path, members, compression=zipfile.ZIP_STORED) -> None:
    """Write an archive with plain ``zipfile`` (valid sizes and CRCs; no
    zip64 extra field in the local headers, unlike ``np.savez``)."""
    with zipfile.ZipFile(path, "w", compression) as zf:
        for name, blob in members.items():
            zf.writestr(name, blob)


def _same_dataset(loaded, ds) -> None:
    assert loaded.signals.dtype == ds.signals.dtype
    assert np.asarray(loaded.signals).tobytes() == ds.signals.tobytes()
    assert loaded.signals.shape == ds.signals.shape
    assert loaded.timestamps.tobytes() == ds.timestamps.tobytes()
    assert loaded.graph.coords.tobytes() == ds.graph.coords.tobytes()
    assert (loaded.graph.weights != ds.graph.weights).nnz == 0
    assert loaded.spec == ds.spec and loaded.graph.name == ds.graph.name


class TestStoredArray:
    @pytest.fixture(scope="class")
    def pair(self, tmp_path_factory):
        ds = load_dataset("pems-bay", nodes=9, entries=130, seed=5)
        path = str(tmp_path_factory.mktemp("stored") / "ds.npz")
        save_dataset(path, ds)
        return ds.signals, load_dataset_file(path).signals

    def test_describes_the_saved_array(self, pair):
        saved, stored = pair
        assert isinstance(stored, StoredArray)
        assert (stored.shape, stored.dtype, stored.ndim, stored.nbytes) == (
            saved.shape, saved.dtype, saved.ndim, saved.nbytes)
        assert len(stored) == len(saved) == 130

    @pytest.mark.parametrize("a, b", [
        (0, 0), (7, 7), (130, 130),         # empty
        (0, 1), (129, 130), (100, 130),     # first row, last row, last block
        (0, 130), (None, None),             # whole range
        (-5, None), (120, 500), (50, 20),   # what ndarray slicing also takes
    ])
    def test_leading_axis_slices_equal_the_saved_rows(self, pair, a, b):
        saved, stored = pair
        got = stored[a:b]
        assert type(got) is np.ndarray and got.flags.writeable
        assert got.dtype == saved.dtype and got.shape == saved[a:b].shape
        assert got.tobytes() == saved[a:b].tobytes()

    def test_whole_array_conversion(self, pair):
        saved, stored = pair
        whole = np.asarray(stored)
        assert whole.dtype == saved.dtype
        assert whole.tobytes() == saved.tobytes()
        as_f32 = np.array(stored, dtype=np.float32)
        assert as_f32.tobytes() == saved.astype(np.float32).tobytes()
        np.testing.assert_array_equal(stored, saved)
        with pytest.raises(ValueError, match="copy"):
            stored.__array__(copy=False)

    @pytest.mark.parametrize("key", [3, -1, slice(0, 130, 7),
                                     (slice(2, 9), 0), [4, 1, 4]])
    def test_any_other_key_reads_through_the_whole_array(self, pair, key):
        saved, stored = pair
        np.testing.assert_array_equal(stored[key], saved[key])

    def test_survives_pickle_and_deepcopy_and_holds_no_descriptor(
            self, tmp_path):
        ds = load_dataset("pems-bay", nodes=6, entries=80, seed=1)
        path = str(tmp_path / "ds.npz")
        save_dataset(path, ds)
        loaded = load_dataset_file(path)
        for twin in (pickle.loads(pickle.dumps(loaded)),
                     copy.deepcopy(loaded)):
            _same_dataset(twin, ds)
        # Nothing keeps the file open: it can be removed (also on
        # platforms that refuse to unlink an open file), after which a
        # read names the path instead of serving stale bytes.
        os.remove(path)
        with pytest.raises(DatasetFileError, match=re.escape(repr(path))):
            loaded.signals[0:1]

    @pytest.mark.parametrize("writer", ["np.savez", "zipfile", "deflated"])
    def test_offset_comes_from_the_local_header(self, tmp_path, writer):
        """``np.savez`` writes a 20-byte zip64 extra field into each local
        header, plain ``zipfile`` writes none; the data offset has to come
        out right for both (and on every Python version: nothing here
        reads ``ZipExtFile`` internals)."""
        ds = load_dataset("pems-bay", nodes=6, entries=80, seed=1)
        path = str(tmp_path / "ds.npz")
        save_dataset(path, ds)
        if writer != "np.savez":
            _write_members(path, _members(path),
                           zipfile.ZIP_DEFLATED if writer == "deflated"
                           else zipfile.ZIP_STORED)
        signals = load_dataset_file(path).signals
        if writer == "deflated":        # nothing on disk to point at
            assert type(signals) is np.ndarray
        else:
            with open(path, "rb") as f:
                blob = f.read()
            at = signals.offset
            assert blob[at: at + signals.nbytes] == ds.signals.tobytes()
            assert blob.count(ds.signals.tobytes()) == 1
        np.testing.assert_array_equal(signals, ds.signals)

    def test_a_file_rewritten_after_load_is_refused(self, tmp_path):
        a = load_dataset("pems-bay", nodes=6, entries=80, seed=1)
        b = load_dataset("pems-bay", nodes=6, entries=80, seed=2)
        path = str(tmp_path / "ds.npz")
        save_dataset(path, a)
        loaded = load_dataset_file(path)
        save_dataset(path, b)       # same size, other values
        os.utime(path, ns=(0, 0))
        with pytest.raises(DatasetFileError, match="changed after"):
            loaded.signals[0:4]

    def test_saving_over_the_file_a_dataset_is_backed_by(self, tmp_path):
        ds = load_dataset("pems-bay", nodes=6, entries=80, seed=1)
        path = str(tmp_path / "ds.npz")
        save_dataset(path, ds)
        save_dataset(path, load_dataset_file(path))
        _same_dataset(load_dataset_file(path), ds)


BIT_CASES = [
    ("pems-bay", 7, 130),               # traffic, below one block
    ("pems-bay", 48, 1500),             # traffic, several blocks
    ("chickenpox-hungary", 8, 100),     # single feature, below one block
    ("windmill-large", 30, 3000),       # single feature, several blocks
]


class TestLoadedBits:
    """Building from a file gives the bits building from memory gives."""

    @pytest.mark.parametrize("store_dtype", [None, np.float32, "float16"])
    @pytest.mark.parametrize("name, nodes, entries", BIT_CASES)
    def test_index_build_from_a_file_equals_the_in_memory_build(
            self, tmp_path, name, nodes, entries, store_dtype):
        ds = load_dataset(name, nodes=nodes, entries=entries, seed=4)
        path = str(tmp_path / "ds.npz")
        save_dataset(path, ds)
        loaded = load_dataset_file(path)
        assert isinstance(loaded.signals, StoredArray)
        want = IndexDataset.from_dataset(ds, store_dtype=store_dtype)
        got = IndexDataset.from_dataset(loaded, store_dtype=store_dtype)
        assert got.data.dtype == want.data.dtype
        assert got.data.tobytes() == want.data.tobytes()
        assert got.starts.tobytes() == want.starts.tobytes()
        assert got.scaler.mean_.tobytes() == want.scaler.mean_.tobytes()
        assert got.scaler.std_.tobytes() == want.scaler.std_.tobytes()

    @pytest.mark.parametrize("name, nodes, entries", BIT_CASES[::2])
    def test_base_batching_from_a_file_equals_the_in_memory_one(
            self, tmp_path, name, nodes, entries):
        ds = load_dataset(name, nodes=nodes, entries=entries, seed=4)
        path = str(tmp_path / "ds.npz")
        save_dataset(path, ds)
        want = BATCHINGS.get("base")(ds, 12, 8).train
        got = BATCHINGS.get("base")(load_dataset_file(path), 12, 8).train
        sel = np.arange(8)
        for a, b in zip(got.batch_at(sel), want.batch_at(sel)):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        assert len(got) == len(want)

    def test_an_archive_in_the_previous_format_loads_to_the_same_bits(
            self, tmp_path):
        """Earlier versions wrote ``np.savez_compressed``; those files go
        through the same reader and come back as ordinary arrays."""
        ds = load_dataset("pems-bay", nodes=48, entries=1500, seed=4)
        new, old = str(tmp_path / "new.npz"), str(tmp_path / "old.npz")
        save_dataset(new, ds)
        with np.load(new) as archive, open(old, "wb") as f:
            np.savez_compressed(f, **archive)
        loaded = load_dataset_file(old)
        assert type(loaded.signals) is np.ndarray
        _same_dataset(loaded, ds)
        a, b = IndexDataset.from_dataset(ds), IndexDataset.from_dataset(loaded)
        assert a.data.tobytes() == b.data.tobytes()


# Fresh interpreter: the peak resident set is a high-water mark of the whole
# process.  Read as VmHWM, which starts over at exec; ru_maxrss is the same
# quantity but a child inherits it from the process that forked it, and
# pytest is larger than anything measured here.
# argv: file, then how `signals` is held during the build.
_SET_UP_RSS_PROBE = """
import json, sys
import numpy as np
import repro.api.builders
from repro.api.registry import BATCHINGS
from repro.datasets.io import load_dataset_file

def rss():
    with open("/proc/self/status") as f:
        return next(int(line.split()[1]) * 1024
                    for line in f if line.startswith("VmHWM"))

path, mode = sys.argv[1:]
before = rss()
ds = load_dataset_file(path)
raw = ds.signals.nbytes
if mode == "in-memory":         # what load_dataset_file used to return
    ds.signals = np.asarray(ds.signals)
elif mode == "memmap":          # one long-lived mapping of the member
    s = ds.signals
    ds.signals = np.memmap(path, s.dtype, "r", s.offset, s.shape)
loader = BATCHINGS.get("index")(ds, 12, 64).train
x, y = loader.batch_at(np.arange(64))
print(json.dumps({"growth": rss() - before, "raw": raw,
                  "resident": loader.ds.resident_nbytes,
                  "checksum": float(x.sum() + y.sum())}))
"""


@pytest.mark.skipif(sys.platform != "linux",
                    reason="reads the peak resident set from /proc")
class TestSetUpRss:
    """The memory contract of a file-backed dataset, on the resident set:
    loading 325 x 6,000 (raw 15.6 MB), building its index form and
    gathering one batch grows the process by at most resident + raw / 2.
    ``TestSetUpPeak`` (tracemalloc) cannot stand in for this: it sees
    neither a loaded file's bytes before tracing starts nor a mapping's
    pages at all."""

    @pytest.fixture(scope="class")
    def path(self, tmp_path_factory):
        path = str(tmp_path_factory.mktemp("rss") / "ds.npz")
        save_dataset(path, load_dataset("pems-bay", nodes=325, entries=6000,
                                        seed=0))
        return path

    @staticmethod
    def _probe(path, mode):
        done = subprocess.run(
            [sys.executable, "-c", _SET_UP_RSS_PROBE, path, mode],
            capture_output=True, text=True, timeout=120,
            env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)))
        assert done.returncode == 0, done.stderr
        return json.loads(done.stdout)

    @pytest.fixture(scope="class")
    def file_backed(self, path):
        return self._probe(path, "file-backed")

    def test_set_up_never_holds_the_raw_file(self, file_backed):
        run = file_backed
        assert run["raw"] == 325 * 6000 * 8
        assert run["growth"] <= run["resident"] + run["raw"] // 2, run

    @pytest.mark.parametrize("mode", ["in-memory", "memmap"])
    def test_the_contract_bites(self, path, file_backed, mode):
        """Holding the raw array, or mapping the member once and slicing
        the mapping, both put raw + resident in the resident set."""
        run = self._probe(path, mode)
        assert run["growth"] > run["resident"] + run["raw"] // 2, run
        assert run["checksum"] == file_backed["checksum"]


def _small_file(tmp_path):
    ds = load_dataset("pems-bay", nodes=4, entries=50, seed=3)
    path = str(tmp_path / "small.npz")
    save_dataset(path, ds)
    with open(path, "rb") as f:
        return ds, path, f.read()


def _claiming(npy_blob: bytes, shape: tuple) -> bytes:
    """The same ``.npy`` data under a header that claims ``shape``."""
    with io.BytesIO(npy_blob) as fp:
        np.lib.format.read_magic(fp)
        _, fortran_order, dtype = np.lib.format.read_array_header_1_0(fp)
        data = fp.read()
    with io.BytesIO() as fp:
        np.lib.format.write_array_header_1_0(fp, {
            "descr": np.lib.format.dtype_to_descr(dtype),
            "fortran_order": fortran_order, "shape": shape})
        return fp.getvalue() + data


class TestUnreadableFiles:
    """Every way a dataset file can be unreadable raises one error type
    that names the path (run with ``-rP`` to read the messages)."""

    @staticmethod
    def _flip(blob, member_data):
        at = blob.index(member_data[8:24])
        return blob[:at] + bytes([blob[at] ^ 0x10]) + blob[at + 1:]

    @staticmethod
    def _npy(array):
        with io.BytesIO() as fp:
            np.save(fp, array, allow_pickle=True)
            return fp.getvalue()

    #: damage -> new file bytes from (old bytes, dataset), or new members
    #: from the old members (written back as a valid archive).
    BYTES = {
        "truncated": lambda blob, ds: blob[: len(blob) // 2],
        "garbage": lambda blob, ds: bytes(range(256)) * 8,
        "empty": lambda blob, ds: b"",
        "byte flipped in signals": lambda blob, ds: (
            TestUnreadableFiles._flip(blob, ds.signals.tobytes())),
        "byte flipped in timestamps": lambda blob, ds: (
            TestUnreadableFiles._flip(blob, ds.timestamps.tobytes())),
    }
    MEMBERS = {
        "member missing": lambda m: {
            k: v for k, v in m.items() if k != "timestamps.npy"},
        "shape claims 10**12 elements": lambda m: {
            **m, "signals.npy": _claiming(m["signals.npy"],
                                          (10**6, 10**3, 10**3))},
        # header, directory and CRC-32 all agree; the dataset does not
        "shape regrouped": lambda m: {
            **m, "signals.npy": _claiming(m["signals.npy"], (25, 4, 2))},
        "object dtype": lambda m: {
            **m, "coords.npy": TestUnreadableFiles._npy(
                np.array([{"a": 1}], dtype=object))},
        "spec is not a JSON object": lambda m: {
            **m, "spec.npy": TestUnreadableFiles._npy(
                np.frombuffer(b"[1, 2]", np.uint8))},
    }

    @pytest.mark.parametrize("damage", [*BYTES, *MEMBERS, "file missing"])
    def test_typed_error_names_the_path(self, tmp_path, damage):
        ds, path, blob = _small_file(tmp_path)
        if damage in self.BYTES:
            with open(path, "wb") as f:
                f.write(self.BYTES[damage](blob, ds))
        elif damage in self.MEMBERS:
            _write_members(path, self.MEMBERS[damage](_members(path)))
        else:
            os.remove(path)
        with pytest.raises(DatasetFileError) as caught:
            load_dataset_file(path)
        assert isinstance(caught.value, ReproError)
        assert repr(path) in str(caught.value)
        print(f"{damage}: {str(caught.value).replace(str(tmp_path), '<tmp>')}")

    def test_the_streamed_crc_pass_reaches_the_last_chunk(self, tmp_path):
        """A small member's CRC-32 is checked by ``zipfile`` as a side
        effect of reading its header; past a few KiB only the loader's own
        pass (1 MiB at a time; this member takes three) stands guard."""
        ds = load_dataset("pems-bay", nodes=64, entries=5000, seed=3)
        path = str(tmp_path / "ds.npz")
        save_dataset(path, ds)
        at = load_dataset_file(path).signals.offset + ds.signals.nbytes - 1
        with open(path, "r+b") as f:
            f.seek(at)
            last = f.read(1)
            f.seek(at)
            f.write(bytes([last[0] ^ 0x01]))
        with pytest.raises(DatasetFileError, match="bad CRC-32"):
            load_dataset_file(path)

    def test_a_lying_header_is_rejected_before_anything_is_allocated(
            self, tmp_path):
        _, path, blob = _small_file(tmp_path)
        members = _members(path)
        for name in ("signals.npy", "timestamps.npy"):
            lying = dict(members)
            lying[name] = _claiming(members[name], (10**12,))
            for compression in (zipfile.ZIP_STORED, zipfile.ZIP_DEFLATED):
                _write_members(path, lying, compression)
                tracemalloc.start()
                with pytest.raises(DatasetFileError, match="sizes disagree"):
                    load_dataset_file(path)
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
                assert peak < len(blob) + ALLOCATION_SLACK


#: Python-level allocations of one small load (zipfile, json, scipy) that
#: are not buffers sized from the file: ~35 KB measured.
ALLOCATION_SLACK = 256 * 1024


class TestHostileInput:
    """Fuzz of the loader: a damaged file yields either the original
    dataset, bit for bit, or ``DatasetFileError``: no other exception,
    no hang, no allocation sized from a number the file made up."""

    @pytest.fixture(scope="class")
    def small(self, tmp_path_factory):
        return _small_file(tmp_path_factory.mktemp("hostile"))

    @pytest.fixture(scope="class")
    def deflated(self, small):
        """The same archive as earlier versions wrote it."""
        _, path, blob = small
        with zipfile.ZipFile(io.BytesIO(blob)) as zf, io.BytesIO() as out:
            _write_members(out, {n: zf.read(n) for n in zf.namelist()},
                           zipfile.ZIP_DEFLATED)
            return out.getvalue()

    @staticmethod
    def _load_or_refuse(ds, path, blob=None):
        if blob is not None:
            with open(path, "wb") as f:
                f.write(blob)
        size = os.path.getsize(path)
        tracemalloc.start()
        try:
            _same_dataset(load_dataset_file(path), ds)
        except DatasetFileError as exc:
            assert repr(path) in str(exc)
        finally:
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
        assert peak < size + ALLOCATION_SLACK

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_truncated_at_any_offset(self, small, data):
        ds, path, blob = small
        cut = data.draw(st.integers(0, len(blob) - 1))
        self._load_or_refuse(ds, path, blob[:cut])

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_any_byte_flipped(self, small, deflated, data):
        ds, path, blob = small
        if data.draw(st.booleans()):
            blob = deflated
        at = data.draw(st.integers(0, len(blob) - 1))
        mask = data.draw(st.integers(1, 255))
        self._load_or_refuse(
            ds, path, blob[:at] + bytes([blob[at] ^ mask]) + blob[at + 1:])

    @settings(max_examples=100, deadline=None)
    @given(member=st.sampled_from(["signals.npy", "timestamps.npy",
                                   "adj_indptr.npy"]),
           shape=st.lists(st.one_of(st.integers(-3, 60),
                                    st.integers(10**3, 10**12)),
                          min_size=0, max_size=4).map(tuple),
           deflated=st.booleans())
    def test_npy_header_shape_overwritten(self, small, member, shape,
                                          deflated):
        """The archive itself stays valid (sizes and CRCs recomputed), so
        only the loader's own checks stand between the claimed shape and
        an allocation."""
        ds, path, blob = small
        with open(path, "wb") as f:
            f.write(blob)
        members = _members(path)
        members[member] = _claiming(members[member], shape)
        _write_members(path, members, zipfile.ZIP_DEFLATED if deflated
                       else zipfile.ZIP_STORED)
        self._load_or_refuse(ds, path)
