"""Tests for dataset save/load round-trips."""

import numpy as np
import pytest

from repro.datasets import load_dataset
from repro.datasets.io import load_dataset_file, save_dataset
from repro.preprocessing import IndexDataset


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
