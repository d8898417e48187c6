"""Unit tests for the dataset catalog, generators and loaders."""

import numpy as np
import pytest

from repro.datasets import (
    CATALOG,
    SpatioTemporalDataset,
    get_spec,
    list_datasets,
    load_dataset,
)
from repro.datasets.loaders import scaled_spec
from repro.datasets.synthetic import (
    energy_signals,
    epidemic_signals,
    traffic_signals,
)
from repro.graph import random_sensor_network
from repro.utils.errors import ShapeError
from repro.utils.sizes import GB, KB, MB


class TestCatalog:
    def test_all_six_paper_datasets_present(self):
        assert list_datasets() == sorted([
            "chickenpox-hungary", "windmill-large", "metr-la",
            "pems-bay", "pems-all-la", "pems"])

    def test_table1_shapes(self):
        pems = get_spec("pems")
        assert pems.num_nodes == 11_160 and pems.num_entries == 105_120
        bay = get_spec("pems-bay")
        assert bay.num_nodes == 325 and bay.num_entries == 52_105
        chick = get_spec("chickenpox-hungary")
        assert chick.num_nodes == 20 and chick.num_entries == 522

    def test_traffic_specs_gain_time_feature(self):
        for name in ("metr-la", "pems-bay", "pems-all-la", "pems"):
            spec = get_spec(name)
            assert spec.raw_features == 1 and spec.train_features == 2

    @pytest.mark.parametrize("name", sorted(CATALOG))
    def test_augmented_bytes_add_only_the_training_channels(self, name):
        """Fig. 3 stage 1: the augmented tensor is the raw one widened
        to the training channels (traffic gains time-of-day), in the
        dtype asked for."""
        spec = get_spec(name)
        per_channel = spec.num_entries * spec.num_nodes * 8
        assert spec.raw_nbytes() == per_channel * spec.raw_features
        assert spec.augmented_nbytes() == per_channel * spec.train_features
        assert spec.augmented_nbytes(np.float32) \
            == spec.augmented_nbytes() // 2

    def test_raw_nbytes_matches_table1_before_column(self):
        # Table 1 "size before preprocessing", within unit-convention slack.
        assert abs(get_spec("pems").raw_nbytes() - 8.71 * GB) / (8.71 * GB) < 0.01
        assert abs(get_spec("metr-la").raw_nbytes() - 54.39 * MB) / (54.39 * MB) < 0.01
        assert abs(get_spec("chickenpox-hungary").raw_nbytes() - 83.36 * KB) \
            / (83.36 * KB) < 0.03

    def test_case_insensitive_lookup(self):
        assert get_spec("PeMS-Bay") is get_spec("pems-bay")

    def test_unknown_dataset(self):
        with pytest.raises(KeyError):
            get_spec("imagenet")

    def test_scaled_spec_keeps_domain(self):
        s = scaled_spec(get_spec("pems"), 100, 1000)
        assert s.num_nodes == 100 and s.num_entries == 1000
        assert s.domain == "traffic" and s.horizon == 12


class TestGenerators:
    def _graph(self, n=20):
        return random_sensor_network(n, seed=0)

    def test_traffic_shape_and_range(self):
        g = self._graph()
        sig, ts = traffic_signals(g, 300, seed=1)
        assert sig.shape == (300, 20, 1)
        nonzero = sig[sig > 0]
        assert nonzero.min() >= 3.0 and nonzero.max() <= 80.0
        assert len(ts) == 300

    def test_traffic_missing_rate(self):
        g = self._graph(50)
        sig, _ = traffic_signals(g, 2000, seed=2, missing_rate=0.05)
        frac = np.mean(sig == 0.0)
        assert 0.03 < frac < 0.08

    def test_traffic_rush_hour_slower(self):
        g = self._graph(30)
        sig, ts = traffic_signals(g, 7 * 288, seed=3, missing_rate=0.0)
        tod = (ts % (24 * 60)) / 60.0
        dow = (ts // (24 * 60)) % 7
        weekday = dow < 5
        rush = weekday & (np.abs(tod - 8.0) < 1.0)
        night = weekday & ((tod < 4.0))
        assert sig[rush].mean() < sig[night].mean() - 3.0

    def test_traffic_spatial_correlation(self):
        # After removing each sensor's diurnal profile and the common
        # congestion mode, graph neighbours should still correlate more
        # than distant sensors (local shock diffusion along edges).
        g = self._graph(40)
        sig, ts = traffic_signals(g, 2016, seed=4, missing_rate=0.0)
        x = sig[:, :, 0]
        bucket = ((ts % (24 * 60)) // 5).astype(int)
        resid = np.empty_like(x)
        for b in np.unique(bucket):
            m = bucket == b
            resid[m] = x[m] - x[m].mean(axis=0, keepdims=True)
        resid -= resid.mean(axis=1, keepdims=True)
        corr = np.corrcoef(resid.T)
        w = g.weights.toarray() > 0
        np.fill_diagonal(w, False)
        far = ~w
        np.fill_diagonal(far, False)
        assert corr[w].mean() > corr[far].mean() + 0.02

    def test_traffic_deterministic(self):
        g = self._graph()
        a, _ = traffic_signals(g, 100, seed=7)
        b, _ = traffic_signals(g, 100, seed=7)
        np.testing.assert_array_equal(a, b)

    def test_epidemic_counts_nonnegative_integers(self):
        g = self._graph()
        sig, _ = epidemic_signals(g, 200, seed=5)
        assert sig.shape == (200, 20, 1)
        assert np.all(sig >= 0)
        np.testing.assert_array_equal(sig, np.round(sig))

    def test_epidemic_seasonal_variation(self):
        g = self._graph()
        sig, _ = epidemic_signals(g, 208, seed=6)  # 4 years of weeks
        weekly = sig[:, :, 0].mean(axis=1)
        assert weekly.std() > 0.1 * weekly.mean()

    def test_energy_normalised_output(self):
        g = self._graph()
        sig, _ = energy_signals(g, 500, seed=8)
        assert sig.min() >= 0.0 and sig.max() <= 1.0

    def test_energy_temporal_smoothness(self):
        g = self._graph()
        sig, _ = energy_signals(g, 500, seed=9)
        x = sig[:, :, 0]
        diffs = np.abs(np.diff(x, axis=0)).mean()
        assert diffs < 0.2  # wind power doesn't jump to extremes每 hour


class TestLoadDataset:
    def test_full_catalog_shapes_small_scale(self):
        ds = load_dataset("pems-bay", nodes=30, entries=400, seed=0)
        assert ds.signals.shape == (400, 30, 1)
        assert ds.graph.num_nodes == 30
        assert ds.spec.num_nodes == 325  # spec keeps the real shape

    def test_default_loads_catalog_shape(self):
        ds = load_dataset("chickenpox-hungary")
        assert ds.signals.shape == (522, 20, 1)

    def test_domain_dispatch(self):
        wind = load_dataset("windmill-large", nodes=10, entries=100)
        assert wind.signals.max() <= 1.0  # energy generator
        chick = load_dataset("chickenpox-hungary", nodes=10, entries=100)
        np.testing.assert_array_equal(chick.signals, np.round(chick.signals))

    def test_entries_minimum_enforced(self):
        with pytest.raises(ValueError):
            load_dataset("pems-bay", nodes=10, entries=20)  # < 4*horizon

    def test_nodes_minimum(self):
        with pytest.raises(ValueError):
            load_dataset("pems-bay", nodes=1, entries=100)

    def test_deterministic_in_seed(self):
        a = load_dataset("metr-la", nodes=15, entries=200, seed=3)
        b = load_dataset("metr-la", nodes=15, entries=200, seed=3)
        np.testing.assert_array_equal(a.signals, b.signals)

    def test_time_of_day_feature(self):
        ds = load_dataset("pems-bay", nodes=10, entries=300)
        tod = ds.time_of_day()
        assert tod.min() >= 0.0 and tod.max() < 1.0
        aug = ds.with_time_feature()
        assert aug.shape == (300, 10, 2)
        np.testing.assert_allclose(aug[:, 0, 1], tod)

    def test_shape_validation(self):
        ds = load_dataset("pems-bay", nodes=10, entries=100)
        with pytest.raises(ShapeError):
            SpatioTemporalDataset(signals=ds.signals[:, :5],
                                  graph=ds.graph, spec=ds.spec,
                                  timestamps=ds.timestamps)
        with pytest.raises(ShapeError):
            SpatioTemporalDataset(signals=ds.signals, graph=ds.graph,
                                  spec=ds.spec,
                                  timestamps=ds.timestamps[:50])
