"""Unit tests for the simulated hardware substrate."""

import numpy as np
import pytest

from repro.hardware import (
    MemorySpace,
    POLARIS_NODE,
    polaris_host,
)
from repro.utils.clock import ManualClock
from repro.utils.errors import OutOfMemoryError
from repro.utils.sizes import GB, format_bytes


class TestMemorySpace:
    def test_alloc_free_accounting(self):
        m = MemorySpace("m", capacity=100)
        a = m.allocate("x", 60)
        assert m.in_use == 60 and m.peak == 60 and m.available == 40
        m.free(a)
        assert m.in_use == 0 and m.peak == 60

    def test_oom_raises_with_details(self):
        m = MemorySpace("m", capacity=100)
        m.allocate("x", 80)
        with pytest.raises(OutOfMemoryError) as e:
            m.allocate("y", 30)
        assert e.value.requested == 30
        assert e.value.in_use == 80
        assert e.value.capacity == 100
        assert e.value.space == "m"

    def test_oom_boundary_exact_fit_ok(self):
        m = MemorySpace("m", capacity=100)
        m.allocate("x", 100)  # exactly full is allowed
        assert m.available == 0

    def test_double_free_rejected(self):
        m = MemorySpace("m")
        a = m.allocate("x", 10)
        m.free(a)
        with pytest.raises(KeyError):
            m.free(a)

    def test_negative_allocation_rejected(self):
        with pytest.raises(ValueError):
            MemorySpace("m").allocate("x", -1)

    def test_unlimited_capacity(self):
        m = MemorySpace("m")
        m.allocate("x", 10**15)
        assert m.available is None

    def test_baseline_counts_toward_capacity(self):
        m = MemorySpace("m", capacity=100, baseline=40)
        assert m.in_use == 40
        with pytest.raises(OutOfMemoryError):
            m.allocate("x", 70)

    def test_baseline_validation(self):
        with pytest.raises(ValueError):
            MemorySpace("m", capacity=10, baseline=20)
        with pytest.raises(ValueError):
            MemorySpace("m", capacity=0)

    def test_peak_tracks_high_water_mark(self):
        m = MemorySpace("m")
        a = m.allocate("x", 50)
        b = m.allocate("y", 30)
        m.free(a)
        m.allocate("z", 10)
        assert m.peak == 80
        assert m.in_use == 40

    def test_events_timeline_with_clock(self):
        clock = ManualClock()
        m = MemorySpace("m", clock=clock)
        m.allocate("x", 10)
        clock.advance(5.0)
        m.allocate("y", 20)
        trace = m.usage_trace()
        assert trace == [(0.0, 10), (5.0, 30)]

    def test_would_fit(self):
        m = MemorySpace("m", capacity=100)
        m.allocate("x", 60)
        assert m.would_fit(40)
        assert not m.would_fit(41)

    def test_live_allocations(self):
        m = MemorySpace("m")
        a = m.allocate("x", 5)
        m.allocate("y", 7)
        m.free(a)
        labels = [al.label for al in m.live_allocations()]
        assert labels == ["y"]

    def test_repr_readable(self):
        m = MemorySpace("m", capacity=2 * GB)
        assert "2.00 GB" in repr(m)


class TestPolarisSpecs:
    def test_node_shape(self):
        assert POLARIS_NODE.gpus_per_node == 4
        assert POLARIS_NODE.node_ram == 512 * GB
        assert POLARIS_NODE.gpu_memory == 40 * GB

    def test_polaris_host_space(self):
        host = polaris_host()
        assert host.capacity == 512 * GB
        assert host.baseline == 2 * GB


class TestFormatBytes:
    @pytest.mark.parametrize("n,expected", [
        (512, "512 B"),
        (2048, "2.00 KB"),
        (6.05 * GB, "6.05 GB"),
        (-3 * GB, "-3.00 GB"),
    ])
    def test_formats(self, n, expected):
        assert format_bytes(n) == expected


class TestManualClock:
    def test_advance(self):
        c = ManualClock()
        assert c.advance(2.5) == 2.5
        assert c.now == c() == 2.5      # callable like time.perf_counter

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            ManualClock().advance(-1.0)

    def test_advance_to_only_forward(self):
        c = ManualClock(10.0)
        c.advance_to(5.0)
        assert c.now == 10.0
        c.advance_to(15.0)
        assert c.now == 15.0

    def test_repr(self):
        assert "now=" in repr(ManualClock(1.0))


class TestUsableCores:
    def test_positive_int_and_bounded_by_machine(self):
        from repro.hardware import usable_cores

        n = usable_cores()
        assert isinstance(n, int) and n >= 1
        import os
        assert n <= (os.cpu_count() or n)

    def test_prefers_affinity_mask(self, monkeypatch):
        from repro.hardware import cores

        monkeypatch.setattr(cores.os, "sched_getaffinity",
                            lambda pid: {0, 2, 5}, raising=False)
        assert cores.usable_cores() == 3

    def test_falls_back_to_cpu_count(self, monkeypatch):
        from repro.hardware import cores

        monkeypatch.delattr(cores.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(cores.os, "cpu_count", lambda: 6)
        assert cores.usable_cores() == 6

    def test_never_below_one(self, monkeypatch):
        from repro.hardware import cores

        monkeypatch.delattr(cores.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(cores.os, "cpu_count", lambda: None)
        assert cores.usable_cores() == 1
