"""Hypothesis property-based tests on the library's core invariants."""

import numpy as np
from hypothesis import assume, given, settings, strategies as st

from repro.autograd import Tensor, unbroadcast
from repro.batching.samplers import (
    BatchShuffleSampler,
    GlobalShuffleSampler,
    LocalShuffleSampler,
    partition_contiguous,
)
from repro.hardware.memory import MemorySpace
from repro.preprocessing import (
    StandardScaler,
    index_nbytes,
    num_snapshots,
    split_bounds,
    standard_preprocessed_nbytes,
)
from repro.preprocessing.index_batching import IndexDataset
from repro.preprocessing.scaler import StandardScaler
from repro.preprocessing.windows import window_starts
from repro.utils.seeding import derive_seed


# ---------------------------------------------------------------------------
# Window arithmetic
# ---------------------------------------------------------------------------
@given(entries=st.integers(2, 5000), horizon=st.integers(1, 64))
def test_snapshot_count_formula(entries, horizon):
    assume(entries >= 2 * horizon)
    n = num_snapshots(entries, horizon)
    assert n == entries - (2 * horizon - 1)
    # Every start must leave room for x and y windows.
    starts = window_starts(entries, horizon)
    assert starts[-1] + 2 * horizon <= entries


@given(n=st.integers(1, 10_000))
def test_split_bounds_partition(n):
    train_end, val_end = split_bounds(n)
    assert 0 <= train_end <= val_end <= n
    # Ratios approximately respected for larger n.
    if n >= 20:
        assert abs(train_end / n - 0.7) < 0.06
        assert abs((val_end - train_end) / n - 0.1) < 0.06


@given(entries=st.integers(4, 500), horizon=st.integers(1, 24),
       nodes=st.integers(1, 40), features=st.integers(1, 5))
def test_memory_equations_consistency(entries, horizon, nodes, features):
    assume(entries >= 2 * horizon)
    eq1 = standard_preprocessed_nbytes(entries, nodes, features, horizon)
    eq2 = index_nbytes(entries, nodes, features, horizon)
    n_snap = num_snapshots(entries, horizon)
    # eq1 is exactly 2 * snapshots * horizon window elements.
    assert eq1 == 2 * n_snap * horizon * nodes * features * 8
    # index is never larger than standard for horizon >= 1 and is strictly
    # smaller whenever there is real window overlap.
    if horizon >= 2 and n_snap > 1:
        assert eq2 < eq1


# ---------------------------------------------------------------------------
# Index-batching == standard preprocessing (the paper's core equivalence)
# ---------------------------------------------------------------------------
@settings(max_examples=25, deadline=None)
@given(entries=st.integers(48, 140), nodes=st.integers(2, 8),
       horizon=st.integers(1, 10), seed=st.integers(0, 10**6))
def test_index_equals_standard_everywhere(entries, nodes, horizon, seed):
    from repro.datasets import load_dataset
    from repro.preprocessing import standard_preprocess
    assume(entries >= 4 * horizon)
    ds = load_dataset("pems-bay", nodes=nodes, entries=entries, seed=seed)
    std = standard_preprocess(ds, horizon=horizon)
    idx = IndexDataset.from_dataset(ds, horizon=horizon)
    for split in ("train", "val", "test"):
        xs, ys = std.split(split)
        if len(xs) == 0:
            continue
        xi, yi = idx.materialize_split(split)
        np.testing.assert_array_equal(xs, xi)
        np.testing.assert_array_equal(ys, yi)


@settings(max_examples=30, deadline=None)
@given(start=st.integers(0, 100))
def test_snapshots_are_views(start):
    from repro.datasets import load_dataset
    ds = load_dataset("pems-bay", nodes=3, entries=150, seed=1)
    idx = IndexDataset.from_dataset(ds)
    assume(start < idx.num_snapshots)
    x, y = idx.snapshot(start)
    assert x.base is idx.data and y.base is idx.data


# ---------------------------------------------------------------------------
# Scaler
# ---------------------------------------------------------------------------
@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6), st.integers(2, 50), st.integers(1, 4))
def test_scaler_roundtrip(seed, rows, features):
    rng = np.random.default_rng(seed)
    data = rng.normal(rng.uniform(-100, 100), rng.uniform(0.1, 50),
                      size=(rows, 3, features))
    s = StandardScaler().fit(data)
    np.testing.assert_allclose(s.inverse_transform(s.transform(data)), data,
                               rtol=1e-9, atol=1e-7)


# ---------------------------------------------------------------------------
# Samplers: every strategy must cover each rank's data exactly once
# ---------------------------------------------------------------------------
@settings(max_examples=30, deadline=None)
@given(n=st.integers(8, 400), batch=st.integers(1, 16),
       world=st.integers(1, 8), epoch=st.integers(0, 5),
       kind=st.sampled_from(["global", "local", "batch"]))
def test_sampler_plans_disjoint_and_valid(n, batch, world, epoch, kind):
    cls = {"global": GlobalShuffleSampler, "local": LocalShuffleSampler,
           "batch": BatchShuffleSampler}[kind]
    sampler = cls(n, batch, world, seed=3, drop_last=False)
    plan = sampler.epoch_plan(epoch)
    assert len(plan) == world
    seen = []
    for rank_batches in plan:
        for b in rank_batches:
            seen.extend(b.tolist())
    assert sorted(seen) == sorted(set(seen))      # no duplicates
    assert all(0 <= i < n for i in seen)
    assert len(seen) == n                          # full coverage


@given(n=st.integers(1, 1000), world=st.integers(1, 32))
def test_partition_contiguous_properties(n, world):
    parts = partition_contiguous(n, world)
    flat = np.concatenate(parts) if parts else np.array([])
    np.testing.assert_array_equal(flat, np.arange(n))
    sizes = [len(p) for p in parts]
    assert max(sizes) - min(sizes) <= 1


# ---------------------------------------------------------------------------
# Memory space: usage is always the sum of live allocations
# ---------------------------------------------------------------------------
@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.booleans(), st.integers(0, 10**6)),
                min_size=1, max_size=60))
def test_memory_space_conservation(ops):
    m = MemorySpace("prop")
    live = []
    for is_alloc, size in ops:
        if is_alloc or not live:
            live.append(m.allocate("a", size))
        else:
            m.free(live.pop())
        assert m.in_use == sum(a.nbytes for a in live)
        assert m.peak >= m.in_use


# ---------------------------------------------------------------------------
# unbroadcast: gradient reduction inverts numpy broadcasting
# ---------------------------------------------------------------------------
@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_unbroadcast_inverts_broadcast(seed):
    rng = np.random.default_rng(seed)
    base_shape = tuple(rng.integers(1, 4, size=rng.integers(1, 4)))
    # Make a broadcastable gradient shape: prepend dims / stretch 1s.
    grad_shape = tuple(rng.integers(1, 4,
                                    size=rng.integers(0, 2)).tolist()) + tuple(
        s if s > 1 or rng.random() < 0.5 else int(rng.integers(1, 4))
        for s in base_shape)
    g = np.ones(grad_shape)
    out = unbroadcast(g, base_shape)
    assert out.shape == base_shape
    # Total mass conserved: sum of gradient unchanged by reduction.
    assert out.sum() == g.sum()


# ---------------------------------------------------------------------------
# Fault plans: compact encoding <-> decode is the identity
# ---------------------------------------------------------------------------
from repro.runtime.faults import FAULT_KINDS, GATEWAY_KINDS, FaultEvent, FaultPlan

_TARGETS = st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789-_",
                   min_size=1, max_size=12)


@st.composite
def fault_events(draw):
    """Arbitrary valid FaultEvents across every kind, including the
    serving-side ones (which require a delimiter-free target)."""
    kind = draw(st.sampled_from(FAULT_KINDS))
    step = draw(st.integers(0, 500))
    until = draw(st.one_of(st.none(), st.integers(step + 1, step + 200)))
    return FaultEvent(
        kind=kind, step=step, until=until,
        rank=draw(st.integers(0, 16)),
        slowdown=draw(st.floats(1.0, 16.0, allow_nan=False)),
        seconds=draw(st.floats(0.0, 10.0, allow_nan=False)),
        category=draw(st.sampled_from([None, "gradient", "data", "halo"])),
        request=draw(st.integers(0, 1000)),
        target=draw(_TARGETS) if kind in GATEWAY_KINDS else "")


@settings(max_examples=80, deadline=None)
@given(fault_events())
def test_fault_event_encode_decode_roundtrip(ev):
    assert FaultEvent.decode(ev.encode()) == ev


@settings(max_examples=40, deadline=None)
@given(st.lists(fault_events(), max_size=8), st.integers(0, 2**31))
def test_fault_plan_spec_roundtrip_and_views_partition(events, seed):
    plan = FaultPlan(tuple(events), seed=seed)
    assert FaultPlan.from_spec(plan.to_spec(), seed=seed) == plan
    # Every event is consumed by exactly one layer: the transport or the
    # gateway resilience layer.
    transport = {i for i, _ in plan.transport_events()}
    gateway = {i for i, _ in plan.gateway_events()}
    assert transport | gateway == set(range(len(plan)))
    assert transport.isdisjoint(gateway)


# ---------------------------------------------------------------------------
# Seeding
# ---------------------------------------------------------------------------
@given(st.integers(0, 2**31), st.text(max_size=20), st.text(max_size=20))
def test_derive_seed_stable_and_distinct(base, a, b):
    assert derive_seed(a, base=base) == derive_seed(a, base=base)
    if a != b:
        assert derive_seed(a, base=base) != derive_seed(b, base=base)


# ---------------------------------------------------------------------------
# Autograd: sum rule on random DAG-ish expressions
# ---------------------------------------------------------------------------
@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6))
def test_gradient_linearity(seed):
    """grad of (a*f + b*g) == a*grad(f) + b*grad(g) for scalar outputs."""
    rng = np.random.default_rng(seed)
    x0 = rng.standard_normal((3, 3))
    a, b = float(rng.uniform(-2, 2)), float(rng.uniform(-2, 2))

    def grad_of(fn):
        t = Tensor(x0, requires_grad=True, dtype=np.float64)
        fn(t).backward()
        return t.grad

    gf = grad_of(lambda t: (t * t).sum())
    gg = grad_of(lambda t: t.tanh().sum())
    combined = grad_of(lambda t: (t * t).sum() * a + t.tanh().sum() * b)
    np.testing.assert_allclose(combined, a * gf + b * gg, rtol=1e-9,
                               atol=1e-12)


# ---------------------------------------------------------------------------
# Gradient bucketing: pack -> unpack is the identity
# ---------------------------------------------------------------------------
class _FakeParam:
    """Minimal parameter stand-in: the bucketer touches .data and .grad."""

    def __init__(self, data, grad):
        self.data = data
        self.grad = grad


@st.composite
def bucketer_workloads(draw):
    """A random parameter list (mixed dtypes/shapes, some ``None`` grads)
    plus a bucket cap — including caps smaller than the largest tensor."""
    rng = np.random.default_rng(draw(st.integers(0, 2**31)))
    n = draw(st.integers(1, 8))
    params = []
    for _ in range(n):
        shape = tuple(draw(st.lists(st.integers(1, 6), min_size=1,
                                    max_size=3)))
        dtype = draw(st.sampled_from([np.float32, np.float64]))
        data = rng.standard_normal(shape).astype(dtype)
        grad = (None if draw(st.booleans())
                else rng.standard_normal(shape).astype(dtype))
        params.append(_FakeParam(data, grad))
    largest = max(p.data.nbytes for p in params)
    cap_bytes = draw(st.one_of(
        st.integers(1, max(largest - 1, 1)),       # smaller than largest
        st.integers(largest, 4 * largest),         # a few tensors per bucket
        st.just(25 << 20)))                        # everything in one
    ready_order = draw(st.booleans())
    return params, cap_bytes / (1 << 20), ready_order


@settings(max_examples=60, deadline=None)
@given(bucketer_workloads())
def test_gradient_bucketer_roundtrip_exact(workload):
    """pack -> unpack reproduces every gradient exactly (``None`` grads
    come back as zeros), for any dtype mix, shape mix, and bucket cap."""
    from repro.runtime import GradientBucketer

    params, cap_mb, ready_order = workload
    bucketer = GradientBucketer(params, bucket_cap_mb=cap_mb,
                                ready_order=ready_order)
    buffers = bucketer.make_buffers()
    bucketer.pack(params, buffers)

    # Buckets are dtype-homogeneous and cover every parameter once.
    assert sum(len(b.slots) for b in bucketer.buckets) == len(params)
    covered = sorted(s.param_index for b in bucketer.buckets
                     for s in b.slots)
    assert covered == list(range(len(params)))
    for layout in bucketer.buckets:
        for slot in layout.slots:
            assert params[slot.param_index].data.dtype == layout.dtype

    # Unpack into a *fresh* parameter set: grads must match bitwise.
    fresh = [_FakeParam(p.data.copy(), None) for p in params]
    bucketer.unpack(buffers, fresh)
    for original, restored in zip(params, fresh):
        expected = (np.zeros_like(original.data) if original.grad is None
                    else original.grad)
        assert restored.grad.dtype == original.data.dtype
        assert restored.grad.shape == original.data.shape
        np.testing.assert_array_equal(restored.grad, expected)

    # Re-unpacking in place reuses the existing grad buffers (the PR-2
    # allocation discipline) and still matches.
    kept = [r.grad for r in fresh]
    bucketer.unpack(buffers, fresh)
    for r, buf in zip(fresh, kept):
        assert r.grad is buf


@settings(max_examples=30, deadline=None)
@given(bucketer_workloads())
def test_gradient_bucketer_respects_cap(workload):
    """No bucket exceeds the cap unless a single tensor alone does."""
    from repro.runtime import GradientBucketer

    params, cap_mb, ready_order = workload
    bucketer = GradientBucketer(params, bucket_cap_mb=cap_mb,
                                ready_order=ready_order)
    cap_bytes = int(cap_mb * (1 << 20))
    for layout in bucketer.buckets:
        assert layout.nbytes <= cap_bytes or len(layout.slots) == 1
