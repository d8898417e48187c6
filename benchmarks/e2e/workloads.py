"""The four workloads: what each one builds, what one op is, what is checked.

Every workload is driven the same way by ``worker.py``: ``setup()`` once
(timed from outside as ``setup_s``), ``segment(i)`` twelve times, then
``finish()`` for the correctness checks and the one-off layer probes.
Ops bound by the interpreter and the core are timed against a reference
pass interleaved with them (``machine.Paired``; ``ref_every`` below).
Only public functions of ``repro`` are called; layers are timed by
wrapping attributes of live objects (``tracing.Tracer.wrap``) or by
replaying a module-level function on the workload's own inputs.

Why these four (one line each is repeated in ``BENCHMARK.json``):

- ``train_index``: single-process index-batching training at a size that
  no longer fits L2; models/autograd/kernels/optim do ~99.9% of the work,
  so compute changes show here and data-path changes must not.
- ``data_index``: the paper's memory claim at non-toy scale; datasets/
  preprocessing/batching do all the work and the compute layers none.
- ``ddp_index_w2``: distributed index-batching; trainer/autograd are used
  differently from ``train_index`` (partitioned sampler, replicas, bucket
  pack/unpack, allreduce).  Timed with the ranks inline; real forked ranks
  are checked bitwise and measured per layer after the last segment.
- ``serve_gateway``: the gateway's own wall-clock cost; the same model and
  kernel layers as ``train_index`` used forward-only under ``no_grad``.
"""

from __future__ import annotations

import math
import resource
import statistics
import time
import traceback

import numpy as np

from benchmarks.e2e.machine import Paired

SEGMENTS = 12
WARMUP_OPS = 3
#: Datasets (and so graph density and op cost) are generated from this one
#: seed; ``--seed`` drives model init, samplers, arrivals and windows.  A
#: denser random graph costs up to 10% more per step, which would read as
#: run-to-run noise if the graph changed with the seed.
DATA_SEED = 0
#: A request finishing later than this after its due time counts as late.
LATENCY_LIMIT_S = 0.050


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Workload:
    name = ""
    #: ops/s on the sizing box; sizes a segment so a run lasts ~--seconds.
    nominal_ops_per_s = 1.0
    windows_per_op = 1
    #: Ops between two reference passes (``machine.Paired``: a chunk lasts
    #: 20 to 100 ms, the passes cost 1 to 6% of it); ``None`` for an op that
    #: does not follow the core's speed and is reported as measured.
    ref_every: int | None = None

    def __init__(self, seed: int, seconds: float, tracer,
                 data_path: str | None = None, quick: bool = False):
        self.seed = seed
        self.quick = quick
        self.seconds = seconds
        self.tracer = tracer
        self.data_path = data_path
        self.ops_per_segment = max(1, round(
            self.nominal_ops_per_s * seconds / SEGMENTS))
        #: per-layer values measured once (set-up seams, direct probes)
        self.layers: dict[str, float] = {}
        self.failure_notes: list[str] = []

    # -- helpers --------------------------------------------------------
    def _timed(self, layer: str, fn, *args, **kwargs):
        """Call a set-up seam once, recording its seconds under ``layer``."""
        t0 = time.perf_counter()
        if self.tracer is not None:
            out = self.tracer.timed(layer, fn, *args, **kwargs)
        else:
            out = fn(*args, **kwargs)
        self.layers[layer] = time.perf_counter() - t0
        return out

    def _note_failure(self, what: str) -> None:
        if len(self.failure_notes) < 5:
            self.failure_notes.append(what)

    def _run_ops(self, n: int, op) -> dict:
        """Time ``n`` calls of ``op()`` (returns True when its output is
        valid) as one phase, against the reference when ``ref_every``."""
        tracer = self.tracer
        mark = len(tracer.spans) if tracer is not None else 0
        paired = Paired(self.ref_every) if self.ref_every else None
        op_ms, failed = paired.op_ms if paired else [], 0
        start = time.perf_counter()
        for _ in range(n):
            if paired is not None:
                paired.before_op()
            if tracer is not None:
                tracer.op_id += 1
                root = tracer.open("op")
            t0 = time.perf_counter()
            try:
                ok = op()
            except Exception:  # a failed op is counted, never fatal
                ok = False
                self._note_failure(traceback.format_exc(limit=3))
            op_ms.append((time.perf_counter() - t0) * 1e3)
            if tracer is not None:
                tracer.close(root)
            failed += not ok
        phase = {"op_ms": op_ms, "wall_s": time.perf_counter() - start,
                 "windows": (n - failed) * self.windows_per_op,
                 "attempted": n, "failed": failed}
        if paired is not None:
            paired.close()
            phase["wall_s"] = sum(op_ms) / 1e3      # without the passes
            phase.update(paired.summary())
        if tracer is not None:
            phase["spans"] = tracer.totals(mark)
        return phase

    def _kernel_probes(self, supports, batch: int, in_features: int,
                       hidden: int, grad: bool) -> None:
        """Direct kernel calls at this workload's shapes (traced run)."""
        from repro import kernels
        from repro.autograd.grad_mode import no_grad
        from repro.autograd.tensor import Tensor
        from repro.models.dconv import DiffusionConv

        n = supports[0].shape[0]
        rng = np.random.default_rng(self.seed)
        conv = DiffusionConv(supports, in_features + hidden, 2 * hidden, 2,
                             seed_name="e2e.kernel-probe")
        x = rng.standard_normal((batch, n, in_features + hidden)
                                ).astype(np.float32)

        def dconv():
            if grad:
                conv.zero_grad()
                conv(Tensor(x, requires_grad=True)).sum().backward()
            else:
                with no_grad():
                    conv(Tensor(x))

        pre = rng.standard_normal((batch, n, 2 * hidden)).astype(np.float32)
        h = rng.standard_normal((batch, n, hidden)).astype(np.float32)
        s, rh = np.empty_like(pre), np.empty_like(h)
        backend = kernels.active_backend()
        self.layers["kernels.dconv_fwd_bwd_ms"] = _median_ms(dconv, 30)
        self.layers["kernels.gru_gates_ms"] = _median_ms(
            lambda: backend.gru_gates_fwd(pre, h, s, rh), 100)

    # -- the protocol ---------------------------------------------------
    def setup(self) -> None:
        raise NotImplementedError

    def segment(self, index: int) -> dict:
        """Run one segment; returns ``{phase name: phase dict}``."""
        raise NotImplementedError

    def finish(self) -> dict:
        """Correctness checks (``{name: bool}``) after the last segment."""
        raise NotImplementedError


def _untimed(layer, fn, *args, **kwargs):
    """Stand-in for ``Workload._timed`` when a recipe is only replayed."""
    return fn(*args, **kwargs)


def _median_ms(fn, repeats: int) -> float:
    fn()
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        samples.append((time.perf_counter() - t0) * 1e3)
    return statistics.median(samples)


def _model_and_optimizer(ds, horizon: int, hidden: int, seed: int,
                         lr: float, timed):
    """``pgt-dcrnn`` + Adam over ``ds``'s graph, as ``repro.api.run`` wires
    them; the first ``supports`` access goes through ``timed``."""
    from repro.api.builders import ModelContext, default_in_features
    from repro.api.registry import MODELS, OPTIMIZERS

    ctx = ModelContext(graph=ds.graph, horizon=horizon,
                       in_features=default_in_features(ds),
                       hidden_dim=hidden, seed=seed)
    timed("graph.supports_s", getattr, ctx, "supports")
    model = MODELS.get("pgt-dcrnn")(ctx)
    optimizer = OPTIMIZERS.get("adam")(
        [p for p in model.parameters() if p.requires_grad], lr)
    return ctx, model, optimizer


def _truncate_plan(sampler, steps: int) -> None:
    """Make every later ``epoch_plan`` of ``sampler`` stop after ``steps``
    batches per rank (used for warm-up epochs and short reference runs)."""
    full = type(sampler).epoch_plan
    sampler.epoch_plan = lambda epoch: [
        rank[:steps] for rank in full(sampler, epoch)]


# ----------------------------------------------------------------------
# train_index
# ----------------------------------------------------------------------
class TrainIndex(Workload):
    name = "train_index"
    nominal_ops_per_s = 9.6
    windows_per_op = 32
    ref_every = 1
    NODES, ENTRIES, HORIZON, HIDDEN, BATCH, LR = 64, 4000, 12, 32, 32, 0.01
    #: --quick shapes: a smoke run only has to exercise the same code.
    QUICK_NODES, QUICK_ENTRIES, QUICK_HIDDEN = 16, 800, 16

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        if self.quick:
            self.NODES, self.ENTRIES, self.HIDDEN = (
                self.QUICK_NODES, self.QUICK_ENTRIES, self.QUICK_HIDDEN)

    def _build(self, ds, timed=_untimed):
        from repro.api.registry import BATCHINGS
        from repro.hardware.memory import MemorySpace
        from repro.training.trainer import Trainer

        space = MemorySpace(self.name)
        bundle = timed("preprocessing.index_build_s", BATCHINGS.get("index"),
                       ds, self.HORIZON, self.BATCH, space)
        ctx, model, optimizer = _model_and_optimizer(
            ds, self.HORIZON, self.HIDDEN, self.seed, self.LR, timed)
        trainer = Trainer(model, optimizer, bundle.train, None,
                          scaler=bundle.scaler, seed=self.seed)
        return trainer, space, ctx

    def setup(self) -> None:
        from repro.api.registry import DATASETS

        self.ds = self._timed(
            "datasets.generate_s", DATASETS.get("pems-bay"),
            nodes=self.NODES, entries=self.ENTRIES, seed=DATA_SEED)
        self.trainer, space, self.ctx = self._build(self.ds, self._timed)
        _preprocessing_counts(self.layers, space, self.trainer.train_loader,
                              self.ds)
        self.trainer.model.train()
        self.losses: list[float] = []
        self._sels = self._selections()
        if self.tracer is not None:
            self._trace()
        for _ in range(WARMUP_OPS):
            self._op()

    def _selections(self):
        trainer, epoch = self.trainer, 0
        while True:
            for sel in trainer.sampler.epoch_plan(epoch)[0]:
                if len(sel) == trainer.train_loader.batch_size:
                    yield sel
            epoch += 1

    def _trace(self) -> None:
        """forward = train_step entry -> loss_fn return; backward = loss_fn
        return -> Optimizer.step entry (zero_grad, backward, clip)."""
        from repro.optim.losses import l1_loss

        tracer, trainer = self.tracer, self.trainer
        tracer.wrap(trainer.train_loader, "batch_at", "batching.gather")
        tracer.wrap(trainer.sampler, "epoch_plan", "batching.plan")
        open_span = {}
        train_step, opt_step = trainer.train_step, trainer.optimizer.step

        def traced_train_step(x, y):
            open_span["i"] = tracer.open("models.forward")
            return train_step(x, y)

        def timing_loss(pred, target):
            out = l1_loss(pred, target)
            tracer.close(open_span["i"])
            open_span["i"] = tracer.open("autograd.backward")
            return out

        def traced_opt_step():
            tracer.close(open_span["i"])
            tracer.timed("optim.step", opt_step)

        trainer.train_step = traced_train_step
        trainer.loss_fn = timing_loss
        trainer.optimizer.step = traced_opt_step

    def _op(self) -> bool:
        x, y = self.trainer.train_loader.batch_at(next(self._sels))
        loss = self.trainer.train_step(x, y)
        self.losses.append(loss)
        return math.isfinite(loss)

    def segment(self, index: int) -> dict:
        first = len(self.losses)
        phase = self._run_ops(self.ops_per_segment, self._op)
        phase["losses"] = self.losses[first:]
        return {"ops": phase}

    def finish(self) -> dict:
        # Reference: a fresh Trainer's own train_epoch over the same first
        # five selections must give the same five losses bitwise.
        ref, _, _ = self._build(self.ds)
        _truncate_plan(ref.sampler, 5)
        ref_mean = ref.train_epoch(0)
        k = min(20, len(self.losses) // 2)
        if self.tracer is not None:
            self._kernel_probes(self.ctx.supports, self.BATCH,
                                self.trainer.model.in_features, self.HIDDEN,
                                grad=True)
        return {
            "matches_train_epoch_bitwise":
                ref_mean == float(np.mean(self.losses[:5])),
            "losses_finite": all(math.isfinite(v) for v in self.losses),
            "loss_decreased": (statistics.fmean(self.losses[-k:])
                               < statistics.fmean(self.losses[:k])),
        }


def _preprocessing_counts(layers: dict, space, loader, ds) -> None:
    layers["preprocessing.peak_bytes"] = space.peak
    layers["preprocessing.resident_bytes"] = loader.ds.resident_nbytes
    layers["preprocessing.peak_over_raw"] = space.peak / ds.nbytes


# ----------------------------------------------------------------------
# data_index
# ----------------------------------------------------------------------
class DataIndex(Workload):
    name = "data_index"
    nominal_ops_per_s = 2300.0
    windows_per_op = 64
    NODES, ENTRIES, HORIZON, BATCH = 325, 24000, 12, 64
    CHECK_ENTRIES = 2000
    #: --quick shrinks both (set-up dominates a smoke run); the check slice
    #: must still hold 8 train batches and one validation batch.
    QUICK_ENTRIES, QUICK_CHECK_ENTRIES = 2400, 800

    @classmethod
    def make_data(cls, path: str, quick: bool) -> None:
        """Run by a throw-away child: generate once, write the file."""
        from repro.api.registry import DATASETS
        from repro.datasets.io import save_dataset

        entries = cls.QUICK_ENTRIES if quick else cls.ENTRIES
        save_dataset(path, DATASETS.get("pems-bay")(
            nodes=cls.NODES, entries=entries, seed=DATA_SEED))

    def setup(self) -> None:
        from repro.api.registry import BATCHINGS
        from repro.batching.samplers import GlobalShuffleSampler
        from repro.datasets.io import load_dataset_file
        from repro.hardware.memory import MemorySpace

        ds = self._timed("datasets.load_s", load_dataset_file, self.data_path)
        space = MemorySpace(self.name)
        if self.tracer is not None:
            import tracemalloc
            tracemalloc.start()
        bundle = self._timed("preprocessing.index_build_s",
                             BATCHINGS.get("index"), ds, self.HORIZON,
                             self.BATCH, space)
        if self.tracer is not None:
            self.layers["preprocessing.traced_peak_mb"] = (
                tracemalloc.get_traced_memory()[1] / 2**20)
            tracemalloc.stop()
        self.loader = bundle.train
        _preprocessing_counts(self.layers, space, self.loader, ds)
        del ds, bundle      # the raw file contents are not kept resident
        self.sampler = GlobalShuffleSampler(
            self.loader.num_snapshots, self.BATCH, seed=self.seed)
        if self.tracer is not None:
            self.tracer.wrap(self.loader, "batch_at", "batching.gather")
            self.tracer.wrap(self.sampler, "epoch_plan", "batching.plan")
        self._sels = self._selections()
        self.shape = (self.BATCH, self.HORIZON, self.NODES, 2)
        for _ in range(WARMUP_OPS):
            self._op()

    def _selections(self):
        epoch = 0
        while True:
            yield from self.sampler.epoch_plan(epoch)[0]
            epoch += 1

    def _op(self) -> bool:
        x, y = self.loader.batch_at(next(self._sels))
        return (x.shape == self.shape and y.shape == self.shape
                and x.dtype == np.float32 and y.dtype == np.float32)

    def segment(self, index: int) -> dict:
        return {"ops": self._run_ops(self.ops_per_segment, self._op)}

    def finish(self) -> dict:
        # The paper's "identical snapshots": on a slice of the same file
        # the index loader's batches equal the materialising baseline's.
        from repro.api.registry import BATCHINGS
        from repro.batching.samplers import GlobalShuffleSampler
        from repro.datasets.base import SpatioTemporalDataset
        from repro.datasets.io import load_dataset_file

        ds = load_dataset_file(self.data_path)
        n = self.QUICK_CHECK_ENTRIES if self.quick else self.CHECK_ENTRIES
        part = SpatioTemporalDataset(
            signals=ds.signals[:n], graph=ds.graph, spec=ds.spec,
            timestamps=ds.timestamps[:n])
        del ds
        index = BATCHINGS.get("index")(part, self.HORIZON, self.BATCH).train
        base = BATCHINGS.get("base")(part, self.HORIZON, self.BATCH).train
        plan = GlobalShuffleSampler(index.num_snapshots, self.BATCH,
                                    seed=self.seed).epoch_plan(0)[0][:8]
        same = True
        for sel in plan:
            xi, yi = index.batch_at(sel)
            xb, yb = base.batch_at(sel)
            same &= np.array_equal(xi, xb) and np.array_equal(yi, yb)
        # (shape and float32 dtype were checked on every timed batch)
        return {"index_equals_base_batches": bool(same) and len(plan) == 8}


# ----------------------------------------------------------------------
# ddp_index_w2
# ----------------------------------------------------------------------
class DdpIndexW2(Workload):
    name = "ddp_index_w2"
    nominal_ops_per_s = 57.0
    windows_per_op = 16
    ref_every = 3
    NODES, HORIZON, HIDDEN, RANK_BATCH, WORLD, LR = 24, 12, 16, 8, 2, 0.01
    WARMUP_EPOCH = 10**6
    #: Steps of epoch 0 repeated on forked ranks after the last segment.
    FORKED_STEPS = 40

    def _entries(self) -> int:
        """Smallest dataset whose epoch is ``ops_per_segment`` global steps
        (and whose other splits still hold one batch, as loaders demand)."""
        from repro.preprocessing.windows import num_snapshots, split_bounds

        entries = 4 * self.HORIZON
        while True:
            n = num_snapshots(entries, self.HORIZON)
            train_end, val_end = split_bounds(n)
            steps = (train_end // self.WORLD) // self.RANK_BATCH
            if steps >= self.ops_per_segment and min(
                    val_end - train_end, n - val_end) >= self.RANK_BATCH:
                return entries
            entries += 1

    def _build(self, ds, group, timed=_untimed):
        from repro.api.registry import BATCHINGS
        from repro.training.ddp import DDPStrategy, DDPTrainer

        bundle = timed("preprocessing.index_build_s", BATCHINGS.get("index"),
                       ds, self.HORIZON, self.RANK_BATCH)
        ctx, model, optimizer = _model_and_optimizer(
            ds, self.HORIZON, self.HIDDEN, self.seed, self.LR, timed)
        trainer = DDPTrainer(model, optimizer, group, bundle.train, None,
                             strategy=DDPStrategy.DIST_INDEX,
                             scaler=bundle.scaler, seed=self.seed)
        return trainer, ctx

    def _warm_up(self, trainer) -> None:
        """Three untimed global steps of an epoch no segment uses."""
        _truncate_plan(trainer.sampler, WARMUP_OPS)
        trainer.train_epoch(self.WARMUP_EPOCH)
        del trainer.sampler.epoch_plan

    def setup(self) -> None:
        from repro.api.registry import DATASETS
        from repro.runtime import ProcessGroup, ProcessTransport

        self.ds = self._timed(
            "datasets.generate_s", DATASETS.get("pems-bay"),
            nodes=self.NODES, entries=self._entries(), seed=DATA_SEED)
        # The timed segments run the two ranks one after the other inside
        # this process.  Forked ranks (the ``forked`` run in ``finish``)
        # take 1x or 2x the same step for a minute at a time on the sizing
        # host, on one core as on two and with the reference pass unmoved,
        # so no bound could be held on them; they keep their bitwise check
        # and their per-layer numbers.
        self.group = ProcessGroup(ProcessTransport(self.WORLD,
                                                   parallel=False))
        self.trainer, self.ctx = self._build(self.ds, self.group,
                                             self._timed)
        self.rank_failures = 0
        self._clock = None      # the running epoch's _StepClock, if any
        self.step_losses: list[list[float]] = []
        self._wrap_run_ranks(self.group, self.tracer)
        if self.tracer is not None:
            self.tracer.wrap(self.group, "allreduce", "runtime.allreduce")
        self._warm_up(self.trainer)

    def _wrap_run_ranks(self, group, tracer) -> None:
        """A step begins at each ``ProcessGroup.run_ranks`` call: a clock
        read there (and the rank losses the call returns) is all that is
        taken."""
        run_ranks = group.run_ranks

        def stamped(fn, *, parallel=True):
            if self._clock is not None:
                self._clock.step_begins()
            if tracer is None:
                out = run_ranks(fn, parallel=parallel)
            else:
                tracer.op_id += 1
                out = tracer.timed("runtime.run_ranks", run_ranks, fn,
                                   parallel=parallel)
            self.step_losses.append(out)
            return out

        group.run_ranks = stamped

    def _timed_epoch(self, trainer, epoch: int):
        """One ``train_epoch`` under a step clock: the clock, the epoch's
        loss, the per-step mean losses and how many ops failed."""
        from repro.runtime import RankFailure

        del self.step_losses[:]
        failed, epoch_loss = 0, float("nan")
        self._clock = clock = _StepClock(self.ref_every)
        try:
            epoch_loss = trainer.train_epoch(epoch)
        except RankFailure:
            self.rank_failures += 1
            failed = 1
            self._note_failure(traceback.format_exc(limit=3))
        except Exception:
            failed = 1
            self._note_failure(traceback.format_exc(limit=3))
        clock.epoch_ends()
        self._clock = None
        losses = [float(np.mean(rank)) for rank in self.step_losses]
        failed += sum(not math.isfinite(v) for v in losses)
        return clock, epoch_loss, losses[:len(clock.op_ms)], failed

    def segment(self, index: int) -> dict:
        transport, stats = self.group.transport, self.group.stats
        compute0 = transport.compute_time.copy()
        bytes0, ops0 = stats.bytes_by_category.get("gradient", 0), stats.ops
        mark = len(self.tracer.spans) if self.tracer is not None else 0
        clock, epoch_loss, losses, failed = self._timed_epoch(self.trainer,
                                                              index)
        steps = len(clock.op_ms)
        if index == 0:
            self.epoch0_loss, self.epoch0_losses = epoch_loss, losses
        phase = {
            **clock.summary(),
            "op_ms": clock.op_ms, "wall_s": sum(clock.op_ms) / 1e3,
            "windows": steps * self.windows_per_op,
            "attempted": max(steps, 1), "failed": min(failed, max(steps, 1)),
            "losses": losses,
            "rank_compute_s": (transport.compute_time - compute0).tolist(),
            "allreduce_calls": stats.ops - ops0,
            "allreduce_bytes": stats.bytes_by_category.get("gradient", 0)
            - bytes0,
        }
        if self.tracer is not None:
            phase["spans"] = self.tracer.totals(mark)
        return {"ops": phase}

    def finish(self) -> dict:
        from repro.runtime import ProcessGroup

        self.group.transport.shutdown()
        # Transport invariance: simulated ranks, same seed, same bits ...
        ref, _ = self._build(self.ds, ProcessGroup.sim(self.WORLD))
        self._warm_up(ref)
        checks = {"epoch0_equals_sim_bitwise":
                  ref.train_epoch(0) == self.epoch0_loss,
                  # ... and real forked ranks over shared memory too.
                  "forked_equals_inline_bitwise": self._forked()}
        self.layers["runtime.rank_failures"] = self.rank_failures
        if self.tracer is not None:
            self._kernel_probes(self.ctx.supports, self.RANK_BATCH,
                                self.trainer.model.in_features, self.HIDDEN,
                                grad=True)
        return checks

    def _forked(self) -> bool:
        """The first steps of epoch 0 again on real forked ranks
        (``ProcessTransport``: a fork per rank and step, results over
        shared memory).  Gives the fabric's per-layer numbers, as measured,
        and returns whether the losses equal the timed run's bitwise."""
        from repro.runtime import ProcessGroup, ProcessTransport

        group = ProcessGroup(ProcessTransport(self.WORLD))
        transport = group.transport
        trainer, _ = self._build(self.ds, group)
        self._warm_up(trainer)
        in_ranks = [0.0]
        run_ranks = group.run_ranks

        def timed_run_ranks(fn, *, parallel=True):
            t0 = time.perf_counter()
            try:
                return run_ranks(fn, parallel=parallel)
            finally:
                in_ranks[0] += time.perf_counter() - t0

        group.run_ranks = timed_run_ranks
        self._wrap_run_ranks(group, None)
        _truncate_plan(trainer.sampler, self.FORKED_STEPS)
        compute0 = transport.compute_time.copy()
        clock, _, losses, failed = self._timed_epoch(trainer, 0)
        steps = max(1, len(clock.op_ms))
        slowest_rank_s = float(max(transport.compute_time - compute0))
        self.layers["runtime.forked_step_ms"] = clock.summary()["at_ref_ms"]
        self.layers["runtime.fabric_overhead_ms"] = (
            (in_ranks[0] - slowest_rank_s) * 1e3 / steps)
        self.layers["runtime.child_peak_rss_mb"] = resource.getrusage(
            resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
        transport.shutdown()
        return (not failed and len(losses) > 0
                and losses == self.epoch0_losses[:len(losses)])


class _StepClock(Paired):
    """Step durations of one ``train_epoch`` from its ``run_ranks`` calls.

    A step lasts from one call to the next, the last one to the end of the
    epoch, so the steps (and the reference passes taken between them)
    tile the epoch from its first ``run_ranks`` on.
    """

    def __init__(self, ref_every: int):
        super().__init__(ref_every)
        self._open = None

    def _step_ends(self) -> None:
        if self._open is not None:
            self.op_ms.append((time.perf_counter() - self._open) * 1e3)

    def step_begins(self) -> None:
        self._step_ends()
        self.before_op()
        self._open = time.perf_counter()

    def epoch_ends(self) -> None:
        self._step_ends()
        self.close()
        self._open = None


# ----------------------------------------------------------------------
# serve_gateway
# ----------------------------------------------------------------------
class ServeGateway(Workload):
    name = "serve_gateway"
    #: Open-loop offered rate, fixed once on the sizing box (busy share
    #: 0.25 to 0.36 there, below the 0.8 ceiling); never tuned again.
    RATE_PER_S = 300.0
    REPEAT_SHARE, REPEAT_SPAN = 0.30, 32
    BURST = 8
    #: Bursts between two reference passes in the capacity phase; the
    #: open-loop phase runs undisturbed and is reported as measured.
    ref_every = 5
    #: Share of a segment's time budget spent in the open-loop phase.
    OPEN_SHARE = 0.8
    NOMINAL_BURST_S = 0.0048
    #: Every n-th ``ok`` forecast is recomputed directly and compared.
    VERIFY_EVERY = 4
    DEPLOYMENT = "bay"
    KEYS = ("key-ops", "key-research")

    def setup(self) -> None:
        from repro.api import RunSpec, build_gateway, run
        from repro.api.registry import BATCHINGS, DATASETS
        from repro.graph.supports import dual_random_walk_supports

        registry_get = DATASETS.get

        def timed_get(name):
            builder = registry_get(name)
            return lambda **kw: self._timed("datasets.generate_s", builder,
                                            **kw)

        DATASETS.get = timed_get
        try:
            result = run(RunSpec("pems-bay", scale="small", epochs=1,
                                 seed=DATA_SEED))
        finally:
            del DATASETS.get
        art = result.artifacts
        # run() reaches these two seams internally: replay them on its inputs.
        self._timed("graph.supports_s", dual_random_walk_supports,
                    art.dataset.graph.weights)
        self._timed("preprocessing.index_build_s", BATCHINGS.get("index"),
                    art.dataset, art.context.horizon,
                    art.loaders.train.batch_size)

        def build():
            gw = build_gateway(
                {self.DEPLOYMENT: result}, tenants=["ops", "research"],
                clock=time.perf_counter, service_time=None, cache_ttl=30.0,
                max_batch=self.BURST, max_wait=0.002)
            gw.deployments.get(self.DEPLOYMENT).warm()
            return gw

        self.gw = self._timed("api.build_gateway_s", build)
        dep = self.gw.deployments.get(self.DEPLOYMENT)
        self.session, self.service = dep.session, dep.service
        self.supports = art.context.supports
        test = art.loaders.test
        self.base = test.batch_at(np.arange(test.num_snapshots))[0].copy()
        self.corrupt_next = False   # smoke test: proves the check bites
        seg_s = self.seconds / SEGMENTS
        self.open_s = self.OPEN_SHARE * seg_s
        self.bursts = max(1, round((1 - self.OPEN_SHARE) * seg_s
                                   / self.NOMINAL_BURST_S))
        if self.tracer is not None:
            t = self.tracer
            t.wrap(self.gw, "submit", "serving.gateway.submit")
            t.wrap(self.gw, "poll", "serving.gateway.poll")
            t.wrap(self.gw, "flush", "serving.gateway.poll")
            t.wrap(self.session, "predict", "serving.predict")
            t.wrap(self.gw.admission, "admit", "serving.gateway.admit")
            t.wrap(self.gw.tenants, "authenticate", "serving.gateway.auth")
        for i in range(WARMUP_OPS):
            self.gw.request(self.KEYS[0], self.DEPLOYMENT,
                            self._windows(np.random.default_rng(i), 1)[0])

    def _windows(self, rng, n: int) -> np.ndarray:
        """``n`` windows no request has carried before: real test windows
        plus seeded noise, so no two are bitwise equal."""
        pick = rng.integers(0, len(self.base), n)
        noise = rng.standard_normal((n,) + self.base.shape[1:]) * 0.01
        return self.base[pick] + noise.astype(np.float32)

    def _verify(self, windows, answers) -> int:
        """Wrong answers among ``(window index, status, predictions)``:
        ``ok`` must equal a direct ``session.predict`` (+ unit inversion),
        ``cached`` must equal the first computation of the same window."""
        wrong, first = 0, {}
        for w, status, preds in answers:
            if status == "ok":
                first.setdefault(w, preds)
        for w, status, preds in answers:
            if status == "cached":
                wrong += w not in first or not np.array_equal(preds, first[w])
        sample = [a for a in answers if a[1] == "ok"][::self.VERIFY_EVERY]
        for i in range(0, len(sample), self.BURST):
            chunk = sample[i:i + self.BURST]
            direct = self.session.to_original_units(self.session.predict(
                np.stack([windows[w] for w, _, _ in chunk])))
            for row, (_, _, preds) in zip(direct, chunk):
                wrong += not np.array_equal(row, preds)
        return wrong

    def _open_loop(self, rng) -> dict:
        """Open loop: Poisson arrivals at ``RATE_PER_S`` whatever the
        gateway does, one uninterrupted schedule per segment; a request's
        latency runs from its due time.  The single-threaded generator
        submits every request that is due, then polls, sleeping at most
        0.5 ms."""
        n = max(8, round(self.RATE_PER_S * self.open_s))
        due = np.cumsum(rng.exponential(1.0 / self.RATE_PER_S, n))
        fresh = self._windows(rng, n)
        carries = np.arange(n)         # which window request k carries
        for k in range(1, n):
            if rng.random() < self.REPEAT_SHARE:
                carries[k] = carries[k - 1 - rng.integers(
                    0, min(self.REPEAT_SPAN, k))]
        gw, name, keys = self.gw, self.DEPLOYMENT, self.KEYS
        stats = self.service.stats
        busy0, req0, batch0 = (stats.busy_seconds, stats.requests,
                               stats.batches)
        hits0 = gw.stats.cache_hits
        tracer = self.tracer
        mark = len(tracer.spans) if tracer is not None else 0
        latency = np.full(n, np.nan)
        late_by = np.empty(n)
        answers, waits, bad = [], [], 0
        pending = {}
        t0, k = time.perf_counter(), 0
        while k < n or pending:
            now = time.perf_counter() - t0
            while k < n and due[k] <= now:
                late_by[k] = now - due[k]
                resp = gw.submit(keys[k % 2], name, fresh[carries[k]])
                now = time.perf_counter() - t0
                if resp.status == "admitted":
                    pending[resp.request_id] = k
                elif resp.status == "cached":
                    latency[k] = now - due[k]
                    answers.append((carries[k], "cached",
                                    resp.forecast.predictions))
                else:
                    bad += 1
                k += 1
            done = gw.poll()
            now = time.perf_counter() - t0
            for resp in done:
                j = pending.pop(resp.request_id, None)
                if j is None or resp.status != "ok":
                    bad += 1
                    continue
                latency[j] = now - due[j]
                waits.append(resp.forecast.queue_wait)
                answers.append((carries[j], "ok", resp.forecast.predictions))
            if k < n:
                time.sleep(max(0.0, min(0.0005, due[k] - now)))
            elif now > due[-1] + 5.0:
                bad += len(pending)     # never completed: failed, not hung
                break
            elif pending:
                time.sleep(0.0002)
        wall = time.perf_counter() - t0
        spans = tracer.totals(mark) if tracer is not None else None
        if self.corrupt_next:
            answers[0][2][0, 0] += 1.0
            self.corrupt_next = False
        wrong = self._verify(fresh, answers)
        bad += wrong
        finite = latency[np.isfinite(latency)]
        phase = {
            "op_ms": (finite * 1e3).tolist(), "wall_s": wall,
            "windows": len(finite),
            "attempted": n, "failed": min(n, bad), "wrong_answers": wrong,
            "late": int(n - np.count_nonzero(finite <= LATENCY_LIMIT_S)),
            "generator_late_ms_p99": float(np.quantile(late_by, 0.99) * 1e3),
            "queue_wait_ms": statistics.fmean(waits) * 1e3 if waits else 0.0,
            "batch_size_mean": ((stats.requests - req0)
                                / max(1, stats.batches - batch0)),
            "busy_share": (stats.busy_seconds - busy0) / wall,
            "cache_hit_ratio": (gw.stats.cache_hits - hits0) / n,
        }
        if spans is not None:
            phase["spans"] = spans
        return phase

    def _capacity(self, rng) -> dict:
        """Closed loop, one client: bursts of 8 unique submits + flush."""
        n = self.bursts * self.BURST
        fresh = self._windows(rng, n)
        gw, name, keys = self.gw, self.DEPLOYMENT, self.KEYS
        tracer = self.tracer
        mark = len(tracer.spans) if tracer is not None else 0
        paired = Paired(self.ref_every)
        burst_ms, answers, bad = paired.op_ms, [], 0
        for b in range(self.bursts):
            paired.before_op()
            t0 = time.perf_counter()
            ids = {}
            for i in range(b * self.BURST, (b + 1) * self.BURST):
                resp = gw.submit(keys[i % 2], name, fresh[i])
                if resp.status == "admitted":
                    ids[resp.request_id] = i
                else:
                    bad += 1
            for resp in gw.flush():
                i = ids.pop(resp.request_id, None)
                if i is None or resp.status != "ok":
                    bad += 1
                else:
                    answers.append((i, "ok", resp.forecast.predictions))
            bad += len(ids)
            burst_ms.append((time.perf_counter() - t0) * 1e3)
        paired.close()
        spans = tracer.totals(mark) if tracer is not None else None
        wrong = self._verify(fresh, answers)
        bad += wrong
        phase = {**paired.summary(),
                 "op_ms": burst_ms, "wall_s": sum(burst_ms) / 1e3,
                 "windows": len(answers), "attempted": n,
                 "failed": min(n, bad), "wrong_answers": wrong}
        if spans is not None:
            phase["spans"] = spans
        return phase

    def segment(self, index: int) -> dict:
        rng = np.random.default_rng([self.seed, index])
        return {"open": self._open_loop(rng), "capacity": self._capacity(rng)}

    def finish(self) -> dict:
        stats = self.gw.stats
        self.layers["serving.gateway.shed"] = stats.shed
        self.layers["serving.gateway.degraded"] = stats.degraded
        self.layers["serving.gateway.failed"] = stats.failed
        if self.tracer is not None:
            from repro.serving.gateway.result_cache import cache_key

            rng = np.random.default_rng(self.seed)
            wins = self._windows(rng, self.BURST)
            for b in (1, self.BURST):
                staged = self.session.stage(b)
                staged[:] = wins[:b]
                self.layers[f"serving.predict_ms_b{b}"] = _median_ms(
                    lambda: self.session.predict(staged), 30)
            self.layers["serving.gateway.cache_key_us"] = 1e3 * _median_ms(
                lambda: cache_key(self.DEPLOYMENT, "v1", wins[0]), 200)
            self._kernel_probes(self.supports, self.BURST,
                                self.session.in_features,
                                self.session.model.hidden_dim, grad=False)
        # Every response was compared as it arrived (``wrong_answers``);
        # here only that nothing is left queued.
        return {"nothing_left_pending": not len(self.service.queue)
                and not self.gw.flush()}


WORKLOADS = {w.name: w for w in (TrainIndex, DataIndex, DdpIndexW2,
                                 ServeGateway)}
