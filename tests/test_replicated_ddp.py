"""Literal per-replica DDP as a test-side reference.

:class:`~repro.training.ddp.DDPTrainer` computes per-rank microbatch
gradients against one shared parameter set (or replicas aliasing it),
which equals DDP as long as replicas never diverge.  The reference here
is the literal thing: one model replica and one optimizer per rank, each
with its *own* parameter storage, gradients averaged through the process
group.  It checks the equivalence instead of assuming it, the way real
DDP runs with synchronisation checks enabled.
"""

import numpy as np
import pytest

from repro.autograd.tensor import Tensor
from repro.batching import IndexBatchLoader
from repro.batching.samplers import GlobalShuffleSampler
from repro.datasets import load_dataset
from repro.graph import dual_random_walk_supports
from repro.models import PGTDCRNN
from repro.optim import Adam
from repro.optim.losses import l1_loss
from repro.preprocessing import IndexDataset
from repro.runtime import ProcessGroup
from repro.training import DDPTrainer


class LiteralReplicatedDDP:
    """One replica and one Adam per rank; no parameter is shared."""

    def __init__(self, factory, pg, loader, *, lr=0.01, seed=0):
        self.pg, self.loader = pg, loader
        self.replicas = [factory() for _ in range(pg.world_size)]
        self.optimizers = [Adam(m.parameters(), lr=lr) for m in self.replicas]
        self.sampler = GlobalShuffleSampler(
            loader.num_snapshots, loader.batch_size,
            world_size=pg.world_size, seed=seed)

    def train_epoch(self, epoch, *, sync_check=True):
        plan = self.sampler.epoch_plan(epoch)
        losses = []
        for step in range(min(len(b) for b in plan)):
            for model, sel in zip(self.replicas, (p[step] for p in plan)):
                x, y = self.loader.batch_at(sel)
                loss = l1_loss(model(Tensor(x)), y[..., :1].astype(np.float32))
                model.zero_grad()
                loss.backward()
                losses.append(float(loss.item()))
            per_param = zip(*(opt.params for opt in self.optimizers))
            for params in per_param:
                reduced = self.pg.allreduce([p.grad for p in params], op="mean")
                for p, g in zip(params, reduced):
                    p.grad = g
            for opt in self.optimizers:
                opt.step()
            if sync_check:
                self.assert_replicas_in_sync()
        return float(np.mean(losses))

    def assert_replicas_in_sync(self):
        ref = self.replicas[0].state_dict()
        for r, replica in enumerate(self.replicas[1:], start=1):
            for name, arr in replica.state_dict().items():
                if not np.array_equal(ref[name], arr):
                    raise AssertionError(
                        f"replica {r} diverged from replica 0 at {name!r}")


@pytest.fixture(scope="module")
def setup():
    ds = load_dataset("pems-bay", nodes=8, entries=200, seed=9)
    idx = IndexDataset.from_dataset(ds, horizon=4)
    supports = dual_random_walk_supports(ds.graph.weights)

    def factory():
        return PGTDCRNN(supports, 4, 2, hidden_dim=8, seed=42)

    return idx, factory


class TestReplicatedDDP:
    def test_replicas_stay_in_sync_through_training(self, setup):
        idx, factory = setup
        ref = LiteralReplicatedDDP(factory, ProcessGroup.sim(4),
                                   IndexBatchLoader(idx, "train", 8))
        assert np.isfinite(ref.train_epoch(0))
        ref.assert_replicas_in_sync()  # explicit re-check

    def test_matches_shared_model_ddp(self, setup):
        """The literal replicated reference produces the same parameter
        bits as the shared-model DDPTrainer."""
        idx, factory = setup
        ref = LiteralReplicatedDDP(factory, ProcessGroup.sim(4),
                                   IndexBatchLoader(idx, "train", 8),
                                   lr=0.01, seed=11)
        ref.train_epoch(0, sync_check=False)

        shared_model = factory()
        shared = DDPTrainer(
            shared_model, Adam(shared_model.parameters(), lr=0.01),
            ProcessGroup.sim(4), IndexBatchLoader(idx, "train", 8),
            shuffle="global", seed=11, clip_norm=0.0)
        shared.train_epoch(0)

        expected = ref.replicas[0].state_dict()
        for name, arr in shared_model.state_dict().items():
            np.testing.assert_array_equal(arr, expected[name], err_msg=name)

    def test_sync_assert_catches_drift(self, setup):
        idx, factory = setup
        ref = LiteralReplicatedDDP(factory, ProcessGroup.sim(2),
                                   IndexBatchLoader(idx, "train", 8))
        ref.replicas[1].proj.weight.data += 1.0  # inject drift
        with pytest.raises(AssertionError, match="diverged"):
            ref.assert_replicas_in_sync()
