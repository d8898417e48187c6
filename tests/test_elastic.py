"""Checkpoints are world-free: ``DDPTrainer.resume`` takes any world
with the archive's global batch.

The load-bearing pins:

- resume at W', save, resume at W == uninterrupted run, **bitwise**, for
  every DDP strategy (nothing numeric moves at an epoch boundary);
- under a global shuffle, an archive written at W and resumed at W'
  matches a *fresh* W'-world run to 1e-6 — including W' = 1 and W' > W —
  because the preserved global batch walks the same per-step sample sets;
- partition-dependent shuffles change world only at epoch boundaries and
  refuse mid-epoch cursors loudly;
- a resume at a new world gives identical bits on every transport;
- a different global batch is refused, naming both.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.batching import IndexBatchLoader
from repro.datasets import load_dataset
from repro.graph import dual_random_walk_supports
from repro.models import PGTDCRNN
from repro.optim import Adam
from repro.preprocessing import IndexDataset
from repro.runtime import ProcessGroup
from repro.training import DDPStrategy, DDPTrainer, train_with_recovery
from repro.training.checkpoint import _read_archive, read_checkpoint_meta
from repro.utils.errors import CheckpointError
from repro.utils.files import savez_atomic

SEED = 0
EPOCHS = 2
GLOBAL_BATCH = 16          # world x per-rank batch, kept across worlds


@pytest.fixture(scope="module")
def data():
    ds = load_dataset("pems-bay", nodes=10, entries=260, seed=SEED)
    idx = IndexDataset.from_dataset(ds, horizon=4)
    supports = dual_random_walk_supports(ds.graph.weights)
    return idx, supports


def make_trainer(data, *, world=2, strategy=DDPStrategy.DIST_INDEX,
                 transport="sim", ckpt=None, checkpoint_every=None,
                 batch=None, **kw):
    idx, supports = data
    if batch is None:
        batch, rem = divmod(GLOBAL_BATCH, world)
        assert rem == 0
    model = PGTDCRNN(supports, horizon=4, in_features=2, hidden_dim=8,
                     seed=SEED)
    pg = {"sim": ProcessGroup.sim,
          "process": ProcessGroup.processes}[transport](world)
    return DDPTrainer(
        model, Adam(model.parameters(), lr=0.01), pg,
        IndexBatchLoader(idx, "train", batch),
        IndexBatchLoader(idx, "val", batch),
        strategy=strategy, seed=SEED,
        # Gradient clipping is applied per rank *before* averaging, so it
        # is batch-size-nonlinear: fresh-run equivalence across worlds
        # only holds without it (round trips back to the same world stay
        # bitwise either way).
        clip_norm=0.0,
        checkpoint_every=checkpoint_every if ckpt else None,
        checkpoint_path=ckpt, **kw)


def curve(history):
    return [(h.train_loss, h.val_mae) for h in history]


def boundary_checkpoint(data, path, *, strategy=DDPStrategy.DIST_INDEX,
                        epochs=1, **kw):
    """Train ``epochs`` at world 2 and save an epoch-boundary cursor."""
    tr = make_trainer(data, world=2, strategy=strategy, **kw)
    tr.fit(epochs)
    tr.save_training_checkpoint(path, epoch=epochs, step=0)
    return tr


def training_state(path):
    return read_checkpoint_meta(path)["extra"]["training_state"]


def relaunch(data, src, world, out, **kw):
    """Resume ``src`` at ``world`` and save the cursor, untrained, to
    ``out``: the archive a world-``world`` run would write next."""
    tr = make_trainer(data, world=world, **kw)
    tr.resume(src)
    tr.save_training_checkpoint(out)


# ---------------------------------------------------------------------------
# Tentpole pin 1: round trips are bitwise for every strategy
# ---------------------------------------------------------------------------
class TestReshardRoundTrip:
    @pytest.mark.parametrize("strategy", list(DDPStrategy))
    def test_w2_w4_w2_resume_is_bitwise(self, data, tmp_path, strategy):
        reference = curve(make_trainer(data, strategy=strategy).fit(EPOCHS))
        ckpt = str(tmp_path / "round.npz")
        boundary_checkpoint(data, ckpt, strategy=strategy)
        relaunch(data, ckpt, 4, ckpt, strategy=strategy)
        assert training_state(ckpt)["world_size"] == 4
        resumed = make_trainer(data, strategy=strategy)
        resumed.resume(ckpt)
        assert curve(resumed.fit(EPOCHS)) == reference


# ---------------------------------------------------------------------------
# Tentpole pin 2: fresh-run equivalence under world-invariant shuffles
# ---------------------------------------------------------------------------
class TestFreshRunMatch:
    """Global shuffle deals one world-independent permutation round-robin,
    so a W-trained prefix resumed at W' continues exactly where a fresh W'
    run would be — to float-regrouping tolerance (1e-6 class)."""

    STRATEGIES = [DDPStrategy.BASELINE_DDP, DDPStrategy.DIST_INDEX]

    @pytest.mark.parametrize("strategy", STRATEGIES)
    @pytest.mark.parametrize("new_world", [1, 4])   # W' < W and W' > W
    def test_boundary_reshard_matches_fresh_world(self, data, tmp_path,
                                                  strategy, new_world):
        fresh = curve(make_trainer(data, world=new_world,
                                   strategy=strategy).fit(EPOCHS))
        ckpt = str(tmp_path / f"to{new_world}.npz")
        boundary_checkpoint(data, ckpt, strategy=strategy)
        resumed = make_trainer(data, world=new_world, strategy=strategy)
        resumed.resume(ckpt)
        got = curve(resumed.fit(EPOCHS))
        # Epoch 0 predates the resume (trained at world 2); every epoch
        # after the world change must match the fresh-W' curve.
        np.testing.assert_allclose(got[1:], fresh[1:], atol=1e-6, rtol=0)

    def test_midepoch_global_cursor_transfers(self, data, tmp_path):
        """A mid-epoch cursor under the global shuffle resumes at a new
        world and still lands on the fresh-run curve: the step covers
        the same permutation slice at any world."""
        fresh = curve(make_trainer(data, world=4).fit(1))
        ckpt = str(tmp_path / "mid.npz")
        tr = make_trainer(data, world=2, ckpt=ckpt, checkpoint_every=6)
        tr.fit(1)
        state = training_state(ckpt)
        assert 0 < state["step"] < state["epoch_steps"]   # genuinely mid
        resumed = make_trainer(data, world=4)
        resumed.resume(ckpt)
        # Partial-epoch losses are reweighted to new-world entry counts
        # around their exact mean, keeping the epoch mean unskewed.
        epoch, step, losses = resumed._resume_cursor
        assert (epoch, step) == (state["epoch"], state["step"])
        assert len(losses) == state["step"] * 4
        np.testing.assert_allclose(np.mean(losses),
                                   np.mean(state["epoch_losses"]))
        got = curve(resumed.fit(1))
        np.testing.assert_allclose(got, fresh, atol=1e-5, rtol=1e-5)


    def test_midepoch_global_cursor_shrinks_world(self, data, tmp_path):
        """The same transfer to world 1: one rank walks the whole global
        batch of each remaining step."""
        fresh = curve(make_trainer(data, world=1).fit(1))
        ckpt = str(tmp_path / "mid-w1.npz")
        make_trainer(data, world=2, ckpt=ckpt, checkpoint_every=6).fit(1)
        narrow = make_trainer(data, world=1)
        narrow.resume(ckpt)
        got = curve(narrow.fit(1))
        np.testing.assert_allclose(got, fresh, atol=1e-5, rtol=1e-5)

class TestSaveBeforeFit:
    """What a trainer does between ``resume`` and ``fit``."""

    def test_save_keeps_the_pending_midepoch_cursor(self, data, tmp_path):
        """Saving a resumed trainer before it fits once wrote ``step=0``
        and no losses, dropping the walked prefix of epoch 0; it writes
        the cursor it resumed at, and the continuation is bitwise."""
        reference = curve(make_trainer(data).fit(EPOCHS))
        ckpt, again = str(tmp_path / "mid.npz"), str(tmp_path / "again.npz")
        make_trainer(data, ckpt=ckpt, checkpoint_every=6).fit(1)
        relaunch(data, ckpt, 2, again)
        state = training_state(again)
        assert (state["epoch"], state["step"]) == (0, 6)
        assert state == training_state(ckpt)
        resumed = make_trainer(data)
        resumed.resume(again)
        assert curve(resumed.fit(EPOCHS)) == reference

    def test_resume_reads_the_archive_once(self, data, tmp_path,
                                           monkeypatch):
        from repro.training import checkpoint

        ckpt = str(tmp_path / "once.npz")
        boundary_checkpoint(data, ckpt)
        reads, read = [], checkpoint._read_archive
        monkeypatch.setattr(checkpoint, "_read_archive",
                            lambda path: reads.append(path) or read(path))
        make_trainer(data).resume(ckpt)
        assert reads == [ckpt]


class TestPartitionDependentShuffles:
    """GENERALIZED_INDEX defaults to the paper's batch shuffle, whose
    per-rank order keys on the partition: no cross-world bitwise claim
    exists, but an epoch-boundary world change stays sound and deterministic
    (the paper's Table-5 accuracy-equivalence argument)."""

    def test_boundary_reshard_is_deterministic(self, data, tmp_path):
        ckpt = str(tmp_path / "gen.npz")
        boundary_checkpoint(data, ckpt,
                            strategy=DDPStrategy.GENERALIZED_INDEX)

        def continuation():
            tr = make_trainer(data, world=4,
                              strategy=DDPStrategy.GENERALIZED_INDEX)
            tr.resume(ckpt)
            return curve(tr.fit(EPOCHS))

        first = continuation()
        assert continuation() == first          # pinned deterministic

    def test_accuracy_level_equivalence(self, data, tmp_path):
        fresh = make_trainer(
            data, world=4,
            strategy=DDPStrategy.GENERALIZED_INDEX).fit(EPOCHS)
        ckpt = str(tmp_path / "gen-acc.npz")
        boundary_checkpoint(data, ckpt,
                            strategy=DDPStrategy.GENERALIZED_INDEX)
        resumed = make_trainer(data, world=4,
                               strategy=DDPStrategy.GENERALIZED_INDEX)
        resumed.resume(ckpt)
        got = resumed.fit(EPOCHS)
        assert abs(got[-1].val_mae - fresh[-1].val_mae) \
            < 0.25 * fresh[-1].val_mae

    def test_midepoch_cursor_is_refused(self, data, tmp_path):
        ckpt = str(tmp_path / "gen-mid.npz")
        tr = make_trainer(data, world=2,
                          strategy=DDPStrategy.GENERALIZED_INDEX,
                          ckpt=ckpt, checkpoint_every=6)
        tr.fit(1)
        wide = make_trainer(data, world=4,
                            strategy=DDPStrategy.GENERALIZED_INDEX)
        with pytest.raises(ValueError, match="mid-epoch.*epoch-boundary"):
            wide.resume(ckpt)
        # Refusal must restore nothing, and the archive still resumes at
        # its own world.
        assert wide.global_step == 0 and wide.history == []
        again = make_trainer(data, world=2,
                             strategy=DDPStrategy.GENERALIZED_INDEX)
        again.resume(ckpt)


    def test_midepoch_local_cursor_is_refused(self, data, tmp_path):
        ckpt = str(tmp_path / "local-mid.npz")
        make_trainer(data, world=2, shuffle="local", ckpt=ckpt,
                     checkpoint_every=6).fit(1)
        with pytest.raises(ValueError, match="shuffle='local'"):
            make_trainer(data, world=4, shuffle="local").resume(ckpt)

    def test_epoch_end_cursor_changes_world(self, data, tmp_path):
        """A cursor saved after an epoch's last step is a boundary, not
        mid-epoch: a new world resumes it, re-records that epoch's
        training loss from the archive's losses bit for bit, and then
        trains exactly as from the next epoch's boundary."""
        gen = DDPStrategy.GENERALIZED_INDEX
        ckpt = str(tmp_path / "gen-end.npz")
        first = make_trainer(data, world=2, strategy=gen, ckpt=ckpt,
                             checkpoint_every=11)
        loss0 = first.fit(1)[0].train_loss
        state = training_state(ckpt)
        assert state["step"] == state["epoch_steps"] == 11
        at_end = make_trainer(data, world=4, strategy=gen)
        at_end.resume(ckpt)
        got = curve(at_end.fit(EPOCHS))
        boundary = str(tmp_path / "gen-boundary.npz")
        first.save_training_checkpoint(boundary)
        at_boundary = make_trainer(data, world=4, strategy=gen)
        at_boundary.resume(boundary)
        assert got[0][0] == loss0
        assert got[1:] == curve(at_boundary.fit(EPOCHS))[1:]

# ---------------------------------------------------------------------------
# Transports: a resume at a new world is fabric-agnostic
# ---------------------------------------------------------------------------
class TestCrossTransport:
    @pytest.mark.parametrize("transport", ["process"])
    def test_resharded_resume_matches_sim_bitwise(self, data, tmp_path,
                                                  transport):
        ckpt = str(tmp_path / f"{transport}.npz")
        boundary_checkpoint(data, ckpt)
        sim = make_trainer(data, world=4)
        sim.resume(ckpt)
        reference = curve(sim.fit(EPOCHS))
        other = make_trainer(data, world=4, transport=transport)
        try:
            other.resume(ckpt)
            got = curve(other.fit(EPOCHS))
        finally:
            shutdown = getattr(other.comm.transport, "shutdown", None)
            if shutdown:
                shutdown()
        assert got == reference


# ---------------------------------------------------------------------------
# Property: world changes compose over the divisor lattice
# ---------------------------------------------------------------------------
class TestReshardProperties:
    @pytest.fixture(scope="class")
    def archive(self, data, tmp_path_factory):
        path = str(tmp_path_factory.mktemp("elastic") / "base.npz")
        boundary_checkpoint(data, path)
        return path

    @settings(max_examples=15, deadline=None)
    @given(worlds=st.lists(st.sampled_from([1, 2, 4, 8, 16]),
                           min_size=1, max_size=4))
    def test_chained_reshards_compose(self, data, archive,
                                      tmp_path_factory, worlds):
        """Resuming and saving at w1, ..., wn == resuming at wn: the
        cursor mapping is path-independent (state and arrays)."""
        base = tmp_path_factory.mktemp("prop")
        chained = str(base / "chained.npz")
        direct = str(base / "direct.npz")
        relaunch(data, archive, worlds[0], chained)
        for w in worlds[1:]:
            relaunch(data, chained, w, chained)
        relaunch(data, archive, worlds[-1], direct)

        s_chain, s_direct = training_state(chained), training_state(direct)
        assert s_chain == s_direct
        assert s_chain["world_size"] == worlds[-1]
        assert s_chain["batch_size"] * worlds[-1] == GLOBAL_BATCH
        with np.load(chained) as a, np.load(direct) as b:
            keys = set(a.files) - {"__meta__"}
            assert keys == set(b.files) - {"__meta__"}
            for k in keys:
                np.testing.assert_array_equal(a[k], b[k])


# ---------------------------------------------------------------------------
# Refusals: every unsound transformation fails loudly
# ---------------------------------------------------------------------------
class TestResumeRefusals:
    @pytest.fixture(scope="class")
    def archive(self, data, tmp_path_factory):
        path = str(tmp_path_factory.mktemp("errs") / "base.npz")
        boundary_checkpoint(data, path)
        return path

    def test_indivisible_world_refused(self, data, archive):
        three = make_trainer(data, world=3, batch=5)
        with pytest.raises(ValueError, match="global batch of 16.*is 15"):
            three.resume(archive)

    def test_non_resumable_checkpoint_refused(self, data, tmp_path):
        from repro.training.checkpoint import save_checkpoint
        idx, supports = data
        model = PGTDCRNN(supports, 4, 2, hidden_dim=8, seed=SEED)
        path = str(tmp_path / "plain.npz")
        save_checkpoint(path, model)
        with pytest.raises(ValueError, match="training cursor"):
            make_trainer(data, world=4).resume(path)

    def test_missing_archive_is_checkpoint_error(self, data, tmp_path):
        with pytest.raises(CheckpointError):
            make_trainer(data).resume(str(tmp_path / "nope.npz"))

    def test_archive_without_batch_size_resumes_only_at_its_world(
            self, data, archive, tmp_path):
        """An archive with no recorded per-rank batch has no known global
        batch: its own world resumes it, any other is refused."""
        legacy = str(tmp_path / "legacy.npz")
        arrays = _read_archive(archive)
        meta = json.loads(bytes(arrays["__meta__"]).decode())
        state = meta["extra"]["training_state"]
        del state["batch_size"], state["epoch_steps"]
        arrays["__meta__"] = np.frombuffer(
            json.dumps(meta).encode(), dtype=np.uint8)
        savez_atomic(legacy, arrays)
        with pytest.raises(ValueError, match="no per-rank batch_size"):
            make_trainer(data, world=4).resume(legacy)
        make_trainer(data).resume(legacy)

    def test_resume_with_wrong_loader_batch_refused(self, data, tmp_path,
                                                    archive):
        """The world changed but the loaders were not grown to keep the
        global batch, so resume() refuses and names the fix."""
        idx, supports = data
        model = PGTDCRNN(supports, 4, 2, hidden_dim=8, seed=SEED)
        wrong = DDPTrainer(model, Adam(model.parameters(), lr=0.01),
                           ProcessGroup.sim(1),
                           IndexBatchLoader(idx, "train", 8),  # not 16
                           seed=SEED, clip_norm=0.0)
        with pytest.raises(ValueError, match="batch_size=16"):
            wrong.resume(archive)


# ---------------------------------------------------------------------------
# Recovery integration: a relaunch at a new world resumes
# ---------------------------------------------------------------------------
class TestElasticRecovery:
    def test_relaunch_at_new_world_resumes(self, data, tmp_path):
        ckpt = str(tmp_path / "elastic.npz")
        fresh4 = curve(make_trainer(data, world=4).fit(EPOCHS))
        tr2 = make_trainer(data, world=2)
        tr2.fit(1)
        tr2.save_training_checkpoint(ckpt, epoch=1, step=0)

        def relaunch_at_4():
            return make_trainer(data, world=4, ckpt=ckpt,
                                checkpoint_every=4)

        trainer, history, report = train_with_recovery(relaunch_at_4, EPOCHS)
        assert report.restarts == 0
        np.testing.assert_allclose(curve(history)[1:], fresh4[1:],
                                   atol=1e-6, rtol=1e-6)
        assert training_state(ckpt)["world_size"] == 4

    def test_different_global_batch_is_refused(self, data, tmp_path):
        ckpt = str(tmp_path / "strict.npz")
        boundary_checkpoint(data, ckpt)
        with pytest.raises(ValueError,
                           match="global batch of 16.*is 32 \\(4 x 8\\)"):
            train_with_recovery(
                lambda: make_trainer(data, world=4, batch=8, ckpt=ckpt,
                                     checkpoint_every=4),
                EPOCHS)
