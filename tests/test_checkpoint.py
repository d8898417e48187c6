"""Tests for checkpoint save/restore."""

import json

import numpy as np
import pytest

from repro.graph import dual_random_walk_supports, random_sensor_network
from repro.models import PGTDCRNN
from repro.optim import SGD, Adam
from repro.training.checkpoint import load_checkpoint, save_checkpoint
from repro.autograd.tensor import Tensor


@pytest.fixture
def setup():
    g = random_sensor_network(8, seed=0)
    supports = dual_random_walk_supports(g.weights)

    def factory(seed=0):
        return PGTDCRNN(supports, 4, 2, hidden_dim=8, seed=seed)
    return factory


def _train_steps(model, opt, n=3, seed=0):
    rng = np.random.default_rng(seed)
    for _ in range(n):
        x = rng.standard_normal((4, 4, 8, 2)).astype(np.float32)
        y = rng.standard_normal((4, 4, 8, 1)).astype(np.float32)
        loss = ((model(Tensor(x)) - y) ** 2).mean()
        opt.zero_grad()
        loss.backward()
        opt.step()


class TestCheckpoint:
    def test_roundtrip_parameters(self, setup, tmp_path):
        model = setup()
        opt = Adam(model.parameters(), lr=0.01)
        _train_steps(model, opt)
        path = str(tmp_path / "ckpt.npz")
        save_checkpoint(path, model, opt, epoch=3, extra={"note": "x"})

        model2 = setup(seed=99)  # different init
        opt2 = Adam(model2.parameters(), lr=0.5)
        meta = load_checkpoint(path, model2, opt2)
        assert meta["epoch"] == 3
        assert meta["extra"] == {"note": "x"}
        for (n1, p1), (n2, p2) in zip(model.named_parameters(),
                                      model2.named_parameters()):
            np.testing.assert_array_equal(p1.data, p2.data)
        assert opt2.lr == 0.01
        assert opt2.step_count == opt.step_count

    def test_resume_training_continues_identically(self, setup, tmp_path):
        """Train 6 steps straight vs 3 + checkpoint + 3 — identical."""
        straight = setup()
        opt_s = Adam(straight.parameters(), lr=0.01)
        _train_steps(straight, opt_s, n=6, seed=1)

        part1 = setup()
        opt_1 = Adam(part1.parameters(), lr=0.01)
        rng = np.random.default_rng(1)
        def step(model, opt):
            x = rng.standard_normal((4, 4, 8, 2)).astype(np.float32)
            y = rng.standard_normal((4, 4, 8, 1)).astype(np.float32)
            loss = ((model(Tensor(x)) - y) ** 2).mean()
            opt.zero_grad(); loss.backward(); opt.step()
        for _ in range(3):
            step(part1, opt_1)
        path = str(tmp_path / "resume.npz")
        save_checkpoint(path, part1, opt_1)

        part2 = setup(seed=5)
        opt_2 = Adam(part2.parameters(), lr=0.9)
        load_checkpoint(path, part2, opt_2)
        for _ in range(3):
            step(part2, opt_2)

        for (n1, p1), (n2, p2) in zip(straight.named_parameters(),
                                      part2.named_parameters()):
            np.testing.assert_allclose(p1.data, p2.data, rtol=1e-6,
                                       err_msg=n1)

    def test_model_only_checkpoint(self, setup, tmp_path):
        model = setup()
        path = str(tmp_path / "model.npz")
        save_checkpoint(path, model)
        meta = load_checkpoint(path, setup(seed=3))
        assert meta["optimizer"] is None

    def test_optimizer_type_mismatch(self, setup, tmp_path):
        model = setup()
        opt = Adam(model.parameters(), lr=0.01)
        _train_steps(model, opt, n=1)
        path = str(tmp_path / "adam.npz")
        save_checkpoint(path, model, opt)
        with pytest.raises(ValueError):
            load_checkpoint(path, setup(), SGD(setup().parameters(), lr=0.1))

    def test_loading_optimizer_from_model_only(self, setup, tmp_path):
        model = setup()
        path = str(tmp_path / "m.npz")
        save_checkpoint(path, model)
        with pytest.raises(ValueError):
            load_checkpoint(path, setup(), Adam(setup().parameters(), lr=0.1))

    def test_sgd_momentum_roundtrip(self, setup, tmp_path):
        model = setup()
        opt = SGD(model.parameters(), lr=0.01, momentum=0.9)
        _train_steps(model, opt, n=2)
        path = str(tmp_path / "sgd.npz")
        save_checkpoint(path, model, opt)
        model2 = setup(seed=4)
        opt2 = SGD(model2.parameters(), lr=0.5, momentum=0.9)
        load_checkpoint(path, model2, opt2)
        np.testing.assert_array_equal(opt.velocity, opt2.velocity)


    def test_slots_are_written_per_parameter(self, setup, tmp_path):
        """The archive keeps one ``adam_m/i``/``adam_v/i`` pair per
        parameter, shaped like it (the format ``load_checkpoint`` reads)."""
        from repro.training.checkpoint import _read_archive

        model = setup()
        opt = Adam(model.parameters(), lr=0.01)
        _train_steps(model, opt, n=1)
        path = str(tmp_path / "slots.npz")
        save_checkpoint(path, model, opt)
        arrays = _read_archive(path)
        for i, p in enumerate(opt.params):
            for slot, flat in (("adam_m", opt.m), ("adam_v", opt.v)):
                assert arrays[f"{slot}/{i}"].shape == p.data.shape
                np.testing.assert_array_equal(arrays[f"{slot}/{i}"],
                                              opt.views(flat)[i])
        assert not any(k.startswith("sgd_v/") for k in arrays)

    def test_missing_slots_restore_as_zeros(self, setup, tmp_path):
        """A momentum-free SGD archive loaded into a momentum SGD resets
        its velocity: what the archive lacks is state never stepped."""
        model = setup()
        path = str(tmp_path / "plain.npz")
        save_checkpoint(path, model, SGD(model.parameters(), lr=0.1))
        opt = SGD(model.parameters(), lr=0.1, momentum=0.9)
        _train_steps(model, opt, n=1)
        assert opt.velocity.any()
        load_checkpoint(path, model, opt)
        np.testing.assert_array_equal(opt.velocity, 0.0)


class TestAtomicWrite:
    """The save path stages through a tempfile in the target directory and
    promotes it with one ``os.replace`` — readers never see partial files,
    and no stray temp files survive, even for ``.npz``-suffixed paths."""

    def test_no_stray_files(self, setup, tmp_path):
        model = setup()
        path = str(tmp_path / "model.npz")
        save_checkpoint(path, model)
        save_checkpoint(path, model)  # overwrite in place
        assert sorted(p.name for p in tmp_path.iterdir()) == ["model.npz"]

    def test_failure_leaves_no_temp(self, setup, tmp_path, monkeypatch):
        import numpy as _np
        def boom(*a, **k):
            raise OSError("disk full")
        monkeypatch.setattr(_np, "savez", boom)
        with pytest.raises(OSError):
            save_checkpoint(str(tmp_path / "model.npz"), setup())
        assert list(tmp_path.iterdir()) == []

    def test_respects_umask(self, setup, tmp_path):
        """The mkstemp staging must not leak its 0600 mode into the final
        checkpoint: other ranks on a shared cluster read these files."""
        import os
        path = str(tmp_path / "model.npz")
        old = os.umask(0o022)
        try:
            save_checkpoint(path, setup())
        finally:
            os.umask(old)
        assert os.stat(path).st_mode & 0o777 == 0o644

    def test_adam_moment_slots_roundtrip(self, setup, tmp_path):
        model = setup()
        opt = Adam(model.parameters(), lr=0.01)
        _train_steps(model, opt, n=3)
        path = str(tmp_path / "adam.npz")
        save_checkpoint(path, model, opt)
        model2 = setup(seed=9)
        opt2 = Adam(model2.parameters(), lr=0.2)
        load_checkpoint(path, model2, opt2)
        np.testing.assert_array_equal(opt.m, opt2.m)
        np.testing.assert_array_equal(opt.v, opt2.v)

    def test_sgd_velocity_roundtrip_after_atomic_write(self, setup, tmp_path):
        model = setup()
        opt = SGD(model.parameters(), lr=0.01, momentum=0.9)
        _train_steps(model, opt, n=2)
        path = str(tmp_path / "sgd.npz")
        save_checkpoint(path, model, opt)
        opt2 = SGD(setup(seed=7).parameters(), lr=0.5, momentum=0.9)
        load_checkpoint(path, setup(seed=7), opt2)
        np.testing.assert_array_equal(opt.velocity, opt2.velocity)


class TestSelfDescribingCheckpoint:
    """``spec=`` / ``scaler=`` make a checkpoint the serving layer can
    reconstruct a full session from."""

    def test_spec_and_scaler_roundtrip(self, setup, tmp_path):
        from repro.api import RunSpec
        from repro.preprocessing.scaler import StandardScaler
        from repro.training.checkpoint import (
            read_checkpoint_meta, read_checkpoint_scaler)
        model = setup()
        spec = RunSpec(dataset="pems-bay", model="pgt-dcrnn", scale="tiny")
        scaler = StandardScaler().fit(
            np.random.default_rng(0).normal(50, 10, size=(100, 2)))
        path = str(tmp_path / "full.npz")
        save_checkpoint(path, model, spec=spec, scaler=scaler)
        meta = read_checkpoint_meta(path)
        assert RunSpec.from_dict(meta["spec"]) == spec
        restored = read_checkpoint_scaler(path)
        np.testing.assert_array_equal(restored.mean_, scaler.mean_)
        np.testing.assert_array_equal(restored.std_, scaler.std_)

    def test_plain_dict_spec_accepted(self, setup, tmp_path):
        path = str(tmp_path / "dict.npz")
        save_checkpoint(path, setup(), spec={"dataset": "pems-bay"})
        from repro.training.checkpoint import read_checkpoint_meta
        assert read_checkpoint_meta(path)["spec"] == {"dataset": "pems-bay"}

    def test_legacy_checkpoint_defaults(self, setup, tmp_path):
        from repro.training.checkpoint import (
            read_checkpoint_meta, read_checkpoint_scaler)
        path = str(tmp_path / "legacy.npz")
        save_checkpoint(path, setup())
        assert read_checkpoint_meta(path)["spec"] is None
        assert read_checkpoint_scaler(path) is None

    def test_unfitted_scaler_rejected(self, setup, tmp_path):
        from repro.preprocessing.scaler import StandardScaler
        with pytest.raises(ValueError, match="unfitted"):
            save_checkpoint(str(tmp_path / "x.npz"), setup(),
                            scaler=StandardScaler())


class TestCorruptCheckpoints:
    """Damaged archives must fail with a CheckpointError naming the
    path — never a raw zipfile/zlib/JSON traceback from lazy np.load."""

    def save(self, setup, tmp_path, name="victim.npz"):
        path = str(tmp_path / name)
        save_checkpoint(path, setup(), epoch=1)
        return path

    def test_missing_file(self, setup, tmp_path):
        from repro.training.checkpoint import read_checkpoint_meta
        from repro.utils.errors import CheckpointError
        path = str(tmp_path / "nope.npz")
        with pytest.raises(CheckpointError, match="nope.npz"):
            read_checkpoint_meta(path)

    def test_truncated_archive(self, setup, tmp_path):
        from repro.utils.errors import CheckpointError
        path = self.save(setup, tmp_path)
        blob = open(path, "rb").read()
        with open(path, "wb") as fh:
            fh.write(blob[:len(blob) // 2])
        with pytest.raises(CheckpointError, match="victim.npz"):
            load_checkpoint(path, setup())

    def test_bitflipped_member(self, setup, tmp_path):
        from repro.utils.errors import CheckpointError
        path = self.save(setup, tmp_path)
        blob = bytearray(open(path, "rb").read())
        blob[len(blob) // 2] ^= 0xFF       # flip one payload byte
        with open(path, "wb") as fh:
            fh.write(bytes(blob))
        with pytest.raises(CheckpointError, match="victim.npz"):
            load_checkpoint(path, setup())

    def test_not_a_zipfile(self, setup, tmp_path):
        from repro.utils.errors import CheckpointError
        path = str(tmp_path / "garbage.npz")
        with open(path, "wb") as fh:
            fh.write(b"this was never an archive")
        with pytest.raises(CheckpointError,
                           match="corrupted or truncated"):
            load_checkpoint(path, setup())

    def test_npz_without_meta_record(self, setup, tmp_path):
        from repro.training.checkpoint import read_checkpoint_meta
        from repro.utils.errors import CheckpointError
        path = str(tmp_path / "alien.npz")
        np.savez(path, foo=np.arange(3))
        with pytest.raises(CheckpointError, match="__meta__"):
            read_checkpoint_meta(path)

    def test_scaler_reader_guards_too(self, setup, tmp_path):
        from repro.training.checkpoint import read_checkpoint_scaler
        from repro.utils.errors import CheckpointError
        path = str(tmp_path / "half.npz")
        with open(path, "wb") as fh:
            fh.write(b"PK\x03\x04broken")
        with pytest.raises(CheckpointError, match="half.npz"):
            read_checkpoint_scaler(path)

    def test_every_byte_flip_and_truncation(self, tmp_path):
        """Sweep a whole small archive: each single-byte flip and each
        truncation either loads back bit for bit or is a CheckpointError
        (a flipped zip version or flag byte used to escape as zipfile's
        NotImplementedError)."""
        from repro.nn.layers import Linear
        from repro.utils.errors import CheckpointError

        def state(model, opt):
            arrays = [p.data for p in model.parameters()] + [opt.m, opt.v]
            return [a.tobytes() for a in arrays], opt.lr, opt.step_count

        def load(blob):
            path.write_bytes(blob)
            model = Linear(4, 3)
            opt = Adam(model.parameters())
            meta = load_checkpoint(str(path), model, opt)
            return state(model, opt), meta

        model = Linear(4, 3, seed_name="victim")
        opt = Adam(model.parameters())
        model(Tensor(np.ones((2, 4), np.float32))).sum().backward()
        opt.step()
        path = tmp_path / "sweep.npz"
        save_checkpoint(str(path), model, opt, epoch=1)
        blob = path.read_bytes()
        want = load(blob)
        assert want[0] == state(model, opt)
        flipped = (blob[:i] + bytes([blob[i] ^ 0xFF]) + blob[i + 1:]
                   for i in range(len(blob)))
        truncated = (blob[:i] for i in range(len(blob)))
        refused = 0
        for case in (*flipped, *truncated):
            try:
                got = load(case)
            except CheckpointError:
                refused += 1
            else:
                assert got == want
        assert refused > len(blob)       # every truncation, and flips

    def test_forged_slot_shape_is_refused(self, tmp_path):
        """An optimizer slot whose shape is not its parameter's is a
        CheckpointError naming the key, not a silent broadcast into the
        flat moment store."""
        from repro.nn.layers import Linear
        from repro.training.checkpoint import _read_archive
        from repro.utils.files import savez_atomic
        from repro.utils.errors import CheckpointError

        model = Linear(4, 3)
        opt = Adam(model.parameters())
        model(Tensor(np.ones((2, 4), np.float32))).sum().backward()
        opt.step()
        path = str(tmp_path / "forged.npz")
        save_checkpoint(path, model, opt)
        key = f"adam_m/{opt.params.index(model.weight)}"
        arrays = _read_archive(path)
        arrays[key] = np.full(1, 7.0, np.float32)
        savez_atomic(path, arrays)
        with pytest.raises(CheckpointError, match=key):
            load_checkpoint(path, Linear(4, 3),
                            Adam(Linear(4, 3).parameters()))

    @pytest.mark.parametrize("field,value", [
        ("step", -3), ("step", 16), ("epoch_losses", [9.0]),
        ("epoch", -1), ("world_size", 0), ("batch_size", 0)])
    def test_forged_training_cursor_is_refused(self, ddp_data, tmp_path,
                                               field, value):
        """A forged cursor once resumed silently: ``step=-3`` wrapped the
        plan index and trained 14 steps of an 11-step epoch, ``step=16``
        trained none and reported the forged losses' mean, and a short
        ``epoch_losses`` skewed the epoch mean.  Each out-of-range field
        is a CheckpointError naming the path and the field."""
        from repro.training.checkpoint import _read_archive
        from repro.utils.errors import CheckpointError
        from repro.utils.files import savez_atomic

        path = str(tmp_path / "cursor.npz")
        TestRestoreKeepsStorageBound.ddp(ddp_data, ckpt=path).fit(1)
        arrays = _read_archive(path)
        meta = json.loads(bytes(arrays["__meta__"]).decode())
        state = meta["extra"]["training_state"]
        assert 0 < state["step"] < state["epoch_steps"] == 11
        state[field] = value
        arrays["__meta__"] = np.frombuffer(json.dumps(meta).encode(),
                                           dtype=np.uint8)
        savez_atomic(path, arrays)
        victim = TestRestoreKeepsStorageBound.ddp(ddp_data)
        with pytest.raises(CheckpointError, match=f"cursor.npz.*{field}"):
            victim.resume(path)
        assert victim.global_step == 0 and victim.history == []

    def test_checkpoint_error_is_runtime_error(self):
        from repro.utils.errors import CheckpointError
        assert issubclass(CheckpointError, RuntimeError)


class TestResumeEdgeCases:
    """Resume across execution environments: a transport swap must
    reproduce bitwise; a world change that moves the global batch (or a
    run-shape change) must fail loudly — both behaviours are pinned
    here."""

    WORLD = 2
    EPOCHS = 2

    @pytest.fixture(scope="class")
    def ddp_setup(self):
        from repro.batching import IndexBatchLoader
        from repro.datasets import load_dataset
        from repro.preprocessing import IndexDataset

        ds = load_dataset("pems-bay", nodes=10, entries=260, seed=0)
        idx = IndexDataset.from_dataset(ds, horizon=4)
        supports = dual_random_walk_supports(ds.graph.weights)

        def make(transport="sim", world=self.WORLD, ckpt=None, every=2,
                 **kw):
            from repro.runtime import ProcessGroup
            from repro.training import DDPTrainer

            model = PGTDCRNN(supports, 4, 2, hidden_dim=8, seed=0)
            opt = Adam(model.parameters(), lr=0.01)
            pg = (ProcessGroup.processes(world) if transport == "process"
                  else ProcessGroup.sim(world))
            return DDPTrainer(
                model, opt, pg, IndexBatchLoader(idx, "train", 8),
                IndexBatchLoader(idx, "val", 8), seed=0,
                checkpoint_every=every if ckpt else None,
                checkpoint_path=ckpt, **kw)

        return make

    def curve(self, history):
        return [(h.train_loss, h.val_mae) for h in history]

    @pytest.mark.parametrize("first,second", [("sim", "process"),
                                              ("process", "sim")])
    def test_transport_swap_resumes_bitwise(self, ddp_setup, tmp_path,
                                            first, second):
        """A run checkpointed under one transport resumes under the
        other with a bitwise-identical curve (collectives reduce in rank
        order on every fabric)."""
        reference = self.curve(ddp_setup(transport=second).fit(self.EPOCHS))
        ckpt = str(tmp_path / f"{first}-to-{second}.npz")
        partial = ddp_setup(transport=first, ckpt=ckpt)
        partial.fit(1)                      # leaves a mid-run checkpoint
        resumed = ddp_setup(transport=second, ckpt=ckpt)
        resumed.resume(ckpt)
        assert self.curve(resumed.fit(self.EPOCHS)) == reference

    def test_world_size_change_fails_loudly(self, ddp_setup, tmp_path):
        ckpt = str(tmp_path / "w2.npz")
        ddp_setup(ckpt=ckpt).fit(1)
        bigger = ddp_setup(world=4)
        with pytest.raises(ValueError,
                           match="world of 2 ranks.*world_size=2"):
            bigger.resume(ckpt)
        # The failed resume must not have half-restored the trainer.
        assert bigger.global_step == 0 and bigger.history == []

    def test_run_shape_changes_fail_loudly(self, ddp_setup, tmp_path):
        from repro.training import DDPStrategy

        ckpt = str(tmp_path / "shape.npz")
        ddp_setup(ckpt=ckpt).fit(1)
        with pytest.raises(ValueError, match="strategy"):
            ddp_setup(strategy=DDPStrategy.BASELINE_DDP).resume(ckpt)
        with pytest.raises(ValueError, match="shuffle"):
            ddp_setup(shuffle="local").resume(ckpt)
        with pytest.raises(ValueError, match="seed"):
            tr = ddp_setup()
            tr.seed = 1
            tr.resume(ckpt)


@pytest.fixture(scope="module")
def ddp_data():
    from repro.datasets import load_dataset
    from repro.preprocessing import IndexDataset

    ds = load_dataset("pems-bay", nodes=10, entries=260, seed=0)
    return (IndexDataset.from_dataset(ds, horizon=4),
            dual_random_walk_supports(ds.graph.weights))


class TestRestoreKeepsStorageBound:
    """Every restore path copies into the optimizer's flat store.  A
    rebinding ``p.data = arr`` anywhere would leave the optimizer stepping
    an array the model no longer reads: training would stop, silently."""

    @staticmethod
    def assert_bound_and_training(model, opt, one_more_step):
        for p in model.parameters():
            assert np.shares_memory(p.data, opt.data)
        before = model.state_dict()
        one_more_step()
        after = model.state_dict()
        assert any(not np.array_equal(before[k], after[k]) for k in before)

    @staticmethod
    def ddp(data, world=2, ckpt=None, batch=8):
        from repro.batching import IndexBatchLoader
        from repro.runtime import ProcessGroup
        from repro.training import DDPTrainer

        idx, supports = data
        model = PGTDCRNN(supports, 4, 2, hidden_dim=8, seed=0)
        return DDPTrainer(model, Adam(model.parameters(), lr=0.01),
                          ProcessGroup.sim(world),
                          IndexBatchLoader(idx, "train", batch), seed=0,
                          checkpoint_every=2 if ckpt else None,
                          checkpoint_path=ckpt)

    def test_load_checkpoint(self, setup, tmp_path):
        model = setup()
        opt = Adam(model.parameters(), lr=0.01)
        _train_steps(model, opt)
        path = str(tmp_path / "a.npz")
        save_checkpoint(path, model, opt)
        model2 = setup(seed=5)
        opt2 = Adam(model2.parameters(), lr=0.5)
        load_checkpoint(path, model2, opt2)
        self.assert_bound_and_training(
            model2, opt2, lambda: _train_steps(model2, opt2, n=1, seed=3))

    def test_ddp_resume(self, ddp_data, tmp_path):
        ckpt = str(tmp_path / "ddp.npz")
        self.ddp(ddp_data, ckpt=ckpt).fit(1)
        resumed = self.ddp(ddp_data, ckpt=ckpt)
        resumed.resume(ckpt)
        self.assert_bound_and_training(resumed.model, resumed.optimizer,
                                       lambda: resumed.fit(2))

    def test_trainer_fit_checkpoint_then_reload(self, ddp_data, tmp_path):
        from repro.batching import IndexBatchLoader
        from repro.training import Trainer

        idx, supports = ddp_data
        path = str(tmp_path / "fit.npz")

        def trainer():
            model = PGTDCRNN(supports, 4, 2, hidden_dim=8, seed=0)
            return Trainer(model, Adam(model.parameters(), lr=0.01),
                           IndexBatchLoader(idx, "train", 8), seed=0)

        first = trainer()
        first.fit(1, checkpoint_path=path)
        self.assert_bound_and_training(first.model, first.optimizer,
                                       lambda: first.fit(1))
        again = trainer()
        load_checkpoint(path, again.model, again.optimizer)
        self.assert_bound_and_training(again.model, again.optimizer,
                                       lambda: again.fit(1))

    def test_elastic_reshard_resume(self, ddp_data, tmp_path):
        path = str(tmp_path / "w2.npz")
        tr = self.ddp(ddp_data, world=2, batch=8)
        tr.fit(1)
        tr.save_training_checkpoint(path, epoch=1, step=0)
        wide = self.ddp(ddp_data, world=4, batch=4)
        wide.resume(path)
        self.assert_bound_and_training(wide.model, wide.optimizer,
                                       lambda: wide.fit(2))
