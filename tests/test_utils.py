"""Unit tests for ``repro.utils``: seeded streams and atomic archives."""

import os
import stat

import numpy as np
import pytest

from repro.utils import seeding
from repro.utils.files import savez_atomic
from repro.utils.seeding import global_seed, new_rng, seed_everything


class TestSeeding:
    def test_streams_repeat_per_key_and_differ_across_keys(self):
        a = new_rng("sampler", "global", 0, 1).random(4)
        again = new_rng("sampler", "global", 0, 1).random(4)
        other = new_rng("sampler", "global", 0, 2).random(4)
        np.testing.assert_array_equal(a, again)
        assert not np.array_equal(a, other)

    def test_streams_ignore_numpy_global_state(self):
        """Every component draws from its own keyed generator, so code
        that reseeds NumPy's legacy global state changes nothing."""
        state = np.random.get_state()
        try:
            np.random.seed(1)
            a = new_rng("nn", "linear", base=0).random(3)
            np.random.seed(2)
            np.random.random(100)
            b = new_rng("nn", "linear", base=0).random(3)
        finally:
            np.random.set_state(state)
        np.testing.assert_array_equal(a, b)

    def test_seed_everything_moves_the_default_base(self, monkeypatch):
        monkeypatch.setattr(seeding, "_GLOBAL_SEED", None)
        state = np.random.get_state()
        try:
            assert global_seed() == 0
            default = new_rng("k").random(2)
            np.testing.assert_array_equal(default,
                                          new_rng("k", base=0).random(2))
            seed_everything(7)
            assert global_seed() == 7
            np.testing.assert_array_equal(new_rng("k").random(2),
                                          new_rng("k", base=7).random(2))
            assert not np.array_equal(new_rng("k").random(2), default)
        finally:
            np.random.set_state(state)


class TestSavezAtomic:
    @pytest.mark.parametrize("umask, mode", [
        (0o022, 0o644), (0o077, 0o600), (0o002, 0o664)],
        ids=["umask-022", "umask-077", "umask-002"])
    def test_permissions_follow_the_umask(self, tmp_path, umask, mode):
        """The staged temp file is created 0600; the archive that
        replaces the target is widened to what the umask allows, so
        another user on a shared filesystem can read a checkpoint."""
        old = os.umask(umask)
        try:
            path = tmp_path / "state.npz"
            savez_atomic(str(path), {"a": np.arange(3)})
        finally:
            os.umask(old)
        assert stat.S_IMODE(path.stat().st_mode) == mode
        with np.load(path) as archive:
            np.testing.assert_array_equal(archive["a"], np.arange(3))
