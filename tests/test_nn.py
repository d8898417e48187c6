"""Unit tests for the nn package (modules, layers, RNN, attention)."""

import numpy as np
import pytest

from repro.autograd import Tensor
from repro.nn import (
    LayerNorm,
    Linear,
    Module,
    MultiHeadAttention,
    Parameter,
)
from repro.nn.init import glorot_uniform
from repro.nn.rnn import gru_cell_step

from tests.helpers import check_gradient

RNG = np.random.default_rng(23)


class _Net(Module):
    def __init__(self):
        super().__init__()
        self.fc1 = Linear(4, 8, seed_name="t1")
        self.fc2 = Linear(8, 2, seed_name="t2")
        self.extra = Parameter(np.zeros(3))
        self.blocks = [Linear(2, 2, seed_name="t3"), Linear(2, 2, seed_name="t4")]

    def forward(self, x):
        return self.fc2(self.fc1(x).relu())


class TestModule:
    def test_named_parameters_cover_nested(self):
        net = _Net()
        names = {n for n, _ in net.named_parameters()}
        assert "fc1.weight" in names and "fc2.bias" in names
        assert "extra" in names
        assert "blocks.0.weight" in names and "blocks.1.bias" in names

    def test_shared_parameter_deduplicated(self):
        net = _Net()
        net.alias = net.fc1.weight
        params = net.parameters()
        assert sum(1 for p in params if p is net.fc1.weight) == 1

    def test_num_parameters(self):
        net = _Net()
        assert net.num_parameters() == sum(p.size for p in net.parameters())

    def test_state_dict_roundtrip(self):
        net, net2 = _Net(), _Net()
        for p in net.parameters():
            p.data += 1.0
        net2.load_state_dict(net.state_dict())
        for (n1, p1), (n2, p2) in zip(net.named_parameters(),
                                      net2.named_parameters()):
            assert n1 == n2
            np.testing.assert_array_equal(p1.data, p2.data)

    def test_load_state_dict_missing_key(self):
        net = _Net()
        state = net.state_dict()
        state.pop("fc1.weight")
        with pytest.raises(KeyError):
            net.load_state_dict(state)

    def test_load_state_dict_shape_mismatch(self):
        net = _Net()
        state = net.state_dict()
        state["fc1.weight"] = np.zeros((2, 2))
        with pytest.raises(ValueError):
            net.load_state_dict(state)

    def test_zero_grad(self):
        net = _Net()
        net(Tensor(np.ones((2, 4)))).sum().backward()
        assert any(p.grad is not None for p in net.parameters())
        net.zero_grad()
        assert all(p.grad is None for p in net.parameters())

    def test_train_eval_propagates(self):
        net = _Net()
        net.eval()
        assert not net.fc1.training and not net.blocks[1].training
        net.train()
        assert net.fc1.training and net.blocks[1].training


class TestLinear:
    def test_shapes(self):
        lin = Linear(4, 7)
        assert lin(Tensor(np.ones((3, 4)))).shape == (3, 7)
        assert lin(Tensor(np.ones((2, 5, 4)))).shape == (2, 5, 7)

    def test_no_bias(self):
        lin = Linear(4, 7, bias=False)
        assert lin.bias is None
        assert len(lin.parameters()) == 1

    def test_deterministic_init(self):
        a = Linear(4, 7, seed_name="same")
        b = Linear(4, 7, seed_name="same")
        np.testing.assert_array_equal(a.weight.data, b.weight.data)
        c = Linear(4, 7, seed_name="other")
        assert not np.array_equal(a.weight.data, c.weight.data)


class TestLayerNorm:
    def test_normalises_last_axis(self):
        ln = LayerNorm(16)
        out = ln(Tensor(RNG.standard_normal((4, 16)) * 10 + 3)).data
        np.testing.assert_allclose(out.mean(-1), 0.0, atol=1e-4)
        np.testing.assert_allclose(out.std(-1), 1.0, atol=1e-2)

    def test_grad_flows_to_scale_shift(self):
        ln = LayerNorm(8)
        ln(Tensor(RNG.standard_normal((3, 8)))).sum().backward()
        assert ln.weight.grad is not None and ln.bias.grad is not None

    def test_input_grad_matches_numerics(self):
        """Through the mean, the centring and ``** -0.5``, on ST-LLM's
        ``[batch, nodes, dim]`` tokens."""
        ln = LayerNorm(6)
        ln.weight.data[:] = RNG.uniform(0.5, 1.5, 6)
        w = Tensor(RNG.standard_normal((2, 3, 6)), dtype=np.float64)
        check_gradient(lambda t: ln(t) * w, RNG.standard_normal((2, 3, 6)))


class TestGRURecurrence:
    """``gru_cell_step``, the op-by-op recurrence of DCRNN's cells,
    driven here by plain affine gate maps."""

    F, H = 2, 4

    def setup_method(self):
        rng = np.random.default_rng(3)
        self.maps = [
            Tensor((rng.standard_normal((self.F + self.H, width)) * 0.5)
                   .astype(np.float32), requires_grad=True)
            for width in (2 * self.H, self.H)]

    def _step(self, x, h):
        w_gates, w_cand = self.maps
        return gru_cell_step(lambda t: t @ w_gates, lambda t: t @ w_cand,
                             x, h, self.H)

    def test_shapes_and_state(self):
        h0 = Tensor(np.zeros((5, self.H), np.float32))
        h1 = self._step(Tensor(np.ones((5, self.F), np.float32)), h0)
        assert h1.shape == (5, self.H)
        assert not np.array_equal(h1.data, h0.data)

    def test_gradients_flow_through_time(self):
        x = Tensor(RNG.standard_normal((3, self.F)).astype(np.float32),
                   requires_grad=True)
        h = Tensor(np.zeros((3, self.H), np.float32))
        for _ in range(4):
            h = self._step(x, h)
        h.sum().backward()
        assert x.grad is not None and np.any(x.grad != 0)
        assert all(w.grad is not None for w in self.maps)

    def test_state_stays_in_the_unit_box(self):
        """``h`` is a convex mix of the previous state and a ``tanh``
        candidate, so it never leaves [-1, 1] however large the input."""
        h = Tensor(np.zeros((2, self.H), np.float32))
        for _ in range(20):
            h = self._step(Tensor(np.full((2, self.F), 1e3, np.float32)), h)
        assert np.all(np.abs(h.data) <= 1.0)


class TestInit:
    @pytest.mark.parametrize("fan_in, fan_out", [(4, 8), (32, 32), (1, 100)])
    def test_glorot_uniform_limit_and_dtype(self, fan_in, fan_out):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        w = glorot_uniform(np.random.default_rng(0), fan_in, fan_out)
        assert w.shape == (fan_in, fan_out) and w.dtype == np.float32
        assert np.all(np.abs(w) <= limit)
        assert np.abs(w).max() > 0.5 * limit     # spans the range
        again = glorot_uniform(np.random.default_rng(0), fan_in, fan_out)
        np.testing.assert_array_equal(w, again)


class TestMultiHeadAttention:
    def test_output_shape(self):
        mha = MultiHeadAttention(24, 4)
        out = mha(Tensor(RNG.standard_normal((2, 7, 24)).astype(np.float32)))
        assert out.shape == (2, 7, 24)

    def test_indivisible_heads_rejected(self):
        with pytest.raises(ValueError):
            MultiHeadAttention(10, 3)

    def test_noncausal_attends_everywhere(self):
        mha = MultiHeadAttention(8, 2)
        x = RNG.standard_normal((1, 5, 8)).astype(np.float32)
        base = mha(Tensor(x)).data
        x2 = x.copy()
        x2[0, -1] += 10.0
        pert = mha(Tensor(x2)).data
        assert not np.allclose(base[0, 0], pert[0, 0], atol=1e-5)

    def test_backward(self):
        mha = MultiHeadAttention(8, 2)
        x = Tensor(RNG.standard_normal((2, 4, 8)).astype(np.float32),
                   requires_grad=True)
        mha(x).sum().backward()
        assert x.grad is not None and np.isfinite(x.grad).all()

    def test_input_grad_matches_numerics(self):
        """Head split, the 4-D ``@`` and softmax of every head, the merge
        and the output projection, against central differences."""
        mha = MultiHeadAttention(4, 2)
        check_gradient(lambda t: mha(t) ** 2, RNG.standard_normal((2, 3, 4)))
