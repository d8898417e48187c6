"""Unit tests for the model zoo."""

import numpy as np
import pytest

from repro.autograd import Tensor
from repro.graph import dual_random_walk_supports, random_sensor_network
from repro.models import A3TGCN, DCRNN, DiffusionConv, PGTDCRNN, STLLM, TGCN
from repro.models.stllm import TransformerBlock
from repro.optim import Adam, l1_loss
from repro.utils.errors import ShapeError

from tests.helpers import check_gradient

N, H, F_IN, B = 12, 6, 2, 3


@pytest.fixture(scope="module")
def graph():
    return random_sensor_network(N, seed=0)


@pytest.fixture(scope="module")
def supports(graph):
    return dual_random_walk_supports(graph.weights)


def _x(batch=B, seed=0, features=F_IN):
    return np.random.default_rng(seed).standard_normal(
        (batch, H, N, features)).astype(np.float32)


def _y(batch=B, seed=1):
    return np.random.default_rng(seed).standard_normal(
        (batch, H, N, 1)).astype(np.float32)


class TestDiffusionConv:
    def test_output_shape(self, supports):
        conv = DiffusionConv(supports, 5, 7, k_hops=2)
        out = conv(Tensor(np.ones((B, N, 5), dtype=np.float32)))
        assert out.shape == (B, N, 7)

    def test_num_matrices(self, supports):
        conv = DiffusionConv(supports, 5, 7, k_hops=3)
        assert conv.num_matrices == 1 + 2 * 3

    def test_k0_is_dense_only(self, supports):
        conv = DiffusionConv(supports, 4, 4, k_hops=0)
        assert conv.num_matrices == 1

    def test_without_identity_block(self, supports):
        """T-GCN's graph conv: the hops only, so one support at one hop
        is a plain ``A X W + b`` with an ``[in, out]`` weight."""
        conv = DiffusionConv(supports[:1], 5, 7, k_hops=1, identity=False)
        assert conv.num_matrices == 1 and conv.weight.shape == (5, 7)
        x = np.random.default_rng(0).standard_normal((B, N, 5))
        out = conv(Tensor(x.astype(np.float32))).data
        want = np.einsum("mn,bnf->bmf", supports[0].toarray(), x) @ \
            conv.weight.data + conv.bias.data
        np.testing.assert_allclose(out, want, rtol=1e-5, atol=1e-5)
        with pytest.raises(ValueError, match="identity"):
            DiffusionConv(supports, 5, 7, k_hops=0, identity=False)

    def test_spatial_mixing_actually_happens(self, supports):
        """A perturbation at one node must influence its neighbours."""
        conv = DiffusionConv(supports, 1, 1, k_hops=2)
        x = np.zeros((1, N, 1), dtype=np.float32)
        base = conv(Tensor(x)).data
        x2 = x.copy()
        x2[0, 0, 0] = 5.0
        pert = conv(Tensor(x2)).data
        changed = np.nonzero(np.abs(pert - base)[0, :, 0] > 1e-7)[0]
        assert len(changed) > 1  # more nodes than just node 0

    def test_input_validation(self, supports):
        conv = DiffusionConv(supports, 5, 7)
        with pytest.raises(ShapeError):
            conv(Tensor(np.ones((B, N + 1, 5))))
        with pytest.raises(ValueError):
            DiffusionConv(supports, 5, 7, k_hops=-1)
        with pytest.raises(ValueError):
            DiffusionConv([], 5, 7)

    def test_flops_positive_and_scale_with_batch(self, supports):
        conv = DiffusionConv(supports, 5, 7)
        assert conv.flops(8) == pytest.approx(2 * conv.flops(4), rel=0.01)


ALL_MODELS = ["dcrnn", "pgt", "tgcn", "a3tgcn", "stllm"]


def _build(name, graph, supports, features=F_IN):
    if name == "dcrnn":
        return DCRNN(supports, H, features, hidden_dim=8, num_layers=2)
    if name == "pgt":
        return PGTDCRNN(supports, H, features, hidden_dim=8)
    if name == "tgcn":
        return TGCN(graph.weights, H, features, hidden_dim=8)
    if name == "a3tgcn":
        return A3TGCN(graph.weights, H, features, hidden_dim=8,
                      attention_dim=4)
    if name == "stllm":
        return STLLM(N, H, features, dim=16, num_heads=2, num_blocks=2)
    raise KeyError(name)


class TestAllModels:
    @pytest.mark.parametrize("name", ALL_MODELS)
    def test_output_shape(self, name, graph, supports):
        model = _build(name, graph, supports)
        out = model(Tensor(_x()))
        assert out.shape == (B, H, N, 1)

    @pytest.mark.parametrize("features", [1, 2])
    @pytest.mark.parametrize("name", ALL_MODELS)
    def test_all_trainable_params_get_grads(self, name, features, graph,
                                            supports):
        """Every trainable parameter a model builds is read by its forward,
        at one input channel as at two (ST-LLM's time-of-day branch)."""
        model = _build(name, graph, supports, features)
        loss = l1_loss(model(Tensor(_x(features=features))), _y())
        model.zero_grad()
        loss.backward()
        for pname, p in model.named_parameters():
            if p.requires_grad:
                assert p.grad is not None, f"{name}: no grad for {pname}"
                assert np.isfinite(p.grad).all()

    @pytest.mark.parametrize("name", ALL_MODELS)
    def test_input_validation(self, name, graph, supports):
        model = _build(name, graph, supports)
        with pytest.raises(ShapeError):
            model(Tensor(np.ones((B, H + 1, N, F_IN), dtype=np.float32)))
        with pytest.raises(ShapeError):
            model(Tensor(np.ones((B, H, N, F_IN + 2), dtype=np.float32)))

    @pytest.mark.parametrize("name", ALL_MODELS)
    def test_predict_no_grad(self, name, graph, supports):
        model = _build(name, graph, supports)
        out = model.predict(_x())
        assert isinstance(out, np.ndarray)
        assert out.shape == (B, H, N, 1)

    @pytest.mark.parametrize("name", ["tgcn", "a3tgcn"])
    def test_input_gradient_is_refused(self, name, graph, supports):
        """The fused recurrence carries no gradient to the window, as
        PGT-DCRNN's does not (no trainer asks for one)."""
        model = _build(name, graph, supports)
        with pytest.raises(NotImplementedError, match="input"):
            model(Tensor(_x(), requires_grad=True))

    @pytest.mark.parametrize("name", ["pgt", "tgcn", "stllm"])
    def test_can_overfit_tiny_batch(self, name, graph, supports):
        """Sanity: Adam fits a learnable target on a fixed batch."""
        model = _build(name, graph, supports)
        x = _x(seed=5)
        y = (0.5 * x[..., :1] + 0.1).astype(np.float32)  # learnable map
        opt = Adam([p for p in model.parameters() if p.requires_grad], lr=0.02)
        first = None
        for _ in range(60):
            loss = l1_loss(model(Tensor(x)), y)
            if first is None:
                first = loss.item()
            opt.zero_grad()
            loss.backward()
            opt.step()
        assert loss.item() < 0.5 * first


class TestStepBufferOwnership:
    """``DCGRUCell.step`` reuses per-(batch, dtype) scratch on the module;
    nothing a caller receives may alias it."""

    def test_predictions_are_owned(self, supports):
        model = PGTDCRNN(supports, H, F_IN, hidden_dim=8)
        first = model.predict(_x(seed=1))
        kept = first.copy()
        second = model.predict(_x(seed=2))
        assert not np.shares_memory(first, second)
        np.testing.assert_array_equal(first, kept)

    def test_scratch_keyed_by_batch_and_survives_training(self, supports):
        used = PGTDCRNN(supports, H, F_IN, hidden_dim=8)

        def fresh(x):
            model = PGTDCRNN(supports, H, F_IN, hidden_dim=8)
            model.load_state_dict(used.state_dict())
            return model.predict(x)

        for batch in (1, 8, 1):
            x = _x(batch=batch, seed=batch)
            np.testing.assert_array_equal(used.predict(x), fresh(x))
        opt = Adam(used.parameters(), lr=0.01)
        loss = l1_loss(used(Tensor(_x(seed=7))), _y(seed=8))
        opt.zero_grad()
        loss.backward()
        opt.step()
        np.testing.assert_array_equal(used.predict(_x()), fresh(_x()))

    def test_deepcopy_shares_no_scratch(self, supports):
        import copy

        def scratch_arrays(model):
            return [buf for m in model.modules()
                    for scr in getattr(m, "_scratch", {}).values()
                    for buf in (getattr(scr, name) for name in scr.__slots__)
                    if isinstance(buf, np.ndarray)]

        model = PGTDCRNN(supports, H, F_IN, hidden_dim=8)
        l1_loss(model(Tensor(_x())), _y()).backward()
        expected = model.predict(_x())
        clone = copy.deepcopy(model)
        mine, theirs = scratch_arrays(model), scratch_arrays(clone)
        assert mine and len(mine) == len(theirs)
        assert not any(np.shares_memory(a, b) for a in mine for b in theirs)
        clone.predict(_x(seed=9))       # scribbles only on its own buffers
        np.testing.assert_array_equal(model.predict(_x()), expected)


class TestDCRNN:
    def test_teacher_forcing_prob_decays(self, supports):
        model = DCRNN(supports, H, F_IN, hidden_dim=8, cl_decay_steps=10)
        p0 = model._teacher_forcing_prob()
        model.global_step = 100
        assert model._teacher_forcing_prob() < p0

    def test_cl_zero_disables_teacher_forcing(self, supports):
        model = DCRNN(supports, H, F_IN, hidden_dim=8, cl_decay_steps=0)
        assert model._teacher_forcing_prob() == 0.0

    def test_global_step_advances_in_training_only(self, supports):
        model = DCRNN(supports, H, F_IN, hidden_dim=8)
        model.train()
        model(Tensor(_x()), targets=_y())
        assert model.global_step == 1
        model.eval()
        model(Tensor(_x()))
        assert model.global_step == 1

    def test_eval_deterministic(self, supports):
        model = DCRNN(supports, H, F_IN, hidden_dim=8)
        model.eval()
        a = model(Tensor(_x())).data
        b = model(Tensor(_x())).data
        np.testing.assert_array_equal(a, b)


class TestSTLLM:
    def test_frozen_blocks_receive_no_grads(self, graph, supports):
        model = STLLM(N, H, F_IN, dim=16, num_heads=2, num_blocks=2,
                      frozen_blocks=1)
        loss = l1_loss(model(Tensor(_x())), _y())
        model.zero_grad()
        loss.backward()
        frozen = model.blocks[0]
        live = model.blocks[1]
        assert all(p.grad is None for p in frozen.parameters())
        assert any(p.grad is not None for p in live.parameters())

    def test_block_input_grad_matches_numerics(self):
        """A pre-norm block, attention and MLP residuals, against central
        differences on ``[batch, nodes, dim]`` tokens."""
        block = TransformerBlock(4, 2, mlp_ratio=2)
        check_gradient(lambda t: block(t) ** 2,
                       np.random.default_rng(4).standard_normal((2, 3, 4)))

    def test_frozen_exceeds_blocks_rejected(self):
        with pytest.raises(ValueError):
            STLLM(N, H, F_IN, dim=16, num_blocks=2, frozen_blocks=3)

    def test_spatial_embedding_distinguishes_nodes(self, graph, supports):
        model = STLLM(N, H, F_IN, dim=16, num_heads=2, num_blocks=1)
        x = np.ones((1, H, N, F_IN), dtype=np.float32)  # identical nodes
        out = model(Tensor(x)).data[0, 0, :, 0]
        assert out.std() > 1e-4  # node embeddings break the symmetry


class TestTGCNParameters:
    @pytest.mark.parametrize("name", ["tgcn", "a3tgcn"])
    def test_cell_names_and_shapes(self, name, graph, supports):
        """T-GCN's graph convs keep the names and ``[in, out]`` shapes of
        the op-by-op ``GraphConv`` layers they replaced."""
        cell = {n: p.shape for n, p in _build(name, graph, supports)
                .named_parameters() if n.startswith("cell.")}
        assert cell == {"cell.gates.weight": (F_IN + 8, 16),
                        "cell.gates.bias": (16,),
                        "cell.candidate.weight": (F_IN + 8, 8),
                        "cell.candidate.bias": (8,)}


class TestDeterministicInit:
    @pytest.mark.parametrize("name", ALL_MODELS)
    def test_same_seed_same_weights(self, name, graph, supports):
        a = _build(name, graph, supports)
        b = _build(name, graph, supports)
        for (na, pa), (nb, pb) in zip(a.named_parameters(),
                                      b.named_parameters()):
            assert na == nb
            np.testing.assert_array_equal(pa.data, pb.data)


def _cell_keys(prefix):
    return [f"{prefix}.{conv}.{p}" for conv in ("gates", "candidate")
            for p in ("weight", "bias")]


def _weight_bias(*names):
    return [f"{name}.{p}" for name in names for p in ("weight", "bias")]


def _block_keys(i):
    return _weight_bias(*(f"blocks.{i}.{m}" for m in (
        "ln1", "attn.q_proj", "attn.k_proj", "attn.v_proj", "attn.out_proj",
        "ln2", "fc1", "fc2")))


#: ``named_parameters()`` order of every ``MODELS`` entry: checkpoints
#: are keyed by these names.
PARAMETER_NAMES = {
    "dcrnn": [k for side in ("encoder", "decoder") for i in (0, 1)
              for k in _cell_keys(f"{side}.{i}")] + _weight_bias("proj"),
    "pgt-dcrnn": _cell_keys("cell") + _weight_bias("proj"),
    "tgcn": _cell_keys("cell") + _weight_bias("proj"),
    "a3tgcn": _cell_keys("cell") + _weight_bias("attn_hidden", "attn_score",
                                                "head"),
    "st-llm": _weight_bias("input_proj") + ["spatial_emb"]
    + _weight_bias("temporal_proj") + _block_keys(0) + _block_keys(1)
    + _weight_bias("ln_f", "head"),
}


@pytest.mark.parametrize("name", sorted(PARAMETER_NAMES))
def test_parameter_names_are_pinned(name):
    """A registered model's parameter names, in order, at ``tiny``: a
    rename would orphan every checkpoint written before it."""
    from repro.api.builders import ModelContext
    from repro.api.registry import MODELS
    from repro.api.scales import TINY
    ctx = ModelContext(graph=random_sensor_network(TINY.nodes, seed=0),
                       horizon=TINY.horizon, in_features=2,
                       hidden_dim=TINY.hidden_dim, seed=0)
    assert sorted(MODELS.names()) == sorted(PARAMETER_NAMES)
    model = MODELS.get(name)(ctx)
    assert [k for k, _ in model.named_parameters()] == PARAMETER_NAMES[name]


def test_a3tgcn_flops_count_its_recurrence():
    """A3T-GCN is T-GCN's recurrence plus attention pooling, so its count
    sits just above T-GCN's (207 sensors, horizon 12, hidden 64), and the
    simulated DDP step time it feeds is T-GCN's order of magnitude."""
    weights = random_sensor_network(207, seed=0).weights
    tgcn = TGCN(weights, 12, 2, hidden_dim=64).flops_per_snapshot()
    a3tgcn = A3TGCN(weights, 12, 2, hidden_dim=64).flops_per_snapshot()
    assert tgcn <= a3tgcn <= 1.2 * tgcn
