"""Parity and buffer-reuse tests for the allocation-free training hot path.

Three guarantees are pinned here:

1. **Numerical parity** — the fused kernels (DiffusionConv, gru_update),
   the in-place optimizers and the buffer-reusing loaders compute the same
   values as their naive/allocating reference formulations, and standard
   vs index batching produce identical fixed-seed training curves.
2. **Buffer identity** — loader batches, parameter gradients and optimizer
   scratch really are the *same arrays* step after step (``a is b``), so
   the steady-state loop is allocation-free by construction, not by luck.
3. **Gradient-pool hygiene** — interior gradients recycle through
   ``GRAD_POOL`` without corrupting results.
"""

import math

import numpy as np
import pytest
import scipy.sparse as sp

from repro.autograd import GRAD_POOL, Tensor, functional as F
from repro.autograd.sparse_kernels import stacked_csr
from repro.batching.loaders import IndexBatchLoader, StandardBatchLoader
from repro.datasets import load_dataset
from repro.graph import dual_random_walk_supports, random_sensor_network
from repro.models.dconv import DiffusionConv
from repro.nn.module import Parameter
from repro.optim import SGD, Adam, clip_grad_norm
from repro.preprocessing import IndexDataset, standard_preprocess
from repro.utils.errors import ShapeError
from tests.helpers import canonical_csr, sparse_matmul


# ---------------------------------------------------------------------------
# Fused kernels vs naive reference
# ---------------------------------------------------------------------------
def _forward_naive(conv: DiffusionConv, x: Tensor) -> Tensor:
    """``conv`` as public autograd ops, one support and hop at a time."""
    hops = [x] if conv.identity else []
    for support in conv.supports:
        xk = x
        for _ in range(conv.k_hops):
            xk = sparse_matmul(support, xk)
            hops.append(xk)
    return F.concat(hops, axis=-1) @ conv.weight + conv.bias


def _hops_per_support(supports, x0: np.ndarray, k: int,
                      identity: bool = True) -> np.ndarray:
    """The ``[n, b, (identity + S*k)*f]`` hop block, one plain scipy
    product per hop per support (the kernel the stacked operators
    replaced)."""
    n, b, f = x0.shape
    blocks = [x0] if identity else []
    for support in supports:
        prep, prev = canonical_csr(support, x0.dtype), x0.reshape(n, -1)
        for _ in range(k):
            prev = prep @ prev
            blocks.append(prev.reshape(n, b, f))
    return np.concatenate(blocks, axis=-1)


def _backward_per_support(supports, gcat: np.ndarray, f: int, k: int, *,
                          identity: bool = True,
                          one_final_product: bool = False) -> np.ndarray:
    """Hop-0 input gradient, one backward chain per support (plain scipy
    products), each ending in its own ``gx += P_s^T acc_1`` after the
    identity block's ``gx`` (when there is one);
    ``one_final_product`` ends all chains in one ``hstack(P_s^T)``
    product instead."""
    n, b, _ = gcat.shape
    if not k:
        return gcat[:, :, :f].copy()
    col, firsts = (f if identity else 0), []
    transposed = [canonical_csr(canonical_csr(s, gcat.dtype).T, gcat.dtype)
                  for s in supports]
    for pt in transposed:
        acc = np.ascontiguousarray(gcat[:, :, col + (k - 1) * f: col + k * f])
        for j in range(k - 1, 0, -1):
            acc = (pt @ acc.reshape(n, -1)).reshape(n, b, f)
            acc += gcat[:, :, col + (j - 1) * f: col + j * f]
        firsts.append(acc)
        col += k * f
    if one_final_product:
        pt = canonical_csr(sp.hstack(transposed), gcat.dtype)
        out = (pt @ np.concatenate(firsts).reshape(-1, b * f)
               ).reshape(n, b, f)
        return gcat[:, :, :f] + out
    outs = [(pt @ acc.reshape(n, -1)).reshape(n, b, f)
            for pt, acc in zip(transposed, firsts)]
    gx = gcat[:, :, :f].copy() if identity else outs.pop(0)
    for out in outs:
        gx += out
    return gx


def _supports(count: int, nodes: int = 12) -> list:
    """``count`` random-walk supports over ``nodes`` sensors (unsorted CSR)."""
    out = []
    for seed in range(count):
        g = random_sensor_network(nodes, seed=2 + seed)
        out.append(dual_random_walk_supports(g.weights)[seed % 2])
    return out


class TestStackedHopsParity:
    """One product per hop for all supports gives the bits of one product
    per hop per support: hop block, input, weight and bias gradients."""

    @staticmethod
    def _run(num_supports, k, dtype, seed=0, identity=True):
        conv = DiffusionConv(_supports(num_supports), 5, 7, k_hops=k,
                             identity=identity)
        rng = np.random.default_rng(seed)
        n, b, f = 12, 4, 5
        x0 = rng.standard_normal((n, b, f)).astype(dtype)
        g2 = rng.standard_normal((n * b, 7)).astype(dtype)
        scr = conv._get_scratch(b, np.dtype(dtype))
        cat2, _ = conv._bind(scr, x0, True)()
        gx = conv._bind_backward(scr)(cat2, g2, True)
        return conv, x0, g2, cat2, gx, scr.gcat  # d hop block, left intact

    def _check(self, num_supports, k, dtype, identity=True):
        conv, x0, g2, cat2, gx, gcat = self._run(num_supports, k, dtype,
                                                 identity=identity)
        ref = _hops_per_support(conv.supports, x0, k, identity
                                ).reshape(cat2.shape)
        assert cat2.tobytes() == ref.tobytes()
        assert gx.tobytes() == _backward_per_support(
            conv.supports, gcat, 5, k, identity=identity).tobytes()
        w = conv.weight.data.dtype
        gw, gb = (ref.T @ g2).astype(w), np.sum(g2, axis=0).astype(w)
        assert conv.weight.grad.tobytes() == gw.tobytes()
        assert conv.bias.grad.tobytes() == gb.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    @pytest.mark.parametrize("num_supports", [1, 2, 3])
    def test_bitwise_equal_to_per_support_kernels(self, num_supports, k,
                                                  dtype):
        self._check(num_supports, k, dtype)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("num_supports", [1, 2])
    def test_without_identity_block(self, num_supports, k, dtype):
        """T-GCN's layout (``num_supports=1, k=1``) and its neighbours:
        the hop block holds the hops only, and ``gx`` starts from the
        first support's chain."""
        self._check(num_supports, k, dtype, identity=False)

    def test_one_final_hstack_product_would_differ(self):
        conv, _, _, _, gx, gcat = self._run(2, 2, np.float32)
        assert gx.tobytes() != _backward_per_support(
            conv.supports, gcat, 5, 2, one_final_product=True).tobytes()


class TestDiffusionConvFused:
    @pytest.fixture(scope="class")
    def supports(self):
        g = random_sensor_network(12, seed=2)
        return dual_random_walk_supports(g.weights)

    @pytest.mark.parametrize("dtype,tol", [(np.float32, 1e-5),
                                           (np.float64, 1e-12)])
    @pytest.mark.parametrize("k_hops", [0, 1, 2, 3])
    def test_matches_naive(self, supports, dtype, tol, k_hops):
        fused = DiffusionConv(supports, 5, 7, k_hops=k_hops)
        naive = DiffusionConv(supports, 5, 7, k_hops=k_hops)
        x = np.random.default_rng(0).standard_normal((4, 12, 5)).astype(dtype)
        xf = Tensor(x.copy(), requires_grad=True)
        xn = Tensor(x.copy(), requires_grad=True)
        of, on = fused(xf), _forward_naive(naive, xn)
        np.testing.assert_allclose(of.data, on.data, atol=tol)
        g = np.random.default_rng(1).standard_normal(of.shape).astype(dtype)
        of.backward(g.copy())
        on.backward(g.copy())
        np.testing.assert_allclose(xf.grad, xn.grad, atol=tol)
        # Parameter grads are float32 regardless of compute dtype.
        np.testing.assert_allclose(fused.weight.grad, naive.weight.grad,
                                   rtol=1e-4, atol=1e-4)
        np.testing.assert_allclose(fused.bias.grad, naive.bias.grad,
                                   rtol=1e-4, atol=1e-4)

    def test_scratch_reused_across_calls(self, supports):
        conv = DiffusionConv(supports, 5, 7, k_hops=2)
        x = Tensor(np.random.default_rng(0).standard_normal(
            (4, 12, 5)).astype(np.float32), requires_grad=True)
        conv(x).backward(np.ones((4, 12, 7), np.float32))
        scr1 = conv._scratch[(4, np.dtype(np.float32).str)]
        g1 = x.grad.copy()
        x.grad = None
        conv(x).backward(np.ones((4, 12, 7), np.float32))
        scr2 = conv._scratch[(4, np.dtype(np.float32).str)]
        assert scr1 is scr2                     # persistent scratch object
        assert scr1.x0 is scr2.x0               # and its buffers
        np.testing.assert_allclose(x.grad, g1, rtol=1e-6)

    def test_same_supports_find_cached_operators(self, supports):
        """A second layer over a support set seen before builds nothing:
        ``stacked_csr`` returns the first layer's operators."""
        f32 = np.dtype(np.float32)
        conv = DiffusionConv(supports, 5, 7, k_hops=2)
        ops = stacked_csr(conv.supports, f32)
        again = DiffusionConv(supports, 5, 7, k_hops=2)
        assert all(a is b for a, b in zip(stacked_csr(again.supports, f32),
                                          ops))

    def test_supports_validated_at_construction(self, supports):
        small = dual_random_walk_supports(
            random_sensor_network(8, seed=5).weights)
        with pytest.raises(ShapeError, match="square and of one size"):
            DiffusionConv(supports[:1] + small[:1], 5, 7, k_hops=2)
        with pytest.raises(ShapeError, match="square and of one size"):
            DiffusionConv([supports[0][:, :6]], 5, 7, k_hops=2)
        with pytest.raises(ValueError, match="at least one"):
            DiffusionConv([], 5, 7, k_hops=2)

    def test_grad_accumulates_over_calls(self, supports):
        conv = DiffusionConv(supports, 3, 4, k_hops=2)
        x = Tensor(np.random.default_rng(5).standard_normal(
            (2, 12, 3)).astype(np.float32), requires_grad=True)
        g = np.ones((2, 12, 4), np.float32)
        conv(x).backward(g)
        once = x.grad.copy()
        conv(x).backward(g)
        np.testing.assert_allclose(x.grad, 2 * once, rtol=1e-5)


class TestGRUUpdateFused:
    def test_bitwise_matches_composition(self):
        rng = np.random.default_rng(3)
        shape = (3, 4, 5)
        vals = [rng.standard_normal(shape).astype(np.float32)
                for _ in range(3)]
        a = [Tensor(v.copy(), requires_grad=True) for v in vals]
        b = [Tensor(v.copy(), requires_grad=True) for v in vals]
        out_fused = F.gru_update(a[0], a[1], a[2])
        u, h, c = b
        out_naive = u * h + (1.0 - u) * c
        np.testing.assert_array_equal(out_fused.data, out_naive.data)
        g = rng.standard_normal(shape).astype(np.float32)
        out_fused.backward(g.copy())
        out_naive.backward(g.copy())
        for ta, tb in zip(a, b):
            np.testing.assert_array_equal(ta.grad, tb.grad)


# ---------------------------------------------------------------------------
# Node-major DCGRU step vs the op-by-op recurrence
# ---------------------------------------------------------------------------
def _reference_forward(model, x: Tensor) -> Tensor:
    """``PGTDCRNN.forward`` as it was before ``DCGRUCell.step``: batch-major
    state, one public autograd op at a time through ``DCGRUCell.forward``."""
    h = model.cell.init_hidden(x.shape[0])
    outputs = []
    for t in range(model.horizon):
        h = model.cell(x[:, t], h)
        outputs.append(model.proj(h))
    return F.stack(outputs, axis=1)


class TestDCGRUStepParity:
    ITERS = 3

    def _models(self, nodes, horizon, hidden, k_hops):
        from repro.models import PGTDCRNN

        g = random_sensor_network(nodes, seed=2)
        supports = dual_random_walk_supports(g.weights)
        return [PGTDCRNN(supports, horizon, 2, hidden_dim=hidden,
                         k_hops=k_hops, seed=3) for _ in range(2)]

    def _compare(self, nodes, batch, horizon, hidden, *, dtype=np.float32,
                 k_hops=2, check=np.testing.assert_array_equal):
        from repro.autograd import no_grad
        from repro.optim import l1_loss

        step, ref = self._models(nodes, horizon, hidden, k_hops)
        rng = np.random.default_rng(0)
        for _ in range(self.ITERS):
            x = rng.standard_normal((batch, horizon, nodes, 2)).astype(dtype)
            y = rng.standard_normal((batch, horizon, nodes, 1)).astype(dtype)
            with no_grad():
                check(step(Tensor(x)).data,
                      _reference_forward(ref, Tensor(x)).data)
            out_s, out_r = step(Tensor(x)), _reference_forward(ref, Tensor(x))
            check(out_s.data, out_r.data)
            loss_s, loss_r = l1_loss(out_s, y), l1_loss(out_r, y)
            check(loss_s.data, loss_r.data)
            step.zero_grad()
            ref.zero_grad()
            loss_s.backward()
            loss_r.backward()
            for (name, ps), (_, pr) in zip(step.named_parameters(),
                                           ref.named_parameters()):
                check(ps.grad, pr.grad, err_msg=name)
                ps.data -= 0.05 * ps.grad      # SGD: next iteration starts
                pr.data -= 0.05 * pr.grad      # from the updated weights

    @pytest.mark.parametrize("nodes,batch,horizon,hidden", [
        (8, 8, 4, 8),          # the shape PINNED_2EP trains
        (24, 8, 12, 16),       # benchmark ddp_index_w2
        (64, 32, 12, 32),      # benchmark train_index
        (24, 1, 12, 16),       # serving's open loop: one window a call
        (8, 8, 1, 8),          # a horizon of one step
    ])
    def test_bitwise_float32(self, nodes, batch, horizon, hidden):
        self._compare(nodes, batch, horizon, hidden)

    def test_one_projection_node_per_sequence(self):
        """A training forward at horizon 12 is one autograd node: the
        recurrence and the projection together."""
        step, _ = self._models(24, 12, 16, 2)
        x = np.random.default_rng(0).standard_normal((8, 12, 24, 2))
        out = step(Tensor(x.astype(np.float32)))
        nodes, seen, todo = 0, set(), [out]
        while todo:
            t = todo.pop()
            if id(t) not in seen:
                seen.add(id(t))
                nodes += t._backward is not None
                todo.extend(t._parents)
        assert nodes == 1

    def test_reversed_weight_order_would_differ(self):
        """The projection's weight gradient is the sum of its per-step
        terms in forward time order; the reverse order changes the bytes,
        so the bitwise parity above would catch it."""
        nodes, batch, horizon = 24, 8, 12
        step, ref = self._models(nodes, horizon, 16, 2)
        rng = np.random.default_rng(1)
        x = Tensor(rng.standard_normal((batch, horizon, nodes, 2))
                   .astype(np.float32))
        g = rng.standard_normal((batch, horizon, nodes, 1)).astype(np.float32)
        step(x).backward(g)
        h = ref.cell.init_hidden(batch)
        terms = []
        for t in range(horizon):
            h = ref.cell(x[:, t], h)
            gt = np.ascontiguousarray(g[:, t])
            terms.append((np.swapaxes(h.data, -1, -2) @ gt).sum(axis=0))

        def ordered_sum(parts):
            total = parts[0].copy()
            for part in parts[1:]:
                total += part
            return total

        got = step.proj.weight.grad.tobytes()
        assert got == ordered_sum(terms).tobytes()
        assert got != ordered_sum(terms[::-1]).tobytes()

    @pytest.mark.parametrize("dtype,k_hops", [(np.float64, 2),
                                              (np.float32, 0),
                                              (np.float32, 1)])
    def test_other_dtype_and_hops(self, dtype, k_hops):
        def close(a, b, err_msg=""):
            np.testing.assert_allclose(a, b, rtol=1e-5, atol=1e-6,
                                       err_msg=err_msg)

        self._compare(8, 4, 4, 8, dtype=dtype, k_hops=k_hops, check=close)

    @staticmethod
    def _grads(model, x, g, forward=None):
        """Output bytes, then every parameter gradient's (``None`` kept)."""
        model.zero_grad()
        out = (forward or model)(Tensor(x))
        out.backward(g.copy())
        return [out.data.tobytes()] + [
            None if p.grad is None else p.grad.tobytes()
            for p in model.parameters()]

    @pytest.mark.parametrize("frozen", ["cell", "proj"])
    def test_frozen_parameters(self, frozen):
        """A frozen half keeps ``grad is None``; the other half's
        gradients are the op-by-op recurrence's, bit for bit."""
        model, ref = self._models(24, 12, 16, 2)
        for m in (model, ref):
            for p in getattr(m, frozen).parameters():
                p.requires_grad = False
        rng = np.random.default_rng(3)
        x = rng.standard_normal((8, 12, 24, 2)).astype(np.float32)
        g = rng.standard_normal((8, 12, 24, 1)).astype(np.float32)
        got = self._grads(model, x, g)
        want = self._grads(ref, x, g,
                           forward=lambda t: _reference_forward(ref, t))
        assert got == want
        names = [name for name, _ in model.named_parameters()]
        assert [name for name, grad in zip(names, got[1:])
                if grad is None] == [n for n in names
                                     if n.startswith(frozen + ".")]

    def test_no_grad_forward_records_nothing(self):
        from repro.autograd import no_grad

        model, _ = self._models(8, 4, 8, 2)
        x = Tensor(np.zeros((2, 4, 8, 2), np.float32))
        out = model(x)
        assert {id(p) for p in out._parents} == \
            {id(p) for p in model.parameters()}
        with no_grad():
            out = model(x)
        assert out._backward is None and out._parents == ()
        assert not out.requires_grad

    def test_input_gradient_is_refused(self):
        step, _ = self._models(8, 4, 8, 2)
        x = Tensor(np.zeros((2, 4, 8, 2), np.float32), requires_grad=True)
        with pytest.raises(NotImplementedError, match="input"):
            step(x)


# ---------------------------------------------------------------------------
# T-GCN / A3T-GCN on the fused recurrence vs their op-by-op originals
# ---------------------------------------------------------------------------
def _tgcn_states(model, x: Tensor):
    """The op-by-op T-GCN recurrence the fused cell replaced: ``GraphConv``
    (``sparse_matmul(A_hat, xh) @ W + b``) as gates and candidate, one
    public autograd op at a time through ``gru_cell_step``, batch-major."""
    from repro.nn.rnn import gru_cell_step

    cell = model.cell
    support = cell.gates.supports[0]

    def graph_conv(layer):
        return lambda xh: sparse_matmul(support, xh) @ layer.weight + \
            layer.bias

    h = cell.init_hidden(x.shape[0])
    for t in range(model.horizon):
        h = gru_cell_step(graph_conv(cell.gates), graph_conv(cell.candidate),
                          x[:, t], h, cell.hidden_dim)
        yield h


def _tgcn_reference(model, x: Tensor) -> Tensor:
    """``TGCN.forward`` as it was: a projection node after every step."""
    return F.stack([model.proj(h) for h in _tgcn_states(model, x)], axis=1)


def _a3tgcn_reference(model, x: Tensor) -> Tensor:
    """``A3TGCN.forward`` as it was: the stacked op-by-op states, then the
    attention pooling and the head."""
    seq = F.stack(list(_tgcn_states(model, x)), axis=1)      # [B, T, N, H]
    scores = model.attn_score(model.attn_hidden(seq).tanh())
    context = (seq * F.softmax(scores, axis=1)).sum(axis=1)
    out = model.head(context)
    return out.transpose(0, 2, 1).reshape(x.shape[0], model.horizon,
                                          model.num_nodes, 1)


class TestTGCNParity:
    """T-GCN and A3T-GCN on ``DCGRUCell.sequence`` (one support, one hop,
    no identity block) against the op-by-op models they replaced, with
    the same parameters copied into both.

    The bound was stated before the first measurement: forward output
    and loss bitwise; every parameter gradient within ``rtol=1e-5,
    atol=1e-6``.  Measured: forward, loss and every gradient outside
    ``MOVED`` are bitwise.  The ``MOVED`` ones, the cell's four, are
    bitwise at batch 1 and move at batch > 1 (at most 1.5e-8 absolute at
    the rank shape): the fused layer sums them over ``N*B`` rows in one
    GEMM / one reduce, the op-by-op graph conv per sample, then over the
    batch.
    """

    TOL = {"rtol": 1e-5, "atol": 1e-6}
    MOVED = {"cell.gates.weight", "cell.gates.bias",
             "cell.candidate.weight", "cell.candidate.bias"}

    @staticmethod
    def _models(name, nodes, horizon, hidden):
        from repro.models import A3TGCN, TGCN

        weights = random_sensor_network(nodes, seed=2).weights
        if name == "tgcn":
            pair = [TGCN(weights, horizon, 2, hidden_dim=hidden, seed=3)
                    for _ in range(2)]
        else:
            pair = [A3TGCN(weights, horizon, 2, hidden_dim=hidden,
                           attention_dim=4, seed=3) for _ in range(2)]
        rng = np.random.default_rng(11)   # off the init: gate biases of 1
        state = {key: (0.3 * rng.standard_normal(v.shape)).astype(v.dtype)
                 for key, v in pair[0].state_dict().items()}
        for model in pair:
            model.load_state_dict(state)
        return pair

    @pytest.mark.parametrize("name,reference", [
        ("tgcn", _tgcn_reference), ("a3tgcn", _a3tgcn_reference)])
    @pytest.mark.parametrize("nodes,batch,horizon,hidden", [
        (8, 8, 4, 8),
        (24, 8, 12, 16),       # the ddp_index_w2 rank shape
        (24, 1, 12, 16),       # one window a call
    ])
    def test_matches_op_by_op(self, name, reference, nodes, batch, horizon,
                              hidden):
        from repro.autograd import no_grad
        from repro.optim import l1_loss

        fused, ref = self._models(name, nodes, horizon, hidden)
        rng = np.random.default_rng(0)
        x = rng.standard_normal((batch, horizon, nodes, 2)).astype(np.float32)
        y = rng.standard_normal((batch, horizon, nodes, 1)).astype(np.float32)
        with no_grad():
            assert fused(Tensor(x)).data.tobytes() == \
                reference(ref, Tensor(x)).data.tobytes()
        out_f, out_r = fused(Tensor(x)), reference(ref, Tensor(x))
        assert out_f.data.tobytes() == out_r.data.tobytes()
        loss_f, loss_r = l1_loss(out_f, y), l1_loss(out_r, y)
        assert loss_f.data.tobytes() == loss_r.data.tobytes()
        loss_f.backward()
        loss_r.backward()
        for (pname, pf), (_, pr) in zip(fused.named_parameters(),
                                        ref.named_parameters()):
            if pname in self.MOVED and batch > 1:
                np.testing.assert_allclose(pf.grad, pr.grad, **self.TOL,
                                           err_msg=pname)
            else:
                assert pf.grad.tobytes() == pr.grad.tobytes(), pname

    @pytest.mark.parametrize("name", ["tgcn", "a3tgcn"])
    def test_recurrence_is_one_node(self, name):
        """The recurrence is one autograd node: T-GCN's forward is one
        node in all, A3T-GCN's adds only its attention pooling's ops."""
        model, _ = self._models(name, 24, 12, 16)
        x = np.random.default_rng(0).standard_normal((8, 12, 24, 2))
        out = model(Tensor(x.astype(np.float32)))
        nodes, seen, todo = 0, set(), [out]
        while todo:
            t = todo.pop()
            if id(t) not in seen:
                seen.add(id(t))
                nodes += t._backward is not None
                todo.extend(t._parents)
        assert nodes == (1 if name == "tgcn" else 13)


# ---------------------------------------------------------------------------
# Loader buffer reuse + loader parity
# ---------------------------------------------------------------------------
class TestLoaderBuffers:
    @pytest.fixture(scope="class")
    def data(self):
        ds = load_dataset("pems-bay", nodes=6, entries=150, seed=1)
        return (standard_preprocess(ds),
                IndexDataset.from_dataset(ds, store_dtype=np.float32))

    def test_index_loader_returns_same_views(self, data):
        _, idx = data
        loader = IndexBatchLoader(idx, "train", 8)
        x1, y1 = loader.batch_at(np.arange(8))
        x2, y2 = loader.batch_at(np.arange(8, 16))
        assert x1 is x2 and y1 is y2            # same view objects
        assert x1.base is loader._block or x1.base.base is loader._block

    def test_index_loader_buffer_contents_refresh(self, data):
        """Each full-size batch overwrites the buffer with its own rows:
        what an owned gather (``IndexDataset.gather``) returns."""
        _, idx = data
        loader = IndexBatchLoader(idx, "train", 4)
        for sel in (np.arange(4), np.array([9, 2, 11, 5])):
            xb, yb = loader.batch_at(sel)
            xo, yo = idx.gather(loader.starts[sel])
            np.testing.assert_array_equal(xb, xo)
            np.testing.assert_array_equal(yb, yo)

    def test_standard_loader_returns_same_buffers(self, data):
        std, _ = data
        loader = StandardBatchLoader(std, "train", 8)
        x1, _ = loader.batch_at(np.arange(8))
        x2, _ = loader.batch_at(np.arange(8, 16))
        assert x1 is x2

    def test_standard_loader_rejects_out_of_range(self, data):
        """The buffered np.take path must stay as loud as fancy indexing."""
        std, _ = data
        loader = StandardBatchLoader(std, "train", 4)
        n = loader.num_snapshots
        with pytest.raises(IndexError):
            loader.batch_at(np.array([0, 1, n + 50, 2]))
        # Negative indices keep standard NumPy meaning.
        xb, _ = loader.batch_at(np.array([0, 1, 2, -1]))
        np.testing.assert_array_equal(xb[3], loader.x[n - 1])

    def test_odd_sized_requests_get_owned_arrays(self, data):
        _, idx = data
        loader = IndexBatchLoader(idx, "train", 8)
        x1, _ = loader.batch_at(np.arange(3))   # DDP-style microbatch
        x2, _ = loader.batch_at(np.arange(3))
        assert x1 is not x2

    def test_copied_full_batches_survive_the_next_gather(self, data):
        """A full-size batch is valid until the next gather; ``.copy()``
        keeps it, and holds what an odd-size (owned) request returns."""
        _, idx = data
        loader = IndexBatchLoader(idx, "train", 8)
        kept = loader.batch_at(np.arange(8))[0].copy()
        loader.batch_at(np.arange(8, 16))
        np.testing.assert_array_equal(kept[:7],
                                      loader.batch_at(np.arange(7))[0])

    def test_standard_and_index_loaders_bitwise_agree(self, data):
        std, idx = data
        sl = StandardBatchLoader(std, "train", 8)
        il = IndexBatchLoader(idx, "train", 8)
        for (xs, ys), (xi, yi) in zip(sl.batches(), il.batches()):
            np.testing.assert_array_equal(xs, xi)
            np.testing.assert_array_equal(ys, yi)

    def test_float32_store_matches_per_batch_cast(self):
        """data stored at float32 == float64-standardized cast per batch."""
        ds = load_dataset("pems-bay", nodes=6, entries=150, seed=1)
        f64 = IndexDataset.from_dataset(ds)
        f32 = IndexDataset.from_dataset(ds, store_dtype=np.float32)
        l64 = IndexBatchLoader(f64, "train", 8)   # casts per batch
        l32 = IndexBatchLoader(f32, "train", 8)   # gathers pre-cast data
        x64, y64 = l64.batch_at(np.arange(8))
        x32, y32 = l32.batch_at(np.arange(8))
        np.testing.assert_array_equal(x64, x32)
        np.testing.assert_array_equal(y64, y32)

    def test_gather_out_buffer(self, data):
        _, idx = data
        h = idx.horizon
        out = np.empty((4, 2 * h) + idx.data.shape[1:], idx.data.dtype)
        x, y = idx.gather(idx.starts[:4], out=out)
        assert x.base is out and y.base is out
        xr, yr = idx.gather(idx.starts[:4])
        np.testing.assert_array_equal(x, xr)
        np.testing.assert_array_equal(y, yr)

    def test_gather_out_bounds_checked(self, data):
        _, idx = data
        h = idx.horizon
        out = np.empty((1, 2 * h) + idx.data.shape[1:], idx.data.dtype)
        with pytest.raises(IndexError):
            idx.gather(np.array([len(idx.data)]), out=out)


# ---------------------------------------------------------------------------
# Gradient buffers: zero_grad identity + pool recycling
# ---------------------------------------------------------------------------
class TestGradientBuffers:
    def _loss(self, p):
        return (p * p).sum()

    def test_backward_lands_in_the_bound_slot(self):
        p = Parameter(np.array([1.0, 2.0], dtype=np.float32))
        opt = SGD([p], lr=0.1)
        self._loss(p).backward()
        assert np.shares_memory(p.grad, opt.grad)
        np.testing.assert_array_equal(opt.grad, [2.0, 4.0])
        opt.zero_grad()
        assert p.grad is None                   # next touch copies ...
        np.testing.assert_array_equal(opt.grad, 0.0)
        self._loss(p).backward()
        self._loss(p).backward()                # ... and later ones add
        np.testing.assert_array_equal(opt.grad, [4.0, 8.0])

    def test_param_grad_buffer_stable_across_steps(self):
        p = Parameter(np.array([5.0, -3.0], dtype=np.float32))
        opt = Adam([p], lr=0.1)
        bufs = set()
        for _ in range(4):
            opt.zero_grad()
            self._loss(p).backward()
            bufs.add(p.grad.ctypes.data)
            opt.step()
        assert bufs == {opt.grad.ctypes.data}   # one buffer, forever

    def test_pool_recycles_interior_grads(self):
        GRAD_POOL.clear()
        x = Tensor(np.ones((7, 3), np.float32), requires_grad=True)
        ((x * 2.0).tanh().sum()).backward()
        assert len(GRAD_POOL) > 0               # interior grads parked
        g1 = x.grad.copy()
        x.grad = None
        ((x * 2.0).tanh().sum()).backward()     # drawn from the pool
        np.testing.assert_array_equal(x.grad, g1)

    def test_pool_ignores_views(self):
        GRAD_POOL.clear()
        arr = np.zeros((4, 4), np.float32)
        GRAD_POOL.give(arr[:2])                 # view: must be rejected
        assert len(GRAD_POOL) == 0


# ---------------------------------------------------------------------------
# In-place optimizers vs allocating reference implementations
# ---------------------------------------------------------------------------
def _reference_clip(grads, max_norm):
    """The seed implementation: float64 copies of every gradient."""
    total = 0.0
    for g in grads:
        total += float(np.sum(g.astype(np.float64) ** 2))
    norm = math.sqrt(total)
    if norm > max_norm and norm > 0:
        for g in grads:
            g *= max_norm / norm
    return norm


def _reference_adam_step(p, g, m, v, t, lr=1e-3, b1=0.9, b2=0.999, eps=1e-8):
    m[:] = b1 * m + (1 - b1) * g
    v[:] = b2 * v + (1 - b2) * (g * g)
    m_hat = m / (1 - b1 ** t)
    v_hat = v / (1 - b2 ** t)
    p -= lr * m_hat / (np.sqrt(v_hat) + eps)


class TestOptimizerParity:
    def test_clip_matches_reference(self):
        rng = np.random.default_rng(0)
        shapes = [(40, 16), (16,), (8256,)]
        fast = [Parameter(np.zeros(s, np.float32)) for s in shapes]
        for p in fast:
            p.grad = rng.standard_normal(p.data.shape).astype(np.float32) * 3
        ref_grads = [p.grad.copy() for p in fast]
        norm_fast = clip_grad_norm(fast, 5.0)
        norm_ref = _reference_clip(ref_grads, 5.0)
        assert norm_fast == pytest.approx(norm_ref, rel=1e-5)
        for p, rg in zip(fast, ref_grads):
            np.testing.assert_allclose(p.grad, rg, rtol=1e-5)

    def test_clip_survives_float32_overflow(self):
        """Exploding f32 gradients must be scaled to max_norm, not zeroed
        by an overflowing float32 dot product."""
        p = Parameter(np.zeros(1024, np.float32))
        p.grad = np.full(1024, 1e20, dtype=np.float32)
        with np.errstate(over="ignore"):
            norm = clip_grad_norm([p], 5.0)
        assert math.isfinite(norm) and norm == pytest.approx(32e20, rel=1e-6)
        assert np.linalg.norm(p.grad.astype(np.float64)) == pytest.approx(
            5.0, rel=1e-5)

    def test_clip_no_copies_returns_norm(self):
        p = Parameter(np.zeros(4))
        p.grad = np.ones(4, dtype=np.float32) * 10.0
        buf = p.grad
        clip_grad_norm([p], 5.0)
        assert p.grad is buf                    # scaled in place

    SHAPES = [(5, 3), (7,), (4,)]               # the last: no backward

    def _trajectory(self, opt, params, rng, steps, reference):
        """``steps`` backward + step rounds in which the last parameter
        takes no part; ``reference(i, g)`` applies the allocating
        formulation to reference copies with the same gradients."""
        frozen = params[-1].data.copy()
        for _ in range(steps):
            grads = [rng.standard_normal(p.data.shape).astype(np.float32)
                     for p in params[:-1]]
            opt.zero_grad()
            sum(((p * Tensor(g)).sum() for p, g in zip(params, grads)),
                Tensor(np.float32(0.0))).backward()
            opt.step()
            for i, g in enumerate(grads):
                reference(i, g)
            assert params[-1].data.tobytes() == frozen.tobytes()

    def test_adam_matches_reference_trajectory(self):
        rng = np.random.default_rng(1)
        params = [Parameter(rng.standard_normal(s).astype(np.float32))
                  for s in self.SHAPES]
        ref_p = [p.data.copy() for p in params]
        m = [np.zeros_like(r) for r in ref_p]
        v = [np.zeros_like(r) for r in ref_p]
        opt = Adam(params, lr=1e-2)

        def reference(i, g):
            _reference_adam_step(ref_p[i], g, m[i], v[i], opt.step_count,
                                 lr=1e-2)

        self._trajectory(opt, params, rng, 20, reference)
        for p, r in zip(params, ref_p):
            assert np.array_equal(p.data, r)

    def test_sgd_matches_reference_trajectory(self):
        rng = np.random.default_rng(2)
        params = [Parameter(rng.standard_normal(s).astype(np.float32))
                  for s in self.SHAPES]
        ref_p = [p.data.copy() for p in params]
        vel = [np.zeros_like(r) for r in ref_p]
        opt = SGD(params, lr=0.05, momentum=0.9)

        def reference(i, g):
            vel[i][:] = 0.9 * vel[i] + g
            ref_p[i] -= 0.05 * vel[i]

        self._trajectory(opt, params, rng, 20, reference)
        for p, r in zip(params, ref_p):
            assert np.array_equal(p.data, r)

    def test_adam_scratch_is_persistent(self):
        p = Parameter(np.ones(8, np.float32))
        opt = Adam([p], lr=0.1)
        opt.grad[:] = 1.0
        opt.step()
        s1, m1 = opt._scratch, opt.m
        opt.grad[:] = 1.0
        opt.step()
        assert opt._scratch is s1 and opt.m is m1


# ---------------------------------------------------------------------------
# Consumers that collect batches must not alias the reused buffers
# ---------------------------------------------------------------------------
class TestEvaluationBufferSafety:
    def test_trainer_evaluate_without_scaler(self):
        """Evaluating over the loader's reused batch buffer (which the
        next iteration overwrites) reads what owned batches read."""
        from repro.nn.module import Module
        from repro.training import Trainer

        class Echo(Module):
            def forward(self, x):
                return Tensor(x.data[..., :1] * 0.9)

        ds = load_dataset("pems-bay", nodes=6, entries=150, seed=1)
        idx = IndexDataset.from_dataset(ds, store_dtype=np.float32)
        reused = IndexBatchLoader(idx, "val", 4)

        class Owned:       # the same batches, each copied out of the buffer
            def batches(self):
                for x, y in reused.batches():
                    yield x.copy(), y.copy()

        trainer = Trainer(Echo(), None, reused)
        assert trainer.evaluate(reused) == trainer.evaluate(Owned()) > 0


# ---------------------------------------------------------------------------
# End-to-end fixed-seed parity: standard vs index, SGD and Adam
# ---------------------------------------------------------------------------
class TestEndToEndParity:
    #: Encoder-decoder ``DCRNN`` + Adam, tiny scale, seed 0, 3 epochs: the
    #: one fixed-seed curve of this backbone, bitwise for both batchings.
    DCRNN_ADAM_CURVE = [0.3794215538284995, 0.31665464626117185,
                        0.2648710506883534]

    @pytest.mark.parametrize("optimizer", ["adam", "sgd"])
    def test_standard_vs_index_training_curves(self, optimizer):
        from repro.api import RunSpec, run

        curves = {}
        for batching in ("base", "index"):
            spec = RunSpec(model="dcrnn", dataset="pems-bay",
                           batching=batching, optimizer=optimizer,
                           epochs=3, seed=0)
            curves[batching] = run(spec).train_curve
        np.testing.assert_allclose(curves["base"], curves["index"],
                                   rtol=0, atol=1e-7)
        if optimizer == "adam":
            assert curves["base"] == curves["index"] == self.DCRNN_ADAM_CURVE
