"""Unit tests for repro.autograd.functional."""

import numpy as np
import scipy.sparse as sp

from repro.autograd import Tensor
from repro.autograd import functional as F

from tests.helpers import check_gradient, sparse_matmul

RNG = np.random.default_rng(11)


class TestConcatStack:
    def test_concat_grad(self):
        b = Tensor(RNG.standard_normal((3, 2)), dtype=np.float64)
        check_gradient(lambda t: F.concat([t, b], axis=1) * 2.0,
                       RNG.standard_normal((3, 4)))

    def test_concat_axis0_values(self):
        a, b = Tensor(np.ones((2, 3))), Tensor(np.zeros((1, 3)))
        out = F.concat([a, b], axis=0)
        assert out.shape == (3, 3)

    def test_concat_routes_grads_to_both(self):
        a = Tensor(np.ones((2, 2)), requires_grad=True)
        b = Tensor(np.ones((2, 2)), requires_grad=True)
        (F.concat([a, b], axis=0) * 3.0).sum().backward()
        np.testing.assert_allclose(a.grad, 3 * np.ones((2, 2)))
        np.testing.assert_allclose(b.grad, 3 * np.ones((2, 2)))

    def test_concat_negative_axis_grad(self):
        """The GRU's ``concat([x, h], axis=-1)`` on ``[batch, nodes, f]``."""
        h = Tensor(RNG.standard_normal((2, 3, 4)), dtype=np.float64)
        check_gradient(lambda t: F.concat([t, h * t], axis=-1) * 2.0,
                       RNG.standard_normal((2, 3, 4)))

    def test_stack_grad(self):
        b = Tensor(RNG.standard_normal((3, 4)), dtype=np.float64)
        check_gradient(lambda t: F.stack([t, b, t], axis=1),
                       RNG.standard_normal((3, 4)))

    def test_stack_new_axis(self):
        parts = [Tensor(np.ones((2, 3))) for _ in range(4)]
        assert F.stack(parts, axis=0).shape == (4, 2, 3)
        assert F.stack(parts, axis=1).shape == (2, 4, 3)


class TestSoftmax:
    def test_softmax_rows_sum_to_one(self):
        s = F.softmax(Tensor(RNG.standard_normal((5, 7))), axis=-1)
        np.testing.assert_allclose(s.data.sum(-1), np.ones(5), rtol=1e-6)

    def test_softmax_grad(self):
        check_gradient(lambda t: F.softmax(t, axis=-1) ** 2,
                       RNG.standard_normal((3, 5)))

    def test_attention_pooling_grad(self):
        """A3T-GCN's pooling: a softmax over the time axis of
        ``[batch, T, nodes, 1]`` scores weighting ``[batch, T, nodes, H]``
        states, summed over time."""
        seq = Tensor(RNG.standard_normal((2, 4, 3, 5)), dtype=np.float64)
        check_gradient(lambda t: (seq * F.softmax(t, axis=1)).sum(axis=1),
                       RNG.standard_normal((2, 4, 3, 1)))

    def test_softmax_shift_invariance(self):
        x = RNG.standard_normal((2, 4))
        a = F.softmax(Tensor(x), axis=-1).data
        b = F.softmax(Tensor(x + 100.0), axis=-1).data
        np.testing.assert_allclose(a, b, rtol=1e-5)


class TestSparseMatmul:
    """``tests.helpers.sparse_matmul``, the op-by-op graph convolutions'
    product in the parity references, is ``A @ x`` with its gradient."""

    def _support(self, n=8, seed=0):
        return sp.random(n, n, density=0.4, random_state=seed, format="csr")

    def test_3d_matches_dense(self):
        A = self._support()
        x = Tensor(RNG.standard_normal((5, 8, 3)), dtype=np.float64)
        out = sparse_matmul(A, x)
        expected = np.einsum("mn,bnd->bmd", A.toarray(), x.data)
        np.testing.assert_allclose(out.data, expected, rtol=1e-9)

    def test_grad_3d(self):
        A = self._support(seed=3)
        check_gradient(lambda t: sparse_matmul(A, t),
                       RNG.standard_normal((2, 8, 3)))
