"""Unit tests for repro.autograd.functional."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.autograd import Tensor
from repro.autograd import functional as F
from repro.utils.errors import ShapeError

from tests.helpers import check_gradient

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

    def test_stack_grad(self):
        b = Tensor(RNG.standard_normal((3, 4)), dtype=np.float64)
        check_gradient(lambda t: F.stack([t, b, t], axis=1),
                       RNG.standard_normal((3, 4)))

    def test_stack_new_axis(self):
        parts = [Tensor(np.ones((2, 3))) for _ in range(4)]
        assert F.stack(parts, axis=0).shape == (4, 2, 3)
        assert F.stack(parts, axis=1).shape == (2, 4, 3)


class TestWhereClipMaximum:
    def test_where_grad(self):
        cond = RNG.random((3, 4)) > 0.5
        b = Tensor(RNG.standard_normal((3, 4)), dtype=np.float64)
        check_gradient(lambda t: F.where(cond, t * 2.0, b),
                       RNG.standard_normal((3, 4)))

    def test_where_broadcast_condition(self):
        cond = np.array([True, False, True, False])
        a = Tensor(np.ones((2, 4)), requires_grad=True)
        b = Tensor(np.zeros((2, 4)), requires_grad=True)
        F.where(cond, a, b).sum().backward()
        np.testing.assert_allclose(a.grad, np.tile([1, 0, 1, 0], (2, 1)))

    def test_clip_grad_zero_outside(self):
        t = Tensor(np.array([-2.0, 0.0, 2.0]), requires_grad=True)
        F.clip(t, -1.0, 1.0).sum().backward()
        np.testing.assert_allclose(t.grad, [0.0, 1.0, 0.0])

    def test_clip_invalid_p_ok_values(self):
        out = F.clip(Tensor(np.array([5.0])), 0.0, 1.0)
        assert out.data[0] == 1.0

    def test_maximum_grad(self):
        x = RNG.standard_normal((4, 4))
        b = Tensor(x.T.copy() + 0.3, dtype=np.float64)
        check_gradient(lambda t: F.maximum(t, b), x)

    def test_maximum_tie_splits(self):
        a = Tensor(np.ones(3), requires_grad=True)
        b = Tensor(np.ones(3), requires_grad=True)
        F.maximum(a, b).sum().backward()
        np.testing.assert_allclose(a.grad, 0.5 * np.ones(3))
        np.testing.assert_allclose(b.grad, 0.5 * np.ones(3))


class TestSoftmax:
    def test_softmax_rows_sum_to_one(self):
        s = F.softmax(Tensor(RNG.standard_normal((5, 7))), axis=-1)
        np.testing.assert_allclose(s.data.sum(-1), np.ones(5), rtol=1e-6)

    def test_softmax_grad(self):
        check_gradient(lambda t: F.softmax(t, axis=-1) ** 2,
                       RNG.standard_normal((3, 5)))

    def test_softmax_shift_invariance(self):
        x = RNG.standard_normal((2, 4))
        a = F.softmax(Tensor(x), axis=-1).data
        b = F.softmax(Tensor(x + 100.0), axis=-1).data
        np.testing.assert_allclose(a, b, rtol=1e-5)

    def test_log_softmax_grad(self):
        check_gradient(lambda t: F.log_softmax(t, axis=-1) * 0.5,
                       RNG.standard_normal((3, 5)))

    def test_log_softmax_matches_log_of_softmax(self):
        x = Tensor(RNG.standard_normal((4, 6)))
        np.testing.assert_allclose(F.log_softmax(x).data,
                                   np.log(F.softmax(x).data), rtol=1e-5)


class TestDropout:
    def test_eval_mode_identity(self):
        x = Tensor(RNG.standard_normal((10, 10)))
        out = F.dropout(x, 0.5, np.random.default_rng(0), training=False)
        assert out is x

    def test_zero_p_identity(self):
        x = Tensor(RNG.standard_normal((4,)))
        assert F.dropout(x, 0.0, np.random.default_rng(0)) is x

    def test_invalid_p(self):
        with pytest.raises(ValueError):
            F.dropout(Tensor(np.ones(3)), 1.0, np.random.default_rng(0))

    def test_scaling_preserves_expectation(self):
        x = Tensor(np.ones((200, 200)))
        out = F.dropout(x, 0.3, np.random.default_rng(3))
        assert abs(out.data.mean() - 1.0) < 0.02

    def test_grad_matches_mask(self):
        x = Tensor(np.ones((50, 50)), requires_grad=True)
        out = F.dropout(x, 0.5, np.random.default_rng(5))
        out.sum().backward()
        np.testing.assert_allclose(x.grad, out.data)


class TestSparseMatmul:
    def _support(self, n=8, seed=0):
        return sp.random(n, n, density=0.4, random_state=seed, format="csr")

    def test_2d_matches_dense(self):
        A = self._support()
        x = Tensor(RNG.standard_normal((8, 3)), dtype=np.float64)
        out = F.sparse_matmul(A, x)
        np.testing.assert_allclose(out.data, A.toarray() @ x.data, rtol=1e-9)

    def test_3d_matches_dense(self):
        A = self._support()
        x = Tensor(RNG.standard_normal((5, 8, 3)), dtype=np.float64)
        out = F.sparse_matmul(A, x)
        expected = np.einsum("mn,bnd->bmd", A.toarray(), x.data)
        np.testing.assert_allclose(out.data, expected, rtol=1e-9)

    def test_grad_2d(self):
        A = self._support(seed=2)
        check_gradient(lambda t: F.sparse_matmul(A, t) * 2.0,
                       RNG.standard_normal((8, 4)))

    def test_grad_3d(self):
        A = self._support(seed=3)
        check_gradient(lambda t: F.sparse_matmul(A, t),
                       RNG.standard_normal((2, 8, 3)))

    def test_wrong_nodes_rejected(self):
        A = self._support()
        with pytest.raises(ShapeError):
            F.sparse_matmul(A, Tensor(np.zeros((2, 5, 3))))

    def test_wrong_ndim_rejected(self):
        A = self._support()
        with pytest.raises(ShapeError):
            F.sparse_matmul(A, Tensor(np.zeros(8)))


class TestPadLast:
    def test_values_and_grad(self):
        t = Tensor(np.ones((2, 3)), requires_grad=True)
        out = F.pad_last(t, 2, value=7.0)
        assert out.shape == (2, 5)
        np.testing.assert_allclose(out.data[:, 3:], 7.0)
        out.sum().backward()
        np.testing.assert_allclose(t.grad, np.ones((2, 3)))

    def test_zero_pad_identity(self):
        t = Tensor(np.ones((2, 3)))
        assert F.pad_last(t, 0) is t
