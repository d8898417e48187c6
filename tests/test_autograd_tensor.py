"""Unit tests for the Tensor autograd core."""

import numpy as np
import pytest

from repro.autograd import Tensor, no_grad, unbroadcast
from repro.utils.errors import ShapeError

from tests.helpers import check_gradient

RNG = np.random.default_rng(7)


class TestBasics:
    def test_construction_defaults_to_float32(self):
        t = Tensor([1, 2, 3])
        assert t.dtype == np.float32
        assert t.shape == (3,)

    def test_float_dtype_preserved(self):
        t = Tensor(np.ones(3, dtype=np.float64))
        assert t.dtype == np.float64

    def test_repr_and_props(self):
        t = Tensor(np.zeros((2, 3)), requires_grad=True)
        assert "requires_grad=True" in repr(t)
        assert t.ndim == 2 and t.size == 6 and t.nbytes == 6 * 8

    def test_item_scalar(self):
        assert Tensor(3.5).item() == pytest.approx(3.5)

    def test_backward_requires_grad_error(self):
        with pytest.raises(RuntimeError):
            Tensor([1.0]).backward()

    def test_backward_nonscalar_needs_grad(self):
        t = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(RuntimeError):
            (t * 2).backward()

    def test_no_grad_blocks_graph(self):
        t = Tensor(np.ones(3), requires_grad=True)
        with no_grad():
            out = t * 2
        assert not out.requires_grad


class TestArithmeticGradients:
    def test_add(self):
        check_gradient(lambda t: t + t * 2.0, RNG.standard_normal((3, 4)))

    def test_sub_rsub(self):
        check_gradient(lambda t: (1.0 - t) - t, RNG.standard_normal((2, 5)))

    def test_mul_broadcast(self):
        b = RNG.standard_normal((1, 4))
        check_gradient(lambda t: t * Tensor(b, dtype=np.float64),
                       RNG.standard_normal((3, 4)))

    def test_neg_pow(self):
        """A negative power, as LayerNorm's ``(var + eps) ** -0.5``."""
        x = np.abs(RNG.standard_normal((4,))) + 0.5
        check_gradient(lambda t: t ** -0.5, x)

    def test_pow_requires_scalar(self):
        t = Tensor(np.ones(2), requires_grad=True)
        with pytest.raises(TypeError):
            t ** np.ones(2)

    def test_grad_accumulates_over_reuse(self):
        t = Tensor(np.ones(3), requires_grad=True, dtype=np.float64)
        (t + t + t).sum().backward()
        np.testing.assert_allclose(t.grad, 3 * np.ones(3))


class TestMatmulGradients:
    def test_2d_2d(self):
        w = RNG.standard_normal((4, 5))
        check_gradient(lambda t: t @ Tensor(w, dtype=np.float64),
                       RNG.standard_normal((3, 4)))

    def test_batched(self):
        w = RNG.standard_normal((2, 4, 5))
        check_gradient(lambda t: t @ Tensor(w, dtype=np.float64),
                       RNG.standard_normal((2, 3, 4)))

    def test_broadcast_batched_weight_grad(self):
        x = Tensor(RNG.standard_normal((2, 3, 4)), dtype=np.float64)
        w = Tensor(RNG.standard_normal((4, 5)), requires_grad=True,
                   dtype=np.float64)
        (x @ w).sum().backward()
        expected = sum(x.data[i].T @ np.ones((3, 5)) for i in range(2))
        np.testing.assert_allclose(w.grad, expected, rtol=1e-6)

    def test_4d_batched(self):
        """Attention's ``q @ k^T`` over ``[batch, heads, tokens, dim]``,
        both operands differentiated."""
        k = RNG.standard_normal((2, 2, 3, 4))
        check_gradient(lambda t: t @ t.swapaxes(-1, -2) * 0.5
                       + t @ Tensor(k, dtype=np.float64).swapaxes(-1, -2),
                       RNG.standard_normal((2, 2, 3, 4)))

    @pytest.mark.parametrize("a, b", [((4,), (4, 5)), ((3, 4), (4,)),
                                      ((6,), (6,))],
                             ids=["vec-mat", "mat-vec", "dot"])
    def test_1d_operand_is_a_shape_error(self, a, b):
        """Every product in the models is 2-D or more; a vector operand is
        refused before anything is computed."""
        with pytest.raises(ShapeError, match="2 or more dims"):
            Tensor(np.ones(a), requires_grad=True) @ Tensor(np.ones(b))


class TestShapeOps:
    def test_reshape(self):
        check_gradient(lambda t: t.reshape(6, 2) * 2.0,
                       RNG.standard_normal((3, 4)))

    def test_transpose_default(self):
        check_gradient(lambda t: t.transpose() @ Tensor(np.ones((3, 2)),
                                                        dtype=np.float64),
                       RNG.standard_normal((3, 4)))

    def test_transpose_axes(self):
        check_gradient(lambda t: t.transpose(2, 0, 1).sum(axis=0),
                       RNG.standard_normal((2, 3, 4)))

    def test_swapaxes(self):
        t = Tensor(RNG.standard_normal((2, 3, 4)))
        assert t.swapaxes(0, 2).shape == (4, 3, 2)

    def test_getitem_slice(self):
        check_gradient(lambda t: t[1:3] * 3.0, RNG.standard_normal((5, 2)))

    def test_getitem_ellipsis_split(self):
        """The GRU's gate split ``g[..., :H]`` / ``g[..., H:]``."""
        check_gradient(lambda t: t[..., :2] * t[..., 2:],
                       RNG.standard_normal((2, 3, 4)))

    def test_getitem_last_axis_then_mean(self):
        """ST-LLM's time-of-day read ``x[:, :, :, k].mean(axis=2)``."""
        check_gradient(lambda t: t[:, :, :, 1].mean(axis=2) * 3.0,
                       RNG.standard_normal((2, 3, 4, 2)))

    def test_getitem_fancy_accumulates_duplicates(self):
        t = Tensor(np.zeros(4), requires_grad=True, dtype=np.float64)
        idx = np.array([0, 0, 2])
        t[idx].sum().backward()
        np.testing.assert_allclose(t.grad, [2.0, 0.0, 1.0, 0.0])


class TestReductions:
    def test_sum_axis(self):
        check_gradient(lambda t: t.sum(axis=1), RNG.standard_normal((3, 4)))

    def test_sum_keepdims(self):
        check_gradient(lambda t: t * t.sum(axis=-1, keepdims=True),
                       RNG.standard_normal((3, 4)))

    def test_mean(self):
        check_gradient(lambda t: t.mean(axis=0) * 5.0,
                       RNG.standard_normal((4, 3)))

    def test_mean_all(self):
        check_gradient(lambda t: t.mean(), RNG.standard_normal((3, 4)))


class TestNonlinearities:
    def test_tanh_sigmoid(self):
        check_gradient(lambda t: t.tanh() * t.sigmoid(),
                       RNG.standard_normal((3, 4)))

    def test_sigmoid_extreme_values_stable(self):
        t = Tensor(np.array([-1000.0, 0.0, 1000.0]))
        s = t.sigmoid().data
        assert np.all(np.isfinite(s))
        np.testing.assert_allclose(s, [0.0, 0.5, 1.0], atol=1e-6)

    def test_relu(self):
        x = RNG.standard_normal((5, 5))
        x[np.abs(x) < 0.1] = 0.5  # avoid the kink
        check_gradient(lambda t: t.relu(), x)

    def test_abs(self):
        x = RNG.standard_normal((4, 4))
        x[np.abs(x) < 0.1] = 0.7
        check_gradient(lambda t: t.abs(), x)


class TestUnbroadcast:
    def test_identity(self):
        g = np.ones((3, 4))
        assert unbroadcast(g, (3, 4)) is g

    def test_prepended_axes(self):
        g = np.ones((2, 3, 4))
        np.testing.assert_allclose(unbroadcast(g, (3, 4)), 2 * np.ones((3, 4)))

    def test_stretched_axes(self):
        g = np.ones((3, 4))
        np.testing.assert_allclose(unbroadcast(g, (3, 1)), 4 * np.ones((3, 1)))

    def test_incompatible_raises(self):
        with pytest.raises(ShapeError):
            unbroadcast(np.ones((3, 4)), (2, 4))


class TestGraphMemoryRelease:
    def test_interior_nodes_freed_after_backward(self):
        t = Tensor(np.ones(3), requires_grad=True)
        mid = t * 2
        out = mid.sum()
        out.backward()
        assert mid.grad is None          # interior grad released
        assert mid._parents == ()
        assert t.grad is not None        # leaf grad kept
