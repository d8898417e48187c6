"""Unit tests for optimizers, the learning-rate scaling rule and the loss."""

import numpy as np
import pytest

from repro.autograd import Tensor
from repro.nn.module import Parameter
from repro.optim import (
    SGD,
    Adam,
    clip_grad_norm,
    l1_loss,
    scale_lr_linear,
)


def _quadratic_params():
    return [Parameter(np.array([5.0, -3.0], dtype=np.float32))]


def _quadratic_step(p):
    loss = (p * p).sum()
    loss.backward()
    return float(loss.data)


class TestSGD:
    def test_converges_on_quadratic(self):
        params = _quadratic_params()
        opt = SGD(params, lr=0.1)
        for _ in range(100):
            opt.zero_grad()
            _quadratic_step(params[0])
            opt.step()
        assert np.abs(params[0].data).max() < 1e-3

    def test_momentum_accelerates(self):
        def run(momentum):
            params = _quadratic_params()
            opt = SGD(params, lr=0.02, momentum=momentum)
            for _ in range(30):
                opt.zero_grad()
                _quadratic_step(params[0])
                opt.step()
            return np.abs(params[0].data).max()
        assert run(0.9) < run(0.0)

    def test_weight_decay_shrinks(self):
        p = Parameter(np.array([1.0], dtype=np.float32))
        opt = SGD([p], lr=0.1, weight_decay=0.5)
        p.grad = np.zeros(1, dtype=np.float32)
        opt.step()
        assert p.data[0] < 1.0

    def test_empty_params_rejected(self):
        with pytest.raises(ValueError):
            SGD([], lr=0.1)

    def test_none_grad_skipped(self):
        p = Parameter(np.ones(2))
        opt = SGD([p], lr=0.1)
        opt.step()  # no grad: no crash, no change
        np.testing.assert_array_equal(p.data, np.ones(2))


class TestAdam:
    def test_converges_on_quadratic(self):
        params = _quadratic_params()
        opt = Adam(params, lr=0.2)
        for _ in range(200):
            opt.zero_grad()
            _quadratic_step(params[0])
            opt.step()
        assert np.abs(params[0].data).max() < 1e-2

    def test_bias_correction_first_step(self):
        p = Parameter(np.array([1.0], dtype=np.float32))
        opt = Adam([p], lr=0.1)
        p.grad = np.array([1.0], dtype=np.float32)
        opt.step()
        # With bias correction the first step is ~lr regardless of betas.
        assert abs((1.0 - p.data[0]) - 0.1) < 1e-3

    def test_state_nbytes_counts_moments(self):
        p = Parameter(np.ones(10, dtype=np.float32))
        opt = Adam([p], lr=0.1)
        assert opt.state_nbytes() == 0
        p.grad = np.ones(10, dtype=np.float32)
        opt.step()
        assert opt.state_nbytes() == 2 * p.nbytes


class TestClipGradNorm:
    def test_scales_down(self):
        p = Parameter(np.zeros(4))
        p.grad = np.ones(4, dtype=np.float32) * 10.0
        norm = clip_grad_norm([p], 5.0)
        assert norm == pytest.approx(20.0)
        assert np.linalg.norm(p.grad) == pytest.approx(5.0, rel=1e-5)

    def test_leaves_small_grads(self):
        p = Parameter(np.zeros(4))
        p.grad = np.ones(4, dtype=np.float32) * 0.1
        clip_grad_norm([p], 5.0)
        np.testing.assert_allclose(p.grad, 0.1, rtol=1e-6)

    def test_handles_missing_grads(self):
        p = Parameter(np.zeros(4))
        assert clip_grad_norm([p], 5.0) == 0.0


class TestSchedules:
    def test_scale_lr_linear(self):
        assert scale_lr_linear(0.01, 8) == pytest.approx(0.08)
        assert scale_lr_linear(0.01, 8, base_world_size=4) == pytest.approx(0.02)
        with pytest.raises(ValueError):
            scale_lr_linear(0.01, 0)


class TestLosses:
    def test_l1(self):
        pred = Tensor(np.array([1.0, 2.0]))
        assert l1_loss(pred, np.array([0.0, 4.0])).item() == pytest.approx(1.5)

    def test_losses_backprop(self):
        p = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        l1_loss(p, np.array([0.5, 2.5])).backward()
        assert p.grad is not None
