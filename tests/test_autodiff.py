"""Tests for the reverse-mode autodiff engine, including numerical checks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.autodiff import Tensor, logsumexp, mse_loss, no_grad, relu, sigmoid, softmax, tanh
from repro.autodiff.functional import leaky_relu
from repro.exceptions import ValidationError


def numerical_gradient(fn, x: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of scalar fn w.r.t. array x."""
    grad = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        original = x[idx]
        x[idx] = original + eps
        plus = fn(x)
        x[idx] = original - eps
        minus = fn(x)
        x[idx] = original
        grad[idx] = (plus - minus) / (2 * eps)
        it.iternext()
    return grad


def check_gradient(build_loss, x0: np.ndarray, atol: float = 1e-5):
    """Compare autodiff gradient of build_loss(Tensor) against finite diffs."""
    t = Tensor(x0.copy(), requires_grad=True)
    loss = build_loss(t)
    loss.backward()
    numeric = numerical_gradient(lambda arr: float(build_loss(Tensor(arr)).numpy()), x0.copy())
    np.testing.assert_allclose(t.grad, numeric, atol=atol, rtol=1e-4)


class TestBasics:
    def test_scalar_chain(self):
        x = Tensor([2.0, 3.0], requires_grad=True)
        y = (x * x).sum()
        y.backward()
        np.testing.assert_allclose(x.grad, [4.0, 6.0])

    def test_grad_accumulates_across_uses(self):
        x = Tensor([1.0], requires_grad=True)
        y = (x * 2.0 + x * 3.0).sum()
        y.backward()
        np.testing.assert_allclose(x.grad, [5.0])

    @pytest.mark.xfail(
        raises=RecursionError, strict=True,
        reason="Tensor.backward walks the tape recursively, one Python "
        "frame per op (ROADMAP: iterative tape walk)",
    )
    def test_backward_handles_a_1000_op_chain(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        y = x
        for _ in range(1000):
            y = y + 1.0
        y.sum().backward()
        np.testing.assert_allclose(x.grad, [1.0, 1.0])

    def test_backward_requires_scalar(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(ValidationError):
            (x * 2).backward()

    def test_backward_without_grad_flag(self):
        x = Tensor(np.ones(3))
        with pytest.raises(ValidationError):
            x.backward()

    def test_detach_cuts_tape(self):
        x = Tensor([3.0], requires_grad=True)
        y = (x.detach() * x).sum()
        y.backward()
        np.testing.assert_allclose(x.grad, [3.0])  # only one path contributes

    def test_no_grad_context(self):
        x = Tensor([1.0], requires_grad=True)
        with no_grad():
            y = x * 2
        assert not y.requires_grad

    def test_zero_grad(self):
        x = Tensor([1.0], requires_grad=True)
        (x * x).sum().backward()
        x.zero_grad()
        assert x.grad is None

    def test_shapes_and_item(self):
        t = Tensor(np.ones((2, 3)))
        assert t.shape == (2, 3)
        assert t.ndim == 2
        assert t.size == 6
        assert Tensor(5.0).item() == 5.0

    def test_item_of_one_element_array(self):
        value = Tensor(np.array([[2.5]])).item()
        assert value == 2.5 and type(value) is float
        assert Tensor(np.array([2.0])).item() == 2.0

    def test_item_of_many_elements_raises(self):
        with pytest.raises(ValidationError, match="one-element"):
            Tensor(np.ones(3)).item()

    def test_pow_accepts_numpy_scalar_exponents(self):
        x = Tensor(np.array([1.5, -2.0]), requires_grad=True)
        (x ** np.int64(2)).sum().backward()
        np.testing.assert_array_equal(x.grad, [3.0, -4.0])
        np.testing.assert_array_equal((x ** np.float32(3.0)).numpy(), x.numpy() ** 3)

    @pytest.mark.parametrize("exponent", [True, np.bool_(False), np.ones(2), "2", 2j])
    def test_pow_rejects_non_real_scalar_exponents(self, exponent):
        with pytest.raises(ValidationError, match="scalar exponents"):
            Tensor(np.ones(2)) ** exponent


class TestGradientsNumerically:
    def test_add_broadcast(self):
        rng = np.random.default_rng(0)
        b = rng.normal(size=(1, 4))
        check_gradient(lambda t: (t + Tensor(b)).sum(), rng.normal(size=(3, 4)))

    def test_mul_broadcast(self):
        rng = np.random.default_rng(1)
        w = rng.normal(size=(4,))
        check_gradient(lambda t: (t * Tensor(w)).sum(), rng.normal(size=(3, 4)))

    def test_matmul(self):
        rng = np.random.default_rng(2)
        W = rng.normal(size=(4, 2))
        check_gradient(lambda t: ((t @ Tensor(W)) ** 2).sum(), rng.normal(size=(3, 4)))

    def test_div(self):
        rng = np.random.default_rng(3)
        d = rng.uniform(1.0, 2.0, size=(3, 4))
        check_gradient(lambda t: (t / Tensor(d)).sum(), rng.normal(size=(3, 4)))

    def test_rdiv(self):
        rng = np.random.default_rng(17)
        check_gradient(lambda t: (1.0 / t).sum(), rng.uniform(1.0, 2.0, size=(5,)))

    def test_pow(self):
        rng = np.random.default_rng(4)
        check_gradient(lambda t: (t**3).sum(), rng.uniform(0.5, 1.5, size=(6,)))

    def test_exp_log(self):
        rng = np.random.default_rng(5)
        check_gradient(lambda t: (t.exp().log() * t).sum(), rng.uniform(0.5, 1.5, size=(6,)))

    def test_sum_axis(self):
        rng = np.random.default_rng(6)
        check_gradient(lambda t: (t.sum(axis=0) ** 2).sum(), rng.normal(size=(3, 4)))

    def test_sum_keepdims(self):
        rng = np.random.default_rng(7)
        check_gradient(
            lambda t: (t / t.sum(axis=1, keepdims=True)).sum(), rng.uniform(1, 2, (3, 4))
        )

    def test_mean(self):
        rng = np.random.default_rng(8)
        check_gradient(lambda t: (t.mean(axis=1) ** 2).sum(), rng.normal(size=(3, 4)))

    def test_max_no_ties(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(3, 4)) + np.arange(12).reshape(3, 4) * 10
        check_gradient(lambda t: t.max(axis=1).sum(), x)

    def test_reshape_transpose(self):
        rng = np.random.default_rng(10)
        check_gradient(
            lambda t: ((t.reshape(4, 3).T) ** 2).sum(), rng.normal(size=(3, 4))
        )

    def test_expand_dims(self):
        rng = np.random.default_rng(11)
        other = Tensor(rng.normal(size=(1, 5, 2)))
        check_gradient(
            lambda t: ((t.expand_dims(1) - other) ** 2).sum(), rng.normal(size=(3, 2))
        )

    def test_take_rows(self):
        rng = np.random.default_rng(12)
        idx = np.array([0, 2, 2, 1])
        check_gradient(lambda t: (t.take_rows(idx) ** 2).sum(), rng.normal(size=(3, 4)))

    def test_abs(self):
        rng = np.random.default_rng(13)
        x = rng.normal(size=(5,))
        x[np.abs(x) < 0.1] = 0.5  # keep away from the kink
        check_gradient(lambda t: t.abs().sum(), x)

    def test_clip_min(self):
        rng = np.random.default_rng(14)
        x = rng.normal(size=(6,))
        x[np.abs(x) < 0.1] = 0.5
        check_gradient(lambda t: (t.clip_min(0.0) ** 2).sum(), x)

    def test_sqrt(self):
        rng = np.random.default_rng(15)
        check_gradient(lambda t: t.sqrt().sum(), rng.uniform(0.5, 2.0, size=(6,)))

    def test_neg_sub(self):
        rng = np.random.default_rng(16)
        check_gradient(lambda t: (1.0 - t - t).sum(), rng.normal(size=(4,)))

    @given(st.integers(0, 100))
    @settings(max_examples=20, deadline=None)
    def test_random_composite_expressions(self, seed):
        rng = np.random.default_rng(seed)
        W = rng.normal(size=(3, 3))
        x0 = rng.uniform(0.5, 1.5, size=(2, 3))

        def loss(t):
            h = t @ Tensor(W)
            return ((h * h).sum(axis=1) + t.exp().sum(axis=1)).mean()

        check_gradient(loss, x0)


class TestFunctional:
    def test_relu_forward_backward(self):
        x = Tensor(np.array([-1.0, 0.5]), requires_grad=True)
        relu(x).sum().backward()
        np.testing.assert_allclose(x.grad, [0.0, 1.0])

    def test_leaky_relu(self):
        x = Tensor(np.array([-2.0, 3.0]), requires_grad=True)
        leaky_relu(x, 0.1).sum().backward()
        np.testing.assert_allclose(x.grad, [0.1, 1.0])

    def test_sigmoid_gradient(self):
        rng = np.random.default_rng(0)
        check_gradient(lambda t: sigmoid(t).sum(), rng.normal(size=(5,)))

    def test_sigmoid_extreme_values_stable(self):
        out = sigmoid(Tensor(np.array([-1000.0, 1000.0]))).numpy()
        np.testing.assert_allclose(out, [0.0, 1.0], atol=1e-12)

    def test_tanh_gradient(self):
        rng = np.random.default_rng(1)
        check_gradient(lambda t: tanh(t).sum(), rng.normal(size=(5,)))

    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(2)
        out = softmax(Tensor(rng.normal(size=(4, 6)))).numpy()
        np.testing.assert_allclose(out.sum(axis=1), np.ones(4))

    def test_softmax_stability_large_inputs(self):
        out = softmax(Tensor(np.array([[1e5, 0.0], [0.0, -1e5]]))).numpy()
        assert np.all(np.isfinite(out))
        np.testing.assert_allclose(out.sum(axis=1), [1.0, 1.0])

    def test_softmax_gradient(self):
        rng = np.random.default_rng(3)
        w = rng.normal(size=(3, 4))
        check_gradient(
            lambda t: (softmax(t, axis=1) * Tensor(w)).sum(), rng.normal(size=(3, 4))
        )

    def test_logsumexp_matches_scipy(self):
        from scipy.special import logsumexp as scipy_lse

        rng = np.random.default_rng(4)
        x = rng.normal(size=(3, 5)) * 100
        ours = logsumexp(Tensor(x), axis=1).numpy()
        np.testing.assert_allclose(ours, scipy_lse(x, axis=1))

    def test_logsumexp_gradient(self):
        rng = np.random.default_rng(5)
        check_gradient(lambda t: logsumexp(t, axis=1).sum(), rng.normal(size=(3, 4)))

    def test_mse_loss(self):
        prediction = Tensor(np.array([[1.0, 2.0]]), requires_grad=True)
        loss = mse_loss(prediction, np.array([[0.0, 0.0]]))
        assert loss.item() == pytest.approx(2.5)
        loss.backward()
        np.testing.assert_allclose(prediction.grad, [[1.0, 2.0]])
