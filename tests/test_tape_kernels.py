"""The fused tape kernels equal the compositions they replace, bit for bit.

Native subtraction, the fused ``affine`` node and the flat ADAM step each
replace a composition of simpler operations.  Every property here builds
the old composition inside the test and requires the new kernel to give
the same values and the same gradients (signs of zero included), with
operands broadcasting either way.  The last tests check that a backward
closure computes no gradient product for a parent that does not require
grad.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.autodiff import Tensor, affine
from repro.nn import Adam, Linear

FINITE = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)


def assert_same_bits(got, want):
    if want is None:
        assert got is None
        return
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


def array(draw, shape):
    return draw(hnp.arrays(np.float64, shape, elements=FINITE))


@st.composite
def broadcast_operands(draw):
    """Two operands that broadcast against each other, the seed gradient of
    their result and which of them require grad (at least one)."""
    shapes = draw(hnp.mutually_broadcastable_shapes(num_shapes=2, max_dims=3, max_side=4))
    left, right = (array(draw, shape) for shape in shapes.input_shapes)
    seed = array(draw, shapes.result_shape)
    flags = draw(st.tuples(st.booleans(), st.booleans()).filter(any))
    return left, right, seed, flags


def run(build, arrays, flags, seed):
    """Forward ``build`` on fresh leaves, backpropagate ``seed``, and return
    the output values and each leaf's gradient."""
    leaves = [Tensor(a.copy(), requires_grad=f) for a, f in zip(arrays, flags)]
    out = build(*leaves)
    out.backward(seed)
    return out.numpy(), [leaf.grad for leaf in leaves]


def assert_runs_equal(new, old):
    assert_same_bits(new[0], old[0])
    for got, want in zip(new[1], old[1]):
        assert_same_bits(got, want)


class TestSubtract:
    @given(broadcast_operands())
    @settings(max_examples=60, deadline=None)
    def test_sub_equals_add_neg(self, case):
        left, right, seed, flags = case
        assert_runs_equal(
            run(lambda a, b: a - b, (left, right), flags, seed),
            run(lambda a, b: a + (-b), (left, right), flags, seed),
        )

    @given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=0, max_dims=3, max_side=4),
                      elements=FINITE), FINITE)
    @settings(max_examples=40, deadline=None)
    def test_rsub_and_constant_sub(self, x, c):
        seed = np.ones_like(x)
        assert_runs_equal(
            run(lambda a: c - a, (x,), (True,), seed),
            run(lambda a: Tensor(c) + (-a), (x,), (True,), seed),
        )
        assert_runs_equal(
            run(lambda a: a - c, (x,), (True,), seed),
            run(lambda a: a + (-Tensor(c)), (x,), (True,), seed),
        )

    @given(broadcast_operands())
    @settings(max_examples=40, deadline=None)
    def test_shared_operands_accumulate_in_the_same_order(self, case):
        """Operands reached along several paths sum their gradient parts in
        tape order; the native node must not reorder those sums."""
        left, right, _, flags = case

        def build(sub):
            def expression(a, b):
                first = sub(a, b)
                second = sub(first * a, b)
                return sub(sub(second, a * b), first * b).sum()
            return expression

        assert_runs_equal(
            run(build(lambda a, b: a - b), (left, right), flags, None),
            run(build(lambda a, b: a + (-b)), (left, right), flags, None),
        )


@st.composite
def affine_operands(draw):
    rows, inner, width = (draw(st.integers(1, 5)) for _ in range(3))
    x = array(draw, (rows, inner))
    weight = array(draw, (inner, width))
    bias = array(draw, (width,))
    seed = array(draw, (rows, width))
    flags = draw(st.tuples(st.booleans(), st.booleans(), st.booleans()).filter(any))
    return x, weight, bias, seed, flags


class TestAffine:
    @given(affine_operands())
    @settings(max_examples=60, deadline=None)
    def test_affine_equals_matmul_add(self, case):
        x, weight, bias, seed, flags = case
        assert_runs_equal(
            run(affine, (x, weight, bias), flags, seed),
            run(lambda a, w, b: (a @ w) + b, (x, weight, bias), flags, seed),
        )

    @given(affine_operands())
    @settings(max_examples=30, deadline=None)
    def test_affine_without_bias_equals_matmul(self, case):
        x, weight, _, seed, flags = case
        flags = flags[:2] if any(flags[:2]) else (False, True)
        assert_runs_equal(
            run(lambda a, w: affine(a, w), (x, weight), flags, seed),
            run(lambda a, w: a @ w, (x, weight), flags, seed),
        )


class LoopAdam:
    """The per-parameter ADAM update the flat step replaces."""

    def __init__(self, parameters, learning_rate, beta1, beta2, epsilon):
        self.parameters = list(parameters)
        self.learning_rate, self.beta1 = learning_rate, beta1
        self.beta2, self.epsilon = beta2, epsilon
        self._m = [np.zeros_like(p.data) for p in self.parameters]
        self._v = [np.zeros_like(p.data) for p in self.parameters]
        self._t = 0

    def step(self):
        self._t += 1
        bias1 = 1.0 - self.beta1**self._t
        bias2 = 1.0 - self.beta2**self._t
        for p, m, v in zip(self.parameters, self._m, self._v):
            if p.grad is None:
                continue
            m *= self.beta1
            m += (1.0 - self.beta1) * p.grad
            v *= self.beta2
            v += (1.0 - self.beta2) * p.grad**2
            p.data -= self.learning_rate * (m / bias1) / (np.sqrt(v / bias2) + self.epsilon)


@st.composite
def adam_runs(draw):
    shapes = draw(st.lists(hnp.array_shapes(min_dims=0, max_dims=2, max_side=4),
                           min_size=1, max_size=4))
    starts = [array(draw, shape) for shape in shapes]
    steps = []
    for _ in range(draw(st.integers(1, 6))):
        grads = [array(draw, shape) if draw(st.booleans()) else None for shape in shapes]
        steps.append(grads)
    config = dict(
        learning_rate=draw(st.floats(1e-5, 1.0)),
        beta1=draw(st.floats(0.0, 0.999)),
        beta2=draw(st.floats(0.0, 0.9999)),
        epsilon=draw(st.floats(1e-12, 1e-2)),
    )
    return starts, steps, config


class TestFlatAdam:
    @given(adam_runs())
    @settings(max_examples=60, deadline=None)
    def test_flat_step_equals_per_parameter_loop(self, case):
        starts, steps, config = case
        flat = [Tensor(s.copy(), requires_grad=True) for s in starts]
        loop = [Tensor(s.copy(), requires_grad=True) for s in starts]
        flat_adam = Adam(flat, config["learning_rate"], beta1=config["beta1"],
                         beta2=config["beta2"], epsilon=config["epsilon"])
        loop_adam = LoopAdam(loop, **config)
        for grads in steps:
            for params in (flat, loop):
                for p, g in zip(params, grads):
                    p.grad = None if g is None else g.copy()
            flat_adam.step()
            loop_adam.step()
            for got, want in zip(flat, loop):
                assert_same_bits(got.data, want.data)


class CountingArray(np.ndarray):
    """An ndarray that records every ufunc call it takes part in."""

    calls: list = []

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        CountingArray.calls.append(ufunc.__name__)
        inputs = tuple(np.asarray(a) for a in inputs)
        return getattr(ufunc, method)(*inputs, **kwargs)


def counting(tensor: Tensor) -> Tensor:
    tensor.data = tensor.data.view(CountingArray)
    return tensor


class TestSkippedGradients:
    """A parent without grad gets no gradient product: each weight below
    takes part in exactly one forward product, and the backward pass must
    not compute the data-side ``grad @ W.T`` (or ``grad * w``) against it."""

    @pytest.fixture(autouse=True)
    def _reset(self):
        CountingArray.calls = []

    def test_matmul_skips_data_side_product(self):
        rng = np.random.default_rng(0)
        x = Tensor(rng.normal(size=(6, 4)))
        weight = counting(Tensor(rng.normal(size=(4, 3)), requires_grad=True))
        (x @ weight).sum().backward()
        assert CountingArray.calls == ["matmul"]
        assert weight.grad.shape == (4, 3)

    def test_linear_layer_skips_data_side_product(self):
        rng = np.random.default_rng(1)
        layer = Linear(4, 3, random_state=0)
        counting(layer.weight)
        layer(rng.normal(size=(6, 4))).sum().backward()
        assert CountingArray.calls == ["matmul"]
        assert layer.weight.grad.shape == (4, 3)
        assert layer.bias.grad.shape == (3,)

    def test_mul_skips_constant_side_product(self):
        rng = np.random.default_rng(2)
        constant = Tensor(rng.normal(size=(5, 3)))
        w = counting(Tensor(rng.normal(size=3), requires_grad=True))
        (constant * w).sum().backward()
        assert CountingArray.calls == ["multiply"]
        np.testing.assert_array_equal(w.grad, constant.data.sum(axis=0))
