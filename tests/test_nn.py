"""Tests for layers, optimizers, training loop and autoencoders."""

import numpy as np
import pytest

from repro.autodiff import Tensor
from repro.exceptions import ValidationError
from repro.nn import (
    Activation,
    Adam,
    Autoencoder,
    HadamardLinear,
    Linear,
    SGD,
    Sequential,
    Trainer,
    build_autoencoder,
    iterate_minibatches,
)
from repro.nn.autoencoder import PAPER_HIDDEN_DIMS, SMALL_HIDDEN_DIMS


class TestLinear:
    def test_forward_shape(self):
        layer = Linear(4, 3, random_state=0)
        out = layer(np.ones((5, 4)))
        assert out.shape == (5, 3)

    def test_parameters(self):
        layer = Linear(4, 3, random_state=0)
        assert layer.parameter_count() == 4 * 3 + 3

    def test_no_bias(self):
        layer = Linear(4, 3, bias=False, random_state=0)
        assert layer.parameter_count() == 12

    def test_gradients_flow(self):
        layer = Linear(2, 1, random_state=0)
        loss = (layer(np.ones((3, 2))) ** 2).sum()
        loss.backward()
        assert layer.weight.grad is not None
        assert layer.bias.grad is not None

    def test_set_weight(self):
        layer = Linear(2, 2, random_state=0)
        W = np.eye(2)
        layer.set_weight(W)
        out = layer(np.array([[1.0, 2.0]])).numpy()
        np.testing.assert_allclose(out, [[1.0, 2.0]] + layer.bias.numpy())

    def test_set_weight_shape_check(self):
        with pytest.raises(ValidationError):
            Linear(2, 2, random_state=0).set_weight(np.ones((3, 2)))


class TestHadamardLinear:
    def test_forward_shape(self):
        layer = HadamardLinear(6, 4, [2, 2], random_state=0)
        assert layer(np.ones((3, 6))).shape == (3, 4)

    def test_parameter_count_formula(self):
        layer = HadamardLinear(10, 8, [2, 3], random_state=0)
        expected = 2 * (10 + 8) + 3 * (10 + 8) + 8  # factors + bias
        assert layer.parameter_count() == expected

    def test_compresses_large_layers(self):
        dense = Linear(200, 100, random_state=0)
        compressed = HadamardLinear(200, 100, [10, 10], random_state=0)
        assert compressed.parameter_count() < dense.parameter_count()
        assert compressed.dense_parameter_count() == dense.parameter_count()

    def test_effective_weight_is_hadamard_product(self):
        layer = HadamardLinear(4, 3, [2, 2], random_state=0)
        manual = np.ones((4, 3))
        for A, B in layer.factors:
            manual = manual * (A.numpy() @ B.numpy())
        np.testing.assert_allclose(layer.effective_weight().numpy(), manual)

    def test_gradients_reach_all_factors(self):
        layer = HadamardLinear(3, 2, [2, 2], random_state=0)
        (layer(np.ones((4, 3))) ** 2).sum().backward()
        for A, B in layer.factors:
            assert A.grad is not None and np.any(A.grad != 0)
            assert B.grad is not None and np.any(B.grad != 0)

    def test_initialize_from_dense(self):
        rng = np.random.default_rng(0)
        target = rng.normal(size=(8, 6)) * 0.1
        layer = HadamardLinear(8, 6, [3, 3], random_state=0)
        error = layer.initialize_from_dense(target, max_iter=800, random_state=0)
        assert error < np.sum(target**2)
        approx = layer.effective_weight().numpy()
        assert np.sum((approx - target) ** 2) == pytest.approx(error)

    def test_empty_ranks(self):
        with pytest.raises(ValidationError):
            HadamardLinear(3, 3, [])

    def test_q3_factors(self):
        layer = HadamardLinear(5, 5, [2, 2, 2], random_state=0)
        assert len(layer.factors) == 3
        assert layer(np.ones((2, 5))).shape == (2, 5)


class TestActivationAndSequential:
    def test_unknown_activation(self):
        with pytest.raises(ValidationError):
            Activation("swish")

    def test_sequential_composition(self):
        net = Sequential([Linear(3, 4, random_state=0), Activation("relu"),
                          Linear(4, 2, random_state=1)])
        assert net(np.ones((5, 3))).shape == (5, 2)
        assert net.parameter_count() == (3 * 4 + 4) + (4 * 2 + 2)

    def test_identity_activation(self):
        x = np.array([[1.0, -2.0]])
        np.testing.assert_allclose(Activation("identity")(x).numpy(), x)


class TestOptimizers:
    def _quadratic_descent(self, optimizer_cls, **kwargs):
        target = np.array([3.0, -2.0])
        param = Tensor(np.zeros(2), requires_grad=True)
        optimizer = optimizer_cls([param], **kwargs)
        for _ in range(300):
            optimizer.zero_grad()
            loss = ((param - Tensor(target)) ** 2).sum()
            loss.backward()
            optimizer.step()
        return param.numpy(), target

    def test_sgd_converges(self):
        got, target = self._quadratic_descent(SGD, learning_rate=0.1)
        np.testing.assert_allclose(got, target, atol=1e-3)

    def test_sgd_momentum_converges(self):
        got, target = self._quadratic_descent(SGD, learning_rate=0.05, momentum=0.9)
        np.testing.assert_allclose(got, target, atol=1e-2)

    def test_adam_converges(self):
        got, target = self._quadratic_descent(Adam, learning_rate=0.1)
        np.testing.assert_allclose(got, target, atol=1e-2)

    def test_skips_parameters_without_grad(self):
        a = Tensor(np.zeros(2), requires_grad=True)
        b = Tensor(np.ones(2), requires_grad=True)
        optimizer = Adam([a, b], 0.1)
        loss = (a * a).sum()
        loss.backward()
        optimizer.step()
        np.testing.assert_array_equal(b.numpy(), np.ones(2))

    def test_empty_parameters_raises(self):
        with pytest.raises(ValidationError):
            SGD([], 0.1)

    def test_invalid_lr(self):
        with pytest.raises(ValidationError):
            Adam([Tensor(np.zeros(1), requires_grad=True)], 0.0)

    def test_invalid_momentum(self):
        with pytest.raises(ValidationError):
            SGD([Tensor(np.zeros(1), requires_grad=True)], 0.1, momentum=1.0)

    @pytest.mark.parametrize("config", [
        dict(beta1=1.0), dict(beta1=-0.5), dict(beta1=float("nan")),
        dict(beta2=1.0), dict(beta2=-1e-3), dict(epsilon=0.0),
        dict(epsilon=-1e-8), dict(epsilon=float("nan")),
    ])
    def test_invalid_adam_hyperparameters(self, config):
        with pytest.raises(ValidationError):
            Adam([Tensor(np.zeros(1), requires_grad=True)], 0.1, **config)

    def test_adam_accepts_zero_betas(self):
        p = Tensor(np.ones(2), requires_grad=True)
        optimizer = Adam([p], 0.1, beta1=0.0, beta2=0.0)
        p.grad = np.array([1.0, -1.0])
        optimizer.step()
        assert np.all(np.isfinite(p.numpy()))


class TestTraining:
    def test_minibatches_cover_everything(self):
        rng = np.random.default_rng(0)
        seen = np.concatenate(list(iterate_minibatches(103, 10, rng)))
        assert sorted(seen.tolist()) == list(range(103))

    def test_minibatches_no_shuffle(self):
        rng = np.random.default_rng(0)
        batches = list(iterate_minibatches(10, 4, rng, shuffle=False))
        np.testing.assert_array_equal(batches[0], [0, 1, 2, 3])

    def test_trainer_reduces_loss(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(128, 5))
        W_true = rng.normal(size=(5, 1))
        y = X @ W_true
        layer = Linear(5, 1, random_state=0)
        trainer = Trainer(Adam(layer.parameters(), 0.01), batch_size=32, random_state=0)

        def loss_fn(idx):
            prediction = layer(X[idx])
            difference = prediction - Tensor(y[idx])
            return (difference * difference).mean()

        history = trainer.run(128, loss_fn, epochs=30)
        assert history[-1] < 0.1 * history[0]

    def test_trainer_callback(self):
        calls = []
        layer = Linear(2, 1, random_state=0)
        trainer = Trainer(Adam(layer.parameters(), 0.01), batch_size=8, random_state=0)
        X = np.ones((16, 2))

        def loss_fn(idx):
            return (layer(X[idx]) ** 2).mean()

        trainer.run(16, loss_fn, epochs=3, callback=lambda e, l: calls.append((e, l)))
        assert len(calls) == 3


class TestAutoencoder:
    def test_roundtrip_shapes(self):
        ae = build_autoencoder(20, (8, 3), random_state=0)
        out = ae.forward(Tensor(np.zeros((4, 20))))
        assert out.shape == (4, 20)
        assert ae.transform(np.zeros((4, 20))).shape == (4, 3)

    def test_pretraining_reduces_reconstruction_loss(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(100, 12)) @ rng.normal(size=(12, 12)) * 0.1
        ae = build_autoencoder(12, (8, 4), random_state=0)
        before = ae.reconstruction_loss(X)
        ae.pretrain(X, epochs=30, batch_size=25, random_state=0)
        after = ae.reconstruction_loss(X)
        assert after < before

    def test_compressed_variant_has_fewer_params_when_large(self):
        dense = build_autoencoder(300, (64, 10), random_state=0)
        compressed = build_autoencoder(300, (64, 10), compressed=True, random_state=0)
        # Boundary layers stay dense; the inner ones are compressed.
        assert compressed.parameter_count() < dense.parameter_count()
        assert compressed.dense_parameter_count() == dense.parameter_count()

    def test_compress_boundary_layers_flag(self):
        inner_only = build_autoencoder(300, (64, 10), compressed=True, random_state=0)
        everything = build_autoencoder(
            300, (64, 10), compressed=True, compress_boundary_layers=True,
            random_state=0,
        )
        assert everything.parameter_count() < inner_only.parameter_count()

    def test_paper_preset_dimensions(self):
        assert PAPER_HIDDEN_DIMS == (1024, 512, 256, 10)
        assert SMALL_HIDDEN_DIMS[-1] == 10

    def test_requires_latent_dim(self):
        with pytest.raises(ValidationError):
            build_autoencoder(10, ())

    def test_explicit_ranks(self):
        ae = build_autoencoder(
            100, (20, 5), compressed=True, ranks=[3, 3], random_state=0
        )
        assert ae.forward(Tensor(np.zeros((2, 100)))).shape == (2, 100)

    @pytest.mark.parametrize("ranks", [[1], [3, 3, 3, 3]])
    def test_ranks_need_one_entry_per_layer(self, ranks):
        with pytest.raises(ValidationError) as excinfo:
            build_autoencoder(
                100, (20, 10, 5), compressed=True, ranks=ranks, random_state=0
            )
        assert excinfo.value.field == "ranks"
