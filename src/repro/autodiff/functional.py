"""Composite differentiable functions built on :class:`~repro.autodiff.Tensor`.

These cover the dense layer's fused affine map, the nonlinearities and
stable reductions the deep-clustering losses need: ReLU-family activations,
numerically stable softmax/logsumexp (required by the DKM loss, whose
``a = 1000`` temperature produces extreme exponents) and the mean-squared
reconstruction loss.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .tensor import Tensor, _unbroadcast

__all__ = [
    "affine", "relu", "leaky_relu", "sigmoid", "tanh", "softmax", "logsumexp", "mse_loss",
]


def affine(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None) -> Tensor:
    """Dense map ``x @ weight + bias`` as one tape node.

    The bias is added in place to the fresh product, so the values equal
    ``(x @ weight) + bias`` bit for bit with one array fewer.  Backward
    returns ``grad @ weight.T`` (only when ``x`` requires grad, so a data
    batch costs no product), ``x.T @ grad`` and the bias gradient summed
    over the broadcast rows, exactly as the ``matmul`` + ``add`` pair does.
    """
    data = x.data @ weight.data
    if bias is None:
        parents = (x, weight)
    else:
        data += bias.data
        parents = (x, weight, bias)

    def backward(grad):
        grads = (
            grad @ weight.data.T if x.requires_grad else None,
            x.data.T @ grad if weight.requires_grad else None,
        )
        if bias is None:
            return grads
        return grads + (
            _unbroadcast(grad, bias.data.shape) if bias.requires_grad else None,
        )

    return x._make(data, parents, backward)


def relu(x: Tensor) -> Tensor:
    """Rectified linear unit ``max(x, 0)``."""
    data = np.maximum(x.data, 0.0)

    def backward(grad):
        return (grad * (x.data > 0.0).astype(np.float64),)

    return x._make(data, (x,), backward)


def leaky_relu(x: Tensor, negative_slope: float = 0.01) -> Tensor:
    """Leaky ReLU: identity for positives, ``negative_slope · x`` otherwise."""
    positive = x.data > 0.0
    data = np.where(positive, x.data, negative_slope * x.data)

    def backward(grad):
        return (grad * np.where(positive, 1.0, negative_slope),)

    return x._make(data, (x,), backward)


def sigmoid(x: Tensor) -> Tensor:
    """Logistic sigmoid with a numerically stable forward pass."""
    data = np.where(
        x.data >= 0,
        1.0 / (1.0 + np.exp(-np.clip(x.data, -500, 500))),
        np.exp(np.clip(x.data, -500, 500))
        / (1.0 + np.exp(np.clip(x.data, -500, 500))),
    )

    def backward(grad):
        return (grad * data * (1.0 - data),)

    return x._make(data, (x,), backward)


def tanh(x: Tensor) -> Tensor:
    """Hyperbolic tangent."""
    data = np.tanh(x.data)

    def backward(grad):
        return (grad * (1.0 - data**2),)

    return x._make(data, (x,), backward)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis``.

    Implemented with the max-shift trick so that the huge negative exponents
    of the DKM loss (``exp(-a ||z - μ||²)`` with ``a = 1000``) do not
    underflow to an all-zero denominator.
    """
    shifted = x - x.max(axis=axis, keepdims=True).detach()
    exponentials = shifted.exp()
    return exponentials / exponentials.sum(axis=axis, keepdims=True)


def logsumexp(x: Tensor, axis: int = -1, keepdims: bool = False) -> Tensor:
    """Stable ``log Σ exp(x)`` along ``axis``."""
    maximum = x.max(axis=axis, keepdims=True).detach()
    result = (x - maximum).exp().sum(axis=axis, keepdims=True).log() + maximum
    if not keepdims:
        data = np.squeeze(result.data, axis=axis)
        squeezed = result.reshape(data.shape)
        return squeezed
    return result


def mse_loss(prediction: Tensor, target) -> Tensor:
    """Mean squared error between ``prediction`` and a fixed ``target``."""
    target = target if isinstance(target, Tensor) else Tensor(target)
    difference = prediction - target.detach()
    return (difference * difference).mean()
