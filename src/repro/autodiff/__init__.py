"""Minimal reverse-mode automatic differentiation over numpy arrays.

Deep clustering (paper Section 3, Eq. 2) is "optimized via batch-wise
backpropagation, using automatic differentiation".  The original work uses
PyTorch; offline we provide an equivalent substrate: a tape-based
:class:`Tensor` supporting the operations the DKM and IDEC losses require —
matrix products, elementwise arithmetic, broadcasting, reductions,
exponentials/logarithms and stable softmax.

Gradients are accumulated into ``Tensor.grad`` by calling ``backward()`` on
a scalar loss, exactly like the PyTorch API the paper's implementation uses.
"""

from .functional import affine, logsumexp, mse_loss, relu, sigmoid, softmax, tanh
from .tensor import Tensor, no_grad

__all__ = [
    "Tensor",
    "no_grad",
    "affine",
    "relu",
    "sigmoid",
    "tanh",
    "softmax",
    "logsumexp",
    "mse_loss",
]
