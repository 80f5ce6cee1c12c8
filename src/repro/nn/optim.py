"""Optimizers: SGD with momentum and ADAM [Kingma & Ba, 2015].

The paper's deep-clustering experiments use ADAM with learning rate 1e-3 for
autoencoder pretraining and 1e-4 for clustering (Section 9.1).
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from ..autodiff import Tensor
from ..exceptions import ValidationError

__all__ = ["SGD", "Adam"]


class _Optimizer:
    def __init__(self, parameters: Sequence[Tensor], learning_rate: float) -> None:
        self.parameters: List[Tensor] = list(parameters)
        if not self.parameters:
            raise ValidationError("optimizer received no parameters")
        if learning_rate <= 0:
            raise ValidationError("learning_rate must be positive")
        self.learning_rate = float(learning_rate)

    def zero_grad(self) -> None:
        for p in self.parameters:
            p.zero_grad()

    def step(self) -> None:  # pragma: no cover - interface
        raise NotImplementedError


class SGD(_Optimizer):
    """Stochastic gradient descent with optional momentum."""

    def __init__(
        self,
        parameters: Sequence[Tensor],
        learning_rate: float = 1e-2,
        *,
        momentum: float = 0.0,
    ) -> None:
        super().__init__(parameters, learning_rate)
        if not 0.0 <= momentum < 1.0:
            raise ValidationError("momentum must be in [0, 1)")
        self.momentum = float(momentum)
        self._velocity = [np.zeros_like(p.data) for p in self.parameters]

    def step(self) -> None:
        for p, velocity in zip(self.parameters, self._velocity):
            if p.grad is None:
                continue
            velocity *= self.momentum
            velocity -= self.learning_rate * p.grad
            p.data += velocity


class Adam(_Optimizer):
    """ADAM optimizer with bias-corrected moment estimates.

    The moments of every parameter live in one flat buffer each, so a step
    gathers the gradients once and runs each ufunc once over all of them.
    Every element sees the same operations in the same order as a
    per-parameter update.  A parameter whose ``grad`` is ``None`` keeps its
    data and moments: its segments are saved before the update and restored
    after it.
    """

    def __init__(
        self,
        parameters: Sequence[Tensor],
        learning_rate: float = 1e-3,
        *,
        beta1: float = 0.9,
        beta2: float = 0.999,
        epsilon: float = 1e-8,
    ) -> None:
        super().__init__(parameters, learning_rate)
        for name, beta in (("beta1", beta1), ("beta2", beta2)):
            if not 0.0 <= beta < 1.0:
                raise ValidationError(f"{name} must be in [0, 1)")
        if not epsilon > 0.0:
            raise ValidationError("epsilon must be positive")
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.epsilon = float(epsilon)
        bounds = np.cumsum([0] + [p.data.size for p in self.parameters])
        self._segments = [slice(a, b) for a, b in zip(bounds[:-1], bounds[1:])]
        self._m = np.zeros(bounds[-1])
        self._v = np.zeros(bounds[-1])
        # Scratch: ``_grad`` gathers the gradients and later holds the
        # update's denominator; ``_update`` ends each step holding the step.
        self._grad = np.empty(bounds[-1])
        self._update = np.empty(bounds[-1])
        self._updates = [
            self._update[seg].reshape(p.data.shape)
            for p, seg in zip(self.parameters, self._segments)
        ]
        self._t = 0

    def step(self) -> None:
        self._t += 1
        bias1 = 1.0 - self.beta1**self._t
        bias2 = 1.0 - self.beta2**self._t
        m, v, g, update = self._m, self._v, self._grad, self._update
        chunks, held = [], []
        for p, seg in zip(self.parameters, self._segments):
            if p.grad is None:
                held.append((seg, m[seg].copy(), v[seg].copy()))
                chunks.append(np.zeros(seg.stop - seg.start))
            else:
                chunks.append(np.ravel(p.grad))
        np.concatenate(chunks, out=g)
        m *= self.beta1
        np.multiply(1.0 - self.beta1, g, out=update)
        m += update
        v *= self.beta2
        np.square(g, out=g)
        np.multiply(1.0 - self.beta2, g, out=g)
        v += g
        for seg, m_held, v_held in held:
            m[seg] = m_held
            v[seg] = v_held
        np.divide(m, bias1, out=update)
        np.multiply(self.learning_rate, update, out=update)
        np.divide(v, bias2, out=g)
        np.sqrt(g, out=g)
        g += self.epsilon
        update /= g
        for p, step in zip(self.parameters, self._updates):
            if p.grad is not None:
                p.data -= step
