"""The :class:`Tensor` — a numpy array with a gradient tape.

Implementation notes
--------------------
* Every operation records a backward closure on its output; ``backward()``
  topologically sorts the tape and accumulates gradients into ``grad``.
* Broadcasting is handled by :func:`_unbroadcast`, which sums gradient
  contributions over broadcast axes — the standard reverse of numpy
  broadcasting semantics.
* A backward closure returns ``None`` for a parent that does not require
  grad instead of computing a gradient the tape would discard (for a layer
  fed the data batch, that skips the ``grad @ W.T`` product).
* A process-wide :func:`no_grad` context disables taping for inference.
"""

from __future__ import annotations

import numbers
from contextlib import contextmanager
from typing import Callable, Iterator, List, Optional, Tuple

import numpy as np

from ..exceptions import ValidationError

__all__ = ["Tensor", "no_grad"]

_GRAD_ENABLED = True


@contextmanager
def _set_grad_enabled(enabled: bool) -> Iterator[None]:
    """Turn gradient taping on or off within the context."""
    global _GRAD_ENABLED
    previous = _GRAD_ENABLED
    _GRAD_ENABLED = enabled
    try:
        yield
    finally:
        _GRAD_ENABLED = previous


def no_grad():
    """Disable gradient taping within the context (inference mode)."""
    return _set_grad_enabled(False)


def _unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` over axes that were broadcast to reach ``grad.shape``."""
    if grad.shape == shape:
        return grad
    # Sum over leading axes added by broadcasting.
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    # Sum over axes of size 1 that were expanded.
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


def _as_tensor(value) -> "Tensor":
    return value if isinstance(value, Tensor) else Tensor(value)


def _subtract(left: "Tensor", right: "Tensor") -> "Tensor":
    """``left - right`` as one node.

    IEEE subtraction is addition of the negation, so the forward values
    equal ``left + (-right)`` bit for bit, and so does the right operand's
    gradient ``-unbroadcast(grad)``.  The parents keep that composition's
    order, so the tape walks every other node in the same order.
    """
    data = left.data - right.data

    def backward(grad):
        return (
            _unbroadcast(grad, left.data.shape) if left.requires_grad else None,
            -_unbroadcast(grad, right.data.shape) if right.requires_grad else None,
        )

    return left._make(data, (left, right), backward)


class Tensor:
    """Numpy-backed tensor with reverse-mode autodiff.

    Parameters
    ----------
    data : array-like
    requires_grad : bool
        Whether gradients should be accumulated into this tensor.

    Examples
    --------
    >>> x = Tensor([2.0, 3.0], requires_grad=True)
    >>> y = (x * x).sum()
    >>> y.backward()
    >>> x.grad.tolist()
    [4.0, 6.0]
    """

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents")

    def __init__(self, data, requires_grad: bool = False) -> None:
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad) and _GRAD_ENABLED
        self.grad: Optional[np.ndarray] = None
        self._backward: Optional[Callable[[np.ndarray], None]] = None
        self._parents: Tuple["Tensor", ...] = ()

    # ------------------------------------------------------------ properties
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def numpy(self) -> np.ndarray:
        """The underlying array (no copy)."""
        return self.data

    def item(self) -> float:
        """The value of a one-element tensor as a Python float."""
        if self.data.size != 1:
            raise ValidationError(
                f"item() needs a one-element tensor, got shape {self.data.shape}"
            )
        return self.data.item()

    def detach(self) -> "Tensor":
        """A view of the data cut off from the tape."""
        return Tensor(self.data)

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # -------------------------------------------------------------- plumbing
    def _make(self, data: np.ndarray, parents, backward) -> "Tensor":
        out = Tensor(data)
        if _GRAD_ENABLED and any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._parents = tuple(parents)
            out._backward = backward
        return out

    def backward(self, grad: Optional[np.ndarray] = None) -> None:
        """Backpropagate from this tensor through the tape.

        ``grad`` defaults to 1.0 and is only optional for scalar outputs.
        """
        if not self.requires_grad:
            raise ValidationError("backward() called on a tensor without grad")
        if grad is None:
            if self.data.size != 1:
                raise ValidationError("backward() without grad requires a scalar output")
            grad = np.ones_like(self.data)
        else:
            grad = np.asarray(grad, dtype=np.float64)

        # Topological order of the tape reachable from self.
        order: List[Tensor] = []
        visited = set()

        def visit(node: "Tensor") -> None:
            if id(node) in visited or not node.requires_grad:
                return
            visited.add(id(node))
            for parent in node._parents:
                visit(parent)
            order.append(node)

        visit(self)

        grads = {id(self): grad}
        for node in reversed(order):
            node_grad = grads.pop(id(node), None)
            if node_grad is None:
                continue
            if node._backward is None:
                # Leaf: accumulate into .grad.
                node.grad = node_grad if node.grad is None else node.grad + node_grad
                continue
            parent_grads = node._backward(node_grad)
            for parent, parent_grad in zip(node._parents, parent_grads):
                if parent_grad is None or not parent.requires_grad:
                    continue
                key = id(parent)
                if key in grads:
                    grads[key] = grads[key] + parent_grad
                else:
                    grads[key] = parent_grad

    # ----------------------------------------------------------- arithmetic
    def __add__(self, other) -> "Tensor":
        other = _as_tensor(other)
        data = self.data + other.data

        def backward(grad):
            return (
                _unbroadcast(grad, self.data.shape) if self.requires_grad else None,
                _unbroadcast(grad, other.data.shape) if other.requires_grad else None,
            )

        return self._make(data, (self, other), backward)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        def backward(grad):
            return (-grad,)

        return self._make(-self.data, (self,), backward)

    def __sub__(self, other) -> "Tensor":
        return _subtract(self, _as_tensor(other))

    def __rsub__(self, other) -> "Tensor":
        return _subtract(_as_tensor(other), self)

    def __mul__(self, other) -> "Tensor":
        other = _as_tensor(other)
        data = self.data * other.data

        def backward(grad):
            return (
                _unbroadcast(grad * other.data, self.data.shape)
                if self.requires_grad else None,
                _unbroadcast(grad * self.data, other.data.shape)
                if other.requires_grad else None,
            )

        return self._make(data, (self, other), backward)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Tensor":
        other = _as_tensor(other)
        data = self.data / other.data

        def backward(grad):
            return (
                _unbroadcast(grad / other.data, self.data.shape)
                if self.requires_grad else None,
                _unbroadcast(-grad * self.data / (other.data**2), other.data.shape)
                if other.requires_grad else None,
            )

        return self._make(data, (self, other), backward)

    def __rtruediv__(self, other) -> "Tensor":
        return _as_tensor(other) / self

    def __pow__(self, exponent: float) -> "Tensor":
        if isinstance(exponent, (bool, np.bool_)) or not isinstance(exponent, numbers.Real):
            raise ValidationError("only real scalar exponents are supported")
        data = self.data**exponent

        def backward(grad):
            return (grad * exponent * self.data ** (exponent - 1),)

        return self._make(data, (self,), backward)

    def __matmul__(self, other) -> "Tensor":
        other = _as_tensor(other)
        data = self.data @ other.data

        def backward(grad):
            return (
                grad @ other.data.T if self.requires_grad else None,
                self.data.T @ grad if other.requires_grad else None,
            )

        return self._make(data, (self, other), backward)

    # ------------------------------------------------------------ reductions
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(grad):
            g = np.asarray(grad)
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis=axis)
            return (np.broadcast_to(g, self.data.shape).copy(),)

        return self._make(data, (self,), backward)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        elif isinstance(axis, tuple):
            count = int(np.prod([self.data.shape[a] for a in axis]))
        else:
            count = self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        data = self.data.max(axis=axis, keepdims=keepdims)

        def backward(grad):
            g = np.asarray(grad)
            expanded = data
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis=axis)
                expanded = np.expand_dims(data, axis=axis)
            mask = (self.data == expanded).astype(np.float64)
            # Split gradient among ties.
            mask /= mask.sum(axis=axis, keepdims=True) if axis is not None else mask.sum()
            return (mask * g,)

        return self._make(data, (self,), backward)

    # ----------------------------------------------------------- elementwise
    def exp(self) -> "Tensor":
        data = np.exp(self.data)

        def backward(grad):
            return (grad * data,)

        return self._make(data, (self,), backward)

    def log(self) -> "Tensor":
        data = np.log(self.data)

        def backward(grad):
            return (grad / self.data,)

        return self._make(data, (self,), backward)

    def sqrt(self) -> "Tensor":
        return self**0.5

    def abs(self) -> "Tensor":
        data = np.abs(self.data)

        def backward(grad):
            return (grad * np.sign(self.data),)

        return self._make(data, (self,), backward)

    def clip_min(self, minimum: float) -> "Tensor":
        """Elementwise ``max(x, minimum)`` (used for numerical floors)."""
        data = np.maximum(self.data, minimum)

        def backward(grad):
            return (grad * (self.data > minimum).astype(np.float64),)

        return self._make(data, (self,), backward)

    # --------------------------------------------------------------- shapes
    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        original = self.data.shape
        data = self.data.reshape(shape)

        def backward(grad):
            return (grad.reshape(original),)

        return self._make(data, (self,), backward)

    @property
    def T(self) -> "Tensor":
        data = self.data.T

        def backward(grad):
            return (grad.T,)

        return self._make(data, (self,), backward)

    def expand_dims(self, axis: int) -> "Tensor":
        data = np.expand_dims(self.data, axis)

        def backward(grad):
            return (np.squeeze(grad, axis=axis),)

        return self._make(data, (self,), backward)

    def take_rows(self, indices: np.ndarray) -> "Tensor":
        """Row gather ``x[indices]`` with scatter-add backward."""
        indices = np.asarray(indices, dtype=np.int64)
        data = self.data[indices]

        def backward(grad):
            out = np.zeros_like(self.data)
            np.add.at(out, indices, grad)
            return (out,)

        return self._make(data, (self,), backward)
