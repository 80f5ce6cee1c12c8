"""Shared input-validation helpers.

These helpers centralize the checks performed at the public-API boundary so
that every estimator reports consistent, actionable error messages.  They are
intentionally strict: silent coercion of malformed input is a common source
of hard-to-debug clustering results.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence, Tuple

import numpy as np

from .exceptions import ValidationError

__all__ = [
    "check_array",
    "check_dtype",
    "as_float_array",
    "check_positive_int",
    "check_in",
    "check_n_features",
    "check_cardinalities",
    "check_random_state",
    "check_sample_weight",
    "int_prod",
]

#: rows per slab when validating a memory-mapped input blockwise; only this
#: many rows of finiteness flags are ever materialized at once.
_MEMMAP_CHECK_ROWS = 65536


def int_prod(values) -> int:
    """Exact product of ``values`` as an arbitrary-precision Python int.

    ``int(np.prod(...))`` computes in int64 and *silently wraps* once the
    product exceeds ``2**63 - 1`` — e.g. ``np.prod([2**32, 2**32])`` is 0 —
    which corrupts every ``k = prod(h_q)`` grid size for large Khatri-Rao
    configurations.  All grid sizes go through this helper instead.
    """
    return math.prod(int(v) for v in values)

#: working dtypes the kernel stack computes in; everything else is rejected
#: at the API boundary (``check_dtype``) or silently widened to float64 at
#: kernel entry (``as_float_array``).
SUPPORTED_DTYPES = (np.dtype(np.float64), np.dtype(np.float32))


def check_dtype(dtype, *, name: str = "dtype") -> np.dtype:
    """Validate an estimator ``dtype`` knob.

    Accepts anything :func:`numpy.dtype` understands (``"float32"``,
    ``np.float64``, an existing dtype instance, ...) as long as it resolves
    to one of the supported working dtypes, ``float64`` or ``float32``.

    Returns
    -------
    numpy.dtype
        The canonical dtype instance.
    """
    try:
        resolved = np.dtype(dtype)
    except TypeError:
        raise ValidationError(f"{name} could not be interpreted as a numpy dtype: {dtype!r}")
    if resolved not in SUPPORTED_DTYPES:
        raise ValidationError(
            f"{name} must be one of {tuple(str(d) for d in SUPPORTED_DTYPES)}, "
            f"got {dtype!r}"
        )
    return resolved


def as_float_array(a) -> np.ndarray:
    """Convert ``a`` to an ndarray, preserving a float32/float64 dtype.

    The dtype-aware kernels use this instead of ``np.asarray(a, dtype=float)``
    so a float32 input stays float32 end-to-end; any other dtype (ints,
    float16, ...) is widened to float64, the historical behavior.
    """
    a = np.asarray(a)
    if a.dtype in SUPPORTED_DTYPES:
        return a
    return a.astype(np.float64)


def check_array(
    X,
    *,
    name: str = "X",
    ndim: int = 2,
    min_samples: int = 1,
    dtype=np.float64,
    allow_empty: bool = False,
) -> np.ndarray:
    """Validate and convert ``X`` to a contiguous float ndarray.

    Parameters
    ----------
    X : array-like
        Input data.
    name : str
        Name used in error messages.
    ndim : int
        Required number of dimensions.
    min_samples : int
        Minimum size of the first axis.
    dtype : numpy dtype
        Target dtype of the returned array.
    allow_empty : bool
        Whether a zero-length first axis is acceptable.

    Returns
    -------
    numpy.ndarray
        A validated array of the requested dtype and dimensionality.

    Notes
    -----
    A :class:`numpy.memmap` whose dtype already matches is passed through
    **without copying** — the out-of-core seam.  Its finiteness check runs
    blockwise (a full-array ``isfinite`` would materialize an ``n x m``
    boolean temp, defeating the point of mapping), and the map itself flows
    into the blocked kernels, which slice it one row block at a time.  A
    memmap in the *wrong* dtype is rejected with a typed error rather than
    silently cast: the cast would allocate the whole dataset in RAM.
    """
    if isinstance(X, np.memmap) and X.ndim == ndim:
        requested = np.dtype(dtype)
        if X.dtype != requested:
            raise ValidationError(
                f"{name} is a memory-mapped array of dtype {X.dtype.name} but "
                f"this fit computes in {requested.name}; store the memmap in "
                f"the working dtype (casting would materialize it in RAM)"
            )
        if not X.flags["C_CONTIGUOUS"]:
            raise ValidationError(
                f"{name} is a memory-mapped array but not C-contiguous; "
                f"the row-block kernels stream contiguous row slices"
            )
        if not allow_empty and X.shape[0] < min_samples:
            raise ValidationError(
                f"{name} must contain at least {min_samples} samples, "
                f"got {X.shape[0]}"
            )
        for start in range(0, X.shape[0], _MEMMAP_CHECK_ROWS):
            if not np.all(np.isfinite(X[start:start + _MEMMAP_CHECK_ROWS])):
                raise ValidationError(f"{name} contains NaN or infinite values")
        return X
    try:
        arr = np.asarray(X, dtype=dtype)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{name} could not be converted to a numeric array: {exc}")
    if arr.ndim != ndim:
        raise ValidationError(f"{name} must be {ndim}-dimensional, got shape {arr.shape}")
    if not allow_empty and arr.shape[0] < min_samples:
        raise ValidationError(
            f"{name} must contain at least {min_samples} samples, got {arr.shape[0]}"
        )
    if not np.all(np.isfinite(arr)):
        raise ValidationError(f"{name} contains NaN or infinite values")
    return np.ascontiguousarray(arr)


def check_positive_int(value, name: str, *, minimum: int = 1) -> int:
    """Validate that ``value`` is an integer greater or equal to ``minimum``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    value = int(value)
    if value < minimum:
        raise ValidationError(f"{name} must be >= {minimum}, got {value}")
    return value


def check_sample_weight(sample_weight, n_samples: int, dtype=np.float64) -> np.ndarray:
    """Validate per-sample weights; defaults to all-ones.

    ``dtype`` is the estimator's working dtype: weights are cast once here
    so the per-point products (``w·X``, weighted inertia) stay in-dtype
    instead of silently promoting every float32 hot-loop array to float64.
    """
    if sample_weight is None:
        return np.ones(n_samples, dtype=dtype)
    weights = np.asarray(sample_weight, dtype=dtype).ravel()
    if weights.shape[0] != n_samples:
        raise ValidationError(
            f"sample_weight has length {weights.shape[0]}, expected {n_samples}"
        )
    if np.any(weights < 0) or not np.all(np.isfinite(weights)):
        raise ValidationError("sample_weight must be finite and non-negative")
    if weights.sum() <= 0:
        raise ValidationError("sample_weight must have positive total mass")
    return weights


def check_n_features(X: np.ndarray, n_features: int) -> None:
    """Reject new rows whose width differs from the fitted model's."""
    if X.shape[1] != n_features:
        raise ValidationError(
            f"X has {X.shape[1]} features, model was fitted with {n_features}"
        )


def check_in(value, name: str, allowed: Sequence) -> object:
    """Validate that ``value`` is one of ``allowed``."""
    if value not in allowed:
        raise ValidationError(f"{name} must be one of {tuple(allowed)!r}, got {value!r}")
    return value


def check_cardinalities(cardinalities, *, name: str = "cardinalities") -> Tuple[int, ...]:
    """Validate a sequence of protocentroid-set cardinalities ``(h_1, ..., h_p)``."""
    try:
        values = tuple(int(h) for h in cardinalities)
    except (TypeError, ValueError):
        raise ValidationError(f"{name} must be a sequence of integers, got {cardinalities!r}")
    if len(values) < 1:
        raise ValidationError(f"{name} must contain at least one set cardinality")
    for h in values:
        if h < 1:
            raise ValidationError(f"every cardinality in {name} must be >= 1, got {values}")
    return values


def check_random_state(seed: Optional[object]) -> np.random.Generator:
    """Turn ``seed`` into a :class:`numpy.random.Generator`.

    Accepts ``None`` (fresh entropy), an integer seed, or an existing
    ``Generator``/``RandomState`` instance.
    """
    if seed is None or isinstance(seed, (int, np.integer)):
        return np.random.default_rng(seed)
    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, np.random.RandomState):
        return np.random.default_rng(seed.randint(0, 2**32 - 1))
    raise ValidationError(f"random_state must be None, an int, or a Generator, got {seed!r}")
