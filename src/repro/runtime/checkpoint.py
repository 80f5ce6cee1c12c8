"""Atomic training checkpoints with bit-identical resume.

A checkpoint is a snapshot of *everything a Lloyd-style training loop
needs to continue exactly where it stopped*: model state (protocentroids
or centroids), the labels and Hamerly-bound caches the pruned assignment
path carries across iterations, the iteration/restart counters, the
best-restart-so-far, and the serialized RNG state.  Because every array
round-trips losslessly through ``.npz`` and the RNG state round-trips
exactly, a run resumed from a checkpoint produces **bit-identical**
labels, inertia and iteration counts to the uninterrupted run — the
property :mod:`tests.test_runtime_checkpoint` certifies over the
(estimator × assignment × pruning × dtype) grid.

File format
-----------
One ``.npz`` archive, written atomically (``.tmp`` sibling +
:func:`os.replace`, so a crash mid-write never clobbers the previous
snapshot) containing:

* ``header`` — a JSON blob: format version, the owning estimator's
  configuration fingerprint (resuming under different knobs would not
  reproduce the run, so mismatches are typed errors), a dataset
  fingerprint (shape/dtype/SHA-256 of the cast training array), the
  iteration/restart counters, the serialized RNG state, and SHA-256
  content digests of every stored array;
* the state arrays themselves, keyed by the estimator.

:meth:`read_checkpoint` verifies the digests and every structural
invariant before anything reaches an estimator; all failures are
:class:`~repro.exceptions.CheckpointError` naming the offending field.

The same envelope carries stream/monitor snapshots, golden scenarios and
:class:`~repro.summary.DataSummary` archives; summaries differ only in
their error type and in accepting legacy archives without digests.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Dict, Optional, Tuple, Type, Union

import numpy as np

from ..exceptions import CheckpointError, ValidationError

__all__ = [
    "CheckpointConfig",
    "array_digest",
    "data_fingerprint",
    "read_checkpoint",
    "resolve_checkpoint",
    "restore_rng_state",
    "serialize_rng_state",
    "write_checkpoint",
]

_FORMAT_VERSION = 1


class CheckpointConfig:
    """Where and how often a training loop snapshots itself.

    Parameters
    ----------
    path : str or Path
        Snapshot file (``.npz``); each write atomically replaces the
        previous one.
    every : int
        Snapshot cadence in completed iterations (mini-batch: steps).
        ``every=1`` (default) checkpoints after every iteration — the
        strongest crash guarantee; larger values trade recovery
        granularity for less write traffic.
    """

    def __init__(self, path: Union[str, Path], *, every: int = 1):
        self.path = Path(path)
        every = int(every)
        if every < 1:
            raise ValidationError(f"checkpoint every must be >= 1, got {every}")
        self.every = every

    def due(self, iteration: int) -> bool:
        """Whether a snapshot is due after completed iteration ``iteration``."""
        return iteration % self.every == 0

    def __repr__(self) -> str:
        return f"CheckpointConfig({str(self.path)!r}, every={self.every})"


def resolve_checkpoint(value) -> Optional[CheckpointConfig]:
    """Normalize an estimator's ``checkpoint`` knob.

    ``None`` stays ``None``; a path becomes ``CheckpointConfig(path)``
    (cadence 1); a config passes through.
    """
    if value is None:
        return None
    if isinstance(value, CheckpointConfig):
        return value
    if isinstance(value, (str, Path)):
        return CheckpointConfig(value)
    raise ValidationError(
        f"checkpoint must be None, a path, or a CheckpointConfig, got {value!r}"
    )


# ---------------------------------------------------------------- digests
def array_digest(a: np.ndarray) -> str:
    """SHA-256 content digest of an array's raw bytes (C-order)."""
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()


def data_fingerprint(X: np.ndarray, weights: Optional[np.ndarray] = None) -> Dict:
    """Identity of the training inputs a checkpoint belongs to.

    Resuming against different data would silently produce a different
    model, so the fingerprint — shape, dtype and content digest of the
    *cast* training array (and sample weights, when given) — is stored in
    the header and re-checked at resume time.
    """
    fp = {
        "shape": list(X.shape),
        "dtype": X.dtype.name,
        "sha256": array_digest(X),
    }
    if weights is not None:
        fp["weights_sha256"] = array_digest(weights)
    return fp


# -------------------------------------------------------------- rng state
def _encode_state(value):
    if isinstance(value, dict):
        return {k: _encode_state(v) for k, v in value.items()}
    if isinstance(value, np.ndarray):
        return {"__ndarray__": value.tolist(), "dtype": value.dtype.name}
    if isinstance(value, np.integer):
        return int(value)
    return value


def _decode_state(value):
    if isinstance(value, dict):
        if "__ndarray__" in value:
            return np.array(value["__ndarray__"], dtype=value["dtype"])
        return {k: _decode_state(v) for k, v in value.items()}
    return value


def serialize_rng_state(rng: np.random.Generator) -> Dict:
    """JSON-safe snapshot of a Generator's bit-generator state.

    PCG64 state is plain (big) integers; MT19937-style states carry a
    uint32 key array, encoded losslessly as a tagged list.  Restoring the
    snapshot puts the generator in *exactly* the state it was saved in,
    so the resumed run consumes the identical random stream.
    """
    return _encode_state(rng.bit_generator.state)


def restore_rng_state(rng: np.random.Generator, state: Dict) -> None:
    """Restore a state captured by :func:`serialize_rng_state`.

    The generator's bit-generator type must match the snapshot's — a
    PCG64 state cannot resume an MT19937 stream — else a typed
    :class:`~repro.exceptions.CheckpointError`.
    """
    decoded = _decode_state(state)
    expected = type(rng.bit_generator).__name__
    recorded = decoded.get("bit_generator") if isinstance(decoded, dict) else None
    if recorded != expected:
        raise CheckpointError(
            f"checkpoint records RNG state for {recorded!r} but the resuming "
            f"run uses {expected!r}; pass the same random_state kind",
            field="rng_state",
        )
    rng.bit_generator.state = decoded


# ------------------------------------------------------------ write / read
def write_checkpoint(
    path: Union[str, Path],
    header: Dict,
    arrays: Dict[str, np.ndarray],
    *,
    fault_hook=None,
) -> Path:
    """Atomically write one snapshot; returns the final path.

    The archive lands as a ``.tmp`` sibling first and is renamed over
    ``path`` with :func:`os.replace` only once fully written, so a crash
    at any point leaves either the previous snapshot or the new one —
    never a torn file.  ``header`` is augmented with the format version
    and per-array SHA-256 digests.  ``fault_hook(stage)``, when given, is
    invoked at ``"write"`` (before any bytes) and ``"replace"`` (tmp
    fully written, final rename pending) — the torn-write drill seam.
    """
    path = Path(path)
    full = {
        **header,
        "format_version": _FORMAT_VERSION,
        "checksums": {key: array_digest(a) for key, a in arrays.items()},
    }
    payload = {
        key: np.ascontiguousarray(a) for key, a in arrays.items()
    }
    payload["header"] = np.frombuffer(
        json.dumps(full).encode("utf-8"), dtype=np.uint8
    )
    if fault_hook is not None:
        fault_hook("write")
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as fh:
            np.savez(fh, **payload)
            fh.flush()
            os.fsync(fh.fileno())
        if fault_hook is not None:
            fault_hook("replace")
        os.replace(tmp, path)
    finally:
        if tmp.exists():
            try:
                tmp.unlink()
            except OSError:
                pass
    return path


def read_checkpoint(
    path: Union[str, Path],
    *,
    error: Type[ValidationError] = CheckpointError,
    require_digests: bool = True,
) -> Tuple[Dict, Dict[str, np.ndarray]]:
    """Load and verify an archive written by :func:`write_checkpoint`.

    Every malformed-archive shape — unreadable zip, missing/unparseable
    header, unsupported version, missing arrays, content-digest mismatch
    — raises ``error`` naming the offending field.  Every digest the
    header names is verified; ``require_digests=False`` also accepts a
    header without any (legacy summaries).  Returns ``(header, arrays)``
    with every other member materialized (the archive is closed).
    """
    path = Path(path)
    try:
        with np.load(path, allow_pickle=False) as archive:
            arrays = {key: archive[key] for key in archive.files}
    except FileNotFoundError:
        raise
    except Exception as exc:  # zipfile.BadZipFile, OSError, ValueError, ...
        raise error(f"{path} is not a readable .npz archive: {exc}") from exc
    if "header" not in arrays:
        raise error(f"{path} has no header member", field="header")
    try:
        header = json.loads(bytes(arrays.pop("header")).decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise error(
            f"{path} has an unparseable header: {exc}", field="header"
        ) from exc
    if not isinstance(header, dict):
        raise error(
            f"{path} header must be a JSON object, got "
            f"{type(header).__name__}", field="header",
        )
    if header.get("format_version") != _FORMAT_VERSION:
        raise error(
            f"unsupported archive format {header.get('format_version')!r}",
            field="format_version",
        )
    checksums = header.get("checksums")
    if checksums is None and not require_digests:
        checksums = {}
    if not isinstance(checksums, dict):
        raise error(
            f"{path} header checksums must be a JSON object of content "
            f"digests, got {type(checksums).__name__}", field="checksum",
        )
    for key, digest in checksums.items():
        if key not in arrays:
            raise error(
                f"{path} is missing array {key!r} named by the header",
                field=key,
            )
        if array_digest(arrays[key]) != digest:
            raise error(
                f"{path}: array {key!r} fails its SHA-256 content digest — "
                "the archive is corrupt", field="checksum",
            )
    return header, arrays


def state_array(arrays: Dict, key: str, dtype, path) -> np.ndarray:
    """``arrays[key]`` as a contiguous ``dtype`` array; a typed
    :class:`CheckpointError` when the checkpoint lacks it."""
    if key not in arrays:
        raise CheckpointError(
            f"{path} is missing state array {key!r}", field=key
        )
    return np.ascontiguousarray(arrays[key], dtype=dtype)


def check_header_fields(header: Dict, expected: Dict, *, path) -> None:
    """Raise :class:`CheckpointError` where ``header`` contradicts ``expected``.

    ``expected`` maps field name → the resuming estimator's value; every
    present-but-different field is a typed mismatch (resuming under
    different knobs, or against different data, would not reproduce the
    uninterrupted run).
    """
    for field, want in expected.items():
        have = header.get(field)
        if have != want:
            raise CheckpointError(
                f"{path} was written by a run with {field}={have!r}; the "
                f"resuming estimator has {field}={want!r}", field=field,
            )
