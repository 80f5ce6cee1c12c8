"""Fault-tolerant training runtime.

The execution layer under every estimator's ``fit``: atomic
checkpoint/resume with bit-identical continuation
(:mod:`~repro.runtime.checkpoint`) and the deterministic row-block layer
that parallelizes the per-iteration kernels and streams memory-mapped
inputs (:mod:`~repro.runtime.parallel`).  The ``n_init`` restart sweep,
sequential or on ``n_jobs`` threads, lives with the Lloyd engine in
:mod:`repro.core._lloyd`.  See ``docs/reliability.md`` for the
operator-facing story.
"""

from .checkpoint import (
    CheckpointConfig,
    array_digest,
    data_fingerprint,
    read_checkpoint,
    resolve_checkpoint,
    restore_rng_state,
    serialize_rng_state,
    write_checkpoint,
)
from .parallel import (
    DEFAULT_BLOCK_ROWS,
    ParallelConfig,
    RowBlockPool,
    fold_blocks,
    open_row_pool,
    resolve_parallel,
    row_blocks,
)

__all__ = [
    "CheckpointConfig",
    "DEFAULT_BLOCK_ROWS",
    "ParallelConfig",
    "RowBlockPool",
    "array_digest",
    "data_fingerprint",
    "fold_blocks",
    "open_row_pool",
    "read_checkpoint",
    "resolve_checkpoint",
    "resolve_parallel",
    "restore_rng_state",
    "row_blocks",
    "serialize_rng_state",
    "write_checkpoint",
]
