"""Deterministic row-block execution layer.

The one execution path under every estimator's hot loops: assignment
and update work is partitioned into fixed *row blocks*, a supervised
thread pool runs the blocks (the GIL is released inside BLAS and
``bincount``), and the same seam streams a memory-mapped ``X`` through
``fit`` one block at a time.

The determinism contract
------------------------
* **Block boundaries are a pure function of** ``(n_rows, block_rows)``
  — :func:`row_blocks` never looks at the live thread count.
* **Merges happen in ascending block order.**  Per-row outputs are
  concatenated; sum-style outputs (grouped row sums, masses,
  contingency tables) are folded block 0, block 1, … whichever worker
  finished first.

So every pool width is **bit-identical by construction**, and a kernel
called without a pool runs the same blocks in order on the calling
thread (:func:`map_row_blocks`).

Cost rules
----------
* ``n_threads=None`` is one worker per core in the process's affinity
  mask.
* A map over a single block runs inline on the calling thread: no
  executor, BLAS left alone.
* While a pool has live workers, OpenBLAS runs ``max(1, cores // width)``
  threads (never more than before) — a process-global setting, restored
  when the last live pool closes.  With a BLAS other than numpy's
  OpenBLAS the budget is a no-op.

Supervision is fail-fast: the lowest failing *block index* wins,
remaining futures are cancelled, and there are no retries — the kernels
are deterministic.  The ``n_jobs`` restart sweep
(:mod:`repro.core._lloyd`) follows the same idiom over restarts.
"""

from __future__ import annotations

import ctypes
import functools
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from pathlib import Path
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from ..exceptions import ValidationError

__all__ = [
    "DEFAULT_BLOCK_ROWS",
    "ParallelConfig",
    "RowBlockPool",
    "blas_threads",
    "fold_blocks",
    "map_row_blocks",
    "open_row_pool",
    "resolve_parallel",
    "row_blocks",
]

#: Rows per block.  Fixed (not derived from ``n_threads``) so the
#: partition — and therefore every blocked reduction — is identical at
#: every pool width.  4096 rows x 64 float64 features is ~2 MB per
#: block: small enough to stream a memmap, large enough that BLAS
#: dominates dispatch overhead.
DEFAULT_BLOCK_ROWS = 4096


def _cores() -> int:
    """Cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without affinity masks
        return os.cpu_count() or 1


def row_blocks(n_rows: int, block_rows: int = DEFAULT_BLOCK_ROWS) -> Tuple[Tuple[int, int], ...]:
    """Fixed ``(start, stop)`` boundaries covering ``range(n_rows)``.

    A pure function of its arguments — never of the thread count — so
    the same data yields the same partition under any pool width.  The
    determinism contract of the whole layer rests on this.
    """
    n_rows = int(n_rows)
    block_rows = int(block_rows)
    if block_rows < 1:
        raise ValidationError(f"block_rows must be >= 1, got {block_rows}")
    if n_rows <= 0:
        return ()
    return tuple(
        (start, min(start + block_rows, n_rows))
        for start in range(0, n_rows, block_rows)
    )


class ParallelConfig:
    """Row-parallel policy for an estimator's ``n_threads`` knob.

    Parameters
    ----------
    n_threads : int
        Worker threads.  ``1`` still runs through the pool and the
        blocked kernels, so results are bit-identical at every width.
    block_rows : int
        Rows per block.  Part of the result for multi-block reductions
        (it fixes the accumulation split), so it is a config value, not
        a tuning detail the pool may adjust.  Default
        :data:`DEFAULT_BLOCK_ROWS`.
    """

    def __init__(self, n_threads: int = 1, *, block_rows: int = DEFAULT_BLOCK_ROWS):
        n_threads = int(n_threads)
        if n_threads < 1:
            raise ValidationError(f"n_threads must be >= 1, got {n_threads}")
        block_rows = int(block_rows)
        if block_rows < 1:
            raise ValidationError(f"block_rows must be >= 1, got {block_rows}")
        self.n_threads = n_threads
        self.block_rows = block_rows

    def __repr__(self) -> str:
        return (
            f"ParallelConfig(n_threads={self.n_threads}, "
            f"block_rows={self.block_rows})"
        )


def resolve_parallel(value) -> ParallelConfig:
    """Normalize an estimator's ``n_threads`` knob.

    ``None`` is one worker per core this process may run on; an int
    becomes ``ParallelConfig(n_threads)``; a config passes through.
    """
    if value is None:
        return ParallelConfig(_cores())
    if isinstance(value, ParallelConfig):
        return value
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return ParallelConfig(int(value))
    raise ValidationError(
        f"n_threads must be None, an int, or a ParallelConfig, got {value!r}"
    )


# ---------------------------------------------------------------- BLAS budget
#: (getter, setter) symbol pairs, newest OpenBLAS builds first.
_OPENBLAS_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)
_budget_lock = threading.Lock()
_budget_depth = 0
_budget_saved = 0


@functools.lru_cache(maxsize=None)
def _openblas():
    """``(get, set)`` thread-count functions of numpy's OpenBLAS, or ``None``."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("lib*openblas*.so*")):
        try:
            lib = ctypes.CDLL(str(path))
        except OSError:
            continue
        for get_name, set_name in _OPENBLAS_SYMBOLS:
            getter = getattr(lib, get_name, None)
            setter = getattr(lib, set_name, None)
            if getter is not None and setter is not None:
                getter.argtypes, getter.restype = [], ctypes.c_int
                setter.argtypes, setter.restype = [ctypes.c_int], None
                return getter, setter
    return None


def blas_threads() -> Optional[int]:
    """The OpenBLAS thread count now in force, or ``None`` when numpy's
    BLAS is not an OpenBLAS this module can reach."""
    handle = _openblas()
    return None if handle is None else int(handle[0]())


def _enter_blas_budget(width: int) -> None:
    """The first live pool saves the process's count and sets the budget."""
    global _budget_depth, _budget_saved
    handle = _openblas()
    if handle is None:
        return
    with _budget_lock:
        if _budget_depth == 0:
            _budget_saved = int(handle[0]())
            handle[1](min(_budget_saved, max(1, _cores() // width)))
        _budget_depth += 1


def _leave_blas_budget() -> None:
    """The last live pool to close restores the count saved on first entry."""
    global _budget_depth
    handle = _openblas()
    if handle is None:
        return
    with _budget_lock:
        _budget_depth -= 1
        if _budget_depth == 0:
            handle[1](_budget_saved)


# ----------------------------------------------------------------- the pool
class RowBlockPool:
    """A supervised thread pool that maps kernels over fixed row blocks.

    ``map(block_fn, n_rows)`` calls ``block_fn(start, stop)`` once per
    :func:`row_blocks` boundary and returns the results **in block
    order**, whatever order the workers finished in.  A map over a
    single block (or over zero rows, one empty block) runs inline on
    the calling thread; the executor — and with it the BLAS budget — is
    only started by the first multi-block map, and lives until
    :meth:`close`.  Inline or threaded, the blocks and the merge order
    are the same, so the results are too.

    Error handling is deterministic: when blocks fail, the exception
    from the *lowest failing block index* propagates (completion order
    never picks the error), remaining futures are cancelled, and the
    pool stays usable for the next call.  The pool is safe to share
    across ``n_jobs`` restart workers — ``submit`` is thread-safe, the
    executor is started once under a lock, and block workers never
    re-enter the pool.
    """

    def __init__(self, config: ParallelConfig):
        if not isinstance(config, ParallelConfig):
            raise ValidationError(
                f"RowBlockPool needs a ParallelConfig, got {config!r}"
            )
        self.config = config
        self._executor: Optional[ThreadPoolExecutor] = None
        self._closed = False
        self._lock = threading.Lock()

    def blocks(self, n_rows: int) -> Tuple[Tuple[int, int], ...]:
        """The fixed partition this pool uses for ``n_rows`` rows."""
        return row_blocks(n_rows, self.config.block_rows)

    def _ensure_executor(self) -> Optional[ThreadPoolExecutor]:
        """The live executor, started on first use; ``None`` once closed."""
        with self._lock:
            if self._executor is None and not self._closed:
                self._executor = ThreadPoolExecutor(
                    max_workers=self.config.n_threads,
                    thread_name_prefix="repro-rowblock",
                )
                _enter_blas_budget(self.config.n_threads)
            return self._executor

    def map(self, block_fn: Callable[[int, int], object], n_rows: int) -> List[object]:
        """Run ``block_fn(start, stop)`` per block; results in block order."""
        if n_rows <= self.config.block_rows:
            return [block_fn(0, n_rows)]  # at most one block: inline
        blocks = self.blocks(n_rows)
        executor = self._ensure_executor()
        if executor is None:  # closed
            return [block_fn(start, stop) for start, stop in blocks]
        futures = [executor.submit(block_fn, start, stop) for start, stop in blocks]
        results: List[object] = []
        for index, future in enumerate(futures):
            try:
                results.append(future.result())
            except BaseException:
                # Walking futures in block order means the first failure
                # we see IS the lowest failing block index — every earlier
                # block already returned.  Cancel the rest and wait out the
                # ones already running, so no block outlives the map.
                for pending in futures[index + 1:]:
                    pending.cancel()
                wait(futures)
                raise
        return results

    def close(self) -> None:
        """Stop the workers, wait for their threads to exit and release
        the BLAS budget.  A closed pool never restarts: a straggler still
        mapping on it (an ``n_jobs`` restart abandoned by Ctrl-C) runs its
        blocks inline."""
        with self._lock:
            executor, self._executor = self._executor, None
            self._closed = True
        if executor is not None:
            # Joining keeps one pool's threads from overlapping the next
            # pool's (a stream opens one per batch), which measured lower
            # peak memory than letting them exit in the background.
            executor.shutdown(wait=True, cancel_futures=True)
            _leave_blas_budget()

    def __enter__(self) -> "RowBlockPool":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "open" if self._executor is not None else "idle"
        return f"RowBlockPool({self.config!r}, {state})"


def open_row_pool(config: ParallelConfig) -> RowBlockPool:
    """The fit/predict-scoped pool for an estimator's resolved
    ``n_threads``; use it as a context manager so it closes on exit."""
    return RowBlockPool(config)


def map_row_blocks(
    pool: Optional[RowBlockPool],
    block_fn: Callable[[int, int], object],
    n_rows: int,
) -> List[object]:
    """``pool.map(block_fn, n_rows)``; without a pool, the same fixed
    :data:`DEFAULT_BLOCK_ROWS` blocks run in order on the calling thread.

    The one dispatch point of every row-blocked kernel, so a kernel
    called directly (no estimator, no pool) computes the identical
    partition and merge order an estimator's pool would.
    """
    if pool is not None:
        return pool.map(block_fn, n_rows)
    if n_rows <= DEFAULT_BLOCK_ROWS:
        return [block_fn(0, n_rows)]
    return [block_fn(start, stop) for start, stop in row_blocks(n_rows)]


def fold_blocks(parts: Sequence[np.ndarray]) -> np.ndarray:
    """Sum per-block partials **in ascending block order**.

    The one sanctioned way to merge sum-style blocked reductions: the
    fold order is the block order, so the result is independent of which
    worker finished first.  ``parts[0]`` must be freshly allocated by
    the block kernel (it is accumulated into).
    """
    out = parts[0]
    for part in parts[1:]:
        out += part
    return out
