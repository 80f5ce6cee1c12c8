"""Outside-in span recorder for the traced benchmark run.

The recorder wraps public functions and methods of the program from the
outside: every wrapped call records one span ``(name, start, end,
parent)`` in memory.  Nothing under ``src/`` is edited; a function is
replaced at every module attribute that is bound to it, so the wrapper
sees the call whichever module the caller resolved it through (for
example ``repro.core.kr_kmeans.assign_factored`` as well as
``repro.core._factored.assign_factored``).  :meth:`Recorder.restore`
puts every original back.

Spans nest through a per-thread stack.  Work a row pool runs on its
worker threads is attached to the span that submitted it
(:meth:`Recorder.adopt`), so a nested call is a child span, never a
second top-level count.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterable, List, Optional

__all__ = ["Recorder", "Span"]

#: The program whose functions the recorder may rebind.
PACKAGE = "repro"


class Span:
    """One timed call.  ``parent`` is the index of the enclosing span."""

    __slots__ = ("name", "start", "end", "parent", "attrs")

    def __init__(self, name: str, start: float, parent: Optional[int]):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.attrs: Optional[dict] = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Collects spans in memory and owns the patches that produce them."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: List[tuple] = []

    # ------------------------------------------------------------ recording
    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> Optional[int]:
        """Index of the innermost open span on this thread, or ``None``."""
        stack = self._stack()
        return stack[-1] if stack else None

    @contextmanager
    def span(self, name: str):
        """Record the enclosed block as one span; yields the :class:`Span`."""
        stack = self._stack()
        record = Span(name, 0.0, stack[-1] if stack else None)
        with self._lock:  # pool threads append concurrently
            self.spans.append(record)
            stack.append(len(self.spans) - 1)
        record.start = time.perf_counter()
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            stack.pop()

    def add(self, name: str, start: float, end: float,
            parent: Optional[int] = None) -> int:
        """Record a span timed by the caller (asyncio tasks interleave on
        one thread, so they cannot use the per-thread stack)."""
        record = Span(name, start, parent)
        record.end = end
        with self._lock:
            self.spans.append(record)
            return len(self.spans) - 1

    @contextmanager
    def adopt(self, parent: Optional[int]):
        """Make ``parent`` (a span opened on another thread) the parent of
        the spans this thread opens inside the block."""
        saved = getattr(self._local, "stack", None)
        self._local.stack = [] if parent is None else [parent]
        try:
            yield
        finally:
            self._local.stack = saved

    def wrap(self, fn: Callable, name: str,
             attrs: Optional[Callable] = None) -> Callable:
        """A span-recording wrapper of ``fn``.

        ``attrs(args, kwargs, result)`` may return a dict stored on the
        span (row counts, bytes written).
        """
        recorder = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with recorder.span(name) as record:
                result = fn(*args, **kwargs)
            if attrs is not None:
                record.attrs = attrs(args, kwargs, result)
            return result

        return traced

    # -------------------------------------------------------------- patching
    def patch_function(self, func: Callable, name: str,
                       attrs: Optional[Callable] = None) -> None:
        """Wrap ``func`` wherever the program binds it (see :meth:`rebind`)."""
        self.rebind(func, self.wrap(func, name, attrs))

    def rebind(self, func: Callable, replacement: Callable) -> None:
        """Replace ``func`` at every attribute bound to it in every loaded
        module of the program's package."""
        found = False
        for module_name, module in list(sys.modules.items()):
            if module is None or module_name.split(".")[0] != PACKAGE:
                continue
            for attr, value in list(vars(module).items()):
                if value is func:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, replacement)
                    found = True
        if not found:
            raise LookupError(f"{func!r} is not bound in any {PACKAGE} module")

    def patch_method(self, cls: type, attr: str, name: str,
                     attrs: Optional[Callable] = None) -> None:
        """Wrap the method ``attr`` defined on ``cls`` itself."""
        original = cls.__dict__[attr]
        self.install(cls, attr, self.wrap(original, name, attrs))

    def install(self, owner, attr: str, replacement) -> None:
        """Set ``owner.attr`` to ``replacement``, remembering the original."""
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        """Undo every patch, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------- analysis
    def children(self) -> Dict[int, List[int]]:
        out: Dict[int, List[int]] = {}
        for index, record in enumerate(self.spans):
            if record.parent is not None:
                out.setdefault(record.parent, []).append(index)
        return out

    def self_times(self) -> List[float]:
        """Each span's duration minus the part of it its children cover.

        Children on pool threads can overlap each other, so the covered
        part is the union of the child intervals, clipped to the parent.
        """
        kids = self.children()
        out = []
        for index, record in enumerate(self.spans):
            intervals = sorted(
                (max(self.spans[c].start, record.start),
                 min(self.spans[c].end, record.end))
                for c in kids.get(index, ())
            )
            covered = 0.0
            reach = record.start
            for start, end in intervals:
                start = max(start, reach)
                if end > start:
                    covered += end - start
                    reach = end
            out.append(max(record.duration - covered, 0.0))
        return out

    def outermost(self, names: Iterable[str]) -> List[int]:
        """Indices of spans named in ``names`` with no ancestor of those
        names: a recursive or nested call is counted once."""
        names = frozenset(names)
        out = []
        for index, record in enumerate(self.spans):
            if record.name not in names:
                continue
            parent = record.parent
            while parent is not None and self.spans[parent].name not in names:
                parent = self.spans[parent].parent
            if parent is None:
                out.append(index)
        return out

    def dump(self, path) -> None:
        """Write the spans as JSON lines: name, start, end, parent, attrs."""
        base = min((s.start for s in self.spans), default=0.0)
        with open(path, "w", encoding="utf-8") as handle:
            for index, record in enumerate(self.spans):
                handle.write(json.dumps({
                    "id": index, "name": record.name,
                    "start": record.start - base, "end": record.end - base,
                    "parent": record.parent, "attrs": record.attrs,
                }) + "\n")
