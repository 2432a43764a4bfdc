"""Span recorder for the traced run.

The benchmark measures each layer from outside: it replaces the public
names that the pipeline looks up in ``brieskorn.report``,
``brieskorn.spectral`` and ``brieskorn.cli`` with timing wrappers.  A
wrapper passes its arguments through unchanged and returns the wrapped
function's result, so memo caches see the same calls in the same order.
Spans (name, start, end, parent, item) stay in memory and are written out
when the run ends.  ``arith`` (the ``Cyclotomic`` field operations) has no
span of its own: its time falls inside the ``spectral`` spans.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Dict, List, Optional


class Tracer:
    def __init__(self):
        self.names: List[str] = []
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.parents: List[Optional[int]] = []
        self.items: List[Optional[int]] = []
        self.stack: List[int] = []
        self.item: Optional[int] = None
        self.counts: Dict[str, List[float]] = defaultdict(lambda: [0.0, 0])
        self._restore = []

    def _open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.starts.append(time.perf_counter())
        self.ends.append(0.0)
        self.parents.append(self.stack[-1] if self.stack else None)
        self.items.append(self.item)
        self.stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self.stack.pop()

    @contextmanager
    def span(self, name: str, item: int):
        """The span of one request; wrapped calls inside it get its item id."""
        self.item = item
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)
            self.item = None

    def count(self, name: str, value: float) -> None:
        """Add one observation to a work counter (sum and number of calls)."""
        entry = self.counts[name]
        entry[0] += value
        entry[1] += 1

    def wrap(self, module, attr: str, name: str, on_result=None) -> None:
        """Replace module.attr by a wrapper that records a span per call
        made inside an item, and passes the result to on_result."""
        fn = getattr(module, attr)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.item is None:
                return fn(*args, **kwargs)
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if on_result is not None:
                on_result(self, args, result)
            return result

        setattr(module, attr, wrapper)
        self._restore.append((module, attr, fn))

    def unwrap(self) -> None:
        for module, attr, fn in reversed(self._restore):
            setattr(module, attr, fn)
        self._restore.clear()

    # -- analysis -----------------------------------------------------------

    def durations(self) -> List[float]:
        return [e - s for s, e in zip(self.starts, self.ends)]

    def self_times(self) -> List[float]:
        """Span duration minus the time its direct children cover."""
        dur = self.durations()
        out = list(dur)
        for idx, parent in enumerate(self.parents):
            if parent is not None:
                out[parent] -= dur[idx]
        return out

    def children(self) -> Dict[int, List[int]]:
        kids: Dict[int, List[int]] = defaultdict(list)
        for idx, parent in enumerate(self.parents):
            if parent is not None:
                kids[parent].append(idx)
        return kids

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for row in zip(self.names, self.starts, self.ends, self.parents,
                           self.items):
                handle.write(json.dumps(dict(zip(
                    ("name", "start", "end", "parent", "item"), row))) + "\n")
