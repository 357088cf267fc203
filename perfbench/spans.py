"""Spans recorded from the benchmark's side of each layer boundary.

The program's own tracer stays off: the benchmark wraps public entry
points (``RoundRunner.run``, ``CubeResult.add_pairs``,
``CubeStore.cuboid``, ...) for the duration of a traced phase and
records one span per call — name, start, end, parent — in memory.  A
span's *self time* is its duration minus the time its child spans
cover.  Wrappers are removed on exit, so untraced phases run the
unmodified code.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional, Sequence, Tuple


class Span:
    __slots__ = ("name", "start", "end", "parent", "children", "before",
                 "after", "attrs")

    def __init__(self, name: str, start: float, parent: Optional["Span"]):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.children: List["Span"] = []
        self.before: Tuple = ()
        self.after: Tuple = ()
        self.attrs: Dict = {}

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - sum(child.duration for child in self.children)

    def delta(self, i: int) -> int:
        """Change of probe counter ``i`` across the span."""
        return self.after[i] - self.before[i]

    def walk(self):
        yield self
        for child in self.children:
            yield from child.walk()


class SpanRecorder:
    """Collects a tree of spans; single-threaded (traced phases are)."""

    def __init__(self):
        self.roots: List[Span] = []
        self._stack: List[Span] = []

    @contextmanager
    def span(self, name: str, probe: Optional[Callable[[], Tuple]] = None):
        parent = self._stack[-1] if self._stack else None
        record = Span(name, time.perf_counter(), parent)
        if probe is not None:
            record.before = probe()
        (parent.children if parent else self.roots).append(record)
        self._stack.append(record)
        try:
            yield record
        finally:
            self._stack.pop()
            record.end = time.perf_counter()
            if probe is not None:
                record.after = probe()

    def all(self, name: str) -> List[Span]:
        return [s for root in self.roots for s in root.walk() if s.name == name]


@contextmanager
def instrumented(
    recorder: SpanRecorder,
    targets: Sequence[Tuple[object, str, str]],
    probe: Optional[Callable[[], Tuple]] = None,
):
    """Wrap ``owner.attr`` in a span named ``name`` for each target.

    ``owner`` is a class or module; the original attribute is restored
    on exit even if the body raises.
    """
    originals = []
    try:
        for owner, attr, name in targets:
            original = owner.__dict__[attr]
            originals.append((owner, attr, original))
            setattr(owner, attr, _wrap(recorder, original, name, probe))
        yield recorder
    finally:
        for owner, attr, original in reversed(originals):
            setattr(owner, attr, original)


def _wrap(recorder, original, name, probe):
    is_static = isinstance(original, staticmethod)
    function = original.__func__ if is_static else original

    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        with recorder.span(name, probe):
            return function(*args, **kwargs)

    return staticmethod(wrapper) if is_static else wrapper
