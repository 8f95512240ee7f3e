"""In-memory span recording and self-time arithmetic.

A span is one call across a layer boundary: its name, start and end (from a
nanosecond clock), the span that caused it, the thread it ran on and a work
count (paths, normals, bytes, ...). Spans stay in memory while the workload
runs; :func:`save` writes them out once measurement is over.

Self time is a span's duration minus the part of its interval that its child
spans cover. Children on other threads (pool workers) may overlap each other,
so the covered part is the union of the child intervals, not their sum.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Iterable, NamedTuple

import numpy as np


class Span(NamedTuple):
    id: int
    name: str
    start: int
    end: int
    parent: int  # 0 = a root span
    thread: int
    count: int = 0


class Tracer:
    """Records spans from any thread; a per-thread stack supplies the parent."""

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns):
        self._clock = clock
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._per_thread: list[list[Span]] = []
        self.names: dict[str, int] = {}  # span name -> index, for packed spans

    def _thread_state(self):
        state = getattr(self._local, "state", None)
        if state is None:
            spans: list[Span] = []
            with self._lock:
                self._per_thread.append(spans)
            state = self._local.state = ([], spans, threading.get_native_id())
        return state

    def now(self) -> int:
        return self._clock()

    def current(self) -> tuple[int, str]:
        """(id, name) of the innermost open span on this thread, or (0, "")."""
        stack = self._thread_state()[0]
        return stack[-1] if stack else (0, "")

    def enter(self, name: str, parent: int | None = None):
        stack, spans, thread = self._thread_state()
        sid = next(self._ids)
        if parent is None:
            parent = stack[-1][0] if stack else 0
        stack.append((sid, name))
        return (stack, spans, thread, sid, name, parent, self._clock())

    def exit(self, token, count: int = 0, end: int | None = None) -> None:
        if end is None:
            end = self._clock()
        stack, spans, thread, sid, name, parent, start = token
        stack.pop()
        spans.append(Span(sid, name, start, end, parent, thread, count))

    def drain(self) -> list[Span]:
        """All spans recorded since the last drain, ordered by start."""
        with self._lock:
            out = []
            for spans in self._per_thread:
                out.extend(spans)
                spans.clear()
        return sorted(out, key=lambda s: s.start)

    def pack(self, spans: list[Span]) -> np.ndarray:
        """Spans as an int64 array, one column per Span field, names as indices.

        Packed spans hold a repetition's trace in one object, so traces kept
        for writing out do not burden the garbage collector of later ones.
        """
        index = self.names
        rows = [(s.id, index.setdefault(s.name, len(index)), *s[2:]) for s in spans]
        return np.array(rows, dtype=np.int64).reshape(-1, len(Span._fields))


def traced(
    tracer: Tracer,
    name: str | Callable[..., str],
    fn: Callable,
    count: Callable | None = None,
) -> Callable:
    """``fn`` wrapped in a span.

    ``name`` may be a function of the call's arguments; ``count(result, *args,
    **kwargs)`` gives the span's work count.
    """

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        label = name if isinstance(name, str) else name(*args, **kwargs)
        token = tracer.enter(label)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            tracer.exit(token)
            raise
        end = tracer.now()
        tracer.exit(token, count(result, *args, **kwargs) if count else 0, end)
        return result

    return wrapper


def _covered(intervals: Iterable[tuple[int, int]]) -> int:
    """Length of the union of half-open intervals."""
    total = 0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        elif hi > cur_hi:
            cur_hi = hi
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: Iterable[Span]) -> dict[int, int]:
    """Span id -> duration minus the union of its children's intervals (ns)."""
    spans = list(spans)
    by_id = {s.id: s for s in spans}
    children: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for s in spans:
        p = by_id.get(s.parent)
        if p is not None:
            children[p.id].append((max(s.start, p.start), min(s.end, p.end)))
    return {
        s.id: (s.end - s.start) - _covered(iv for iv in children.get(s.id, ()) if iv[1] > iv[0])
        for s in spans
    }


def save(path: Path, names: dict[str, int], packed: list[np.ndarray]) -> None:
    """Write packed spans (see :meth:`Tracer.pack`) with their name table."""
    np.savez_compressed(
        path,
        names=np.array(list(names)),
        columns=np.array(Span._fields),
        spans=np.concatenate(packed) if packed else np.empty((0, len(Span._fields)), np.int64),
    )
