"""Shared helpers: deterministic batching and worker pools.

Every Monte Carlo estimator runs through :func:`run_paths`: paths are cut into
memory-bounded chunks defined by path indices only, every path owns its own
random stream, and each chunk fills its own rows of the output, so estimates
are byte-identical for any worker count.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Sequence, TypeVar

import numpy as np

R = TypeVar("R")
S = TypeVar("S")

# Default number of statistics batches; also the unit of parallel work.
STAT_BATCHES = 20


def split_paths(total: int, batches: int = STAT_BATCHES) -> list[tuple[int, int]]:
    """Split ``total`` paths into ``batches`` contiguous (start, count) ranges.

    Counts differ by at most one; empty ranges are dropped.
    """
    if total < 1:
        raise ValueError("total paths must be >= 1")
    batches = min(batches, total)
    base, extra = divmod(total, batches)
    out = []
    start = 0
    for i in range(batches):
        count = base + (1 if i < extra else 0)
        out.append((start, count))
        start += count
    return out


# Transient allocation cap, in float64 counts (~540 MB), shared by all
# workers; path chunks are sized by what a chunk keeps so the chunks in flight
# together stay under it. Where the fine noise is drawn one path tile at a time
# (a closed-form reference, the source term) a chunk keeps only coarse-grid
# arrays, and the limit SDE draws its noise one block of steps at a time, so
# their chunks are sized by the coarse grid and by the block; the proxy
# reference keeps its chunk's whole fine noise (analysis._reference_chunk).
CHUNK_FLOAT_BUDGET = 2**26
# The most paths a chunk takes, whatever its footprint: the nv march costs
# about 27 ns a path-step from about 3000 paths on and gains little above, so
# larger chunks would fill the budget for no speed (uncapped, criterion 5's
# scheme side marches 52347-path chunks and peaks at 477 MB RSS).
CHUNK_MAX_PATHS = 8192


def compute_chunks(total: int, per_path_floats: int, threads: int) -> list[tuple[int, int]]:
    """Path ranges for the compute workers.

    Each of the resolved workers gets an equal share of the memory budget
    (never fewer than 16 paths per chunk), chunks take at most
    CHUNK_MAX_PATHS paths, and they are small enough to feed every worker.
    Per-path results never depend on how paths are grouped (all kernels act
    path-wise), so any chunking yields identical output arrays.
    """
    workers = resolve_threads(threads)
    max_chunk = max(16, CHUNK_FLOAT_BUDGET // workers // max(1, per_path_floats))
    max_chunk = min(max_chunk, CHUNK_MAX_PATHS)
    if workers > 1:
        max_chunk = min(max_chunk, max(16, -(-total // workers)))
    return [(start, min(max_chunk, total - start)) for start in range(0, total, max_chunk)]


def run_paths(
    paths: int,
    per_path_floats: int,
    threads: int,
    worker: Callable[[int, int], np.ndarray],
    width: int | None = None,
) -> np.ndarray:
    """Per-path values of paths 0..paths-1: the one Monte Carlo loop.

    ``worker(start, count)`` returns the values of paths start..start+count-1
    (shape (count,), or (count, width) when ``width`` is given). Paths are cut
    into memory-bounded chunks (``per_path_floats`` is the transient float64
    footprint of one path) and the workers fill disjoint rows of the output,
    so the result is the same for every thread count and chunking.
    """
    out = np.empty(paths if width is None else (paths, width))

    def task(spec):
        start, count = spec
        out[start : start + count] = worker(start, count)

    run_batches(task, compute_chunks(paths, per_path_floats, threads), threads)
    return out


def _available_cores() -> int:
    """Cores this process may run on (its CPU affinity where the OS has one)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def resolve_threads(threads: int) -> int:
    """0 means auto; negative is rejected.

    Auto resolves to 1: the scheme march is many small numpy calls, each of
    which holds the GIL, so threads marching side by side slow each other
    down, and the workers split the memory budget, so each marches smaller
    chunks. Normal fills and ufuncs over large arrays do release the GIL, so
    the normal-bound estimators gain from more threads. An explicit
    positive count is capped at the available cores, so no request starts
    more threads than can run; results are identical either way.
    """
    if threads < 0:
        raise ValueError("threads must be >= 0")
    if threads == 0:
        return 1
    return min(threads, _available_cores())


def run_batches(worker: Callable[[S], R], specs: Sequence[S], threads: int = 1) -> list[R]:
    """Apply ``worker`` to each spec, preserving order.

    With ``threads`` > 1 the work runs on a thread pool. numpy releases the
    GIL in normal fills and in ufuncs over large arrays, which then overlap;
    the march's small calls do not. Output order equals input order
    regardless of scheduling, which is what the determinism guarantees rely
    on.
    """
    threads = resolve_threads(threads)
    if threads == 1 or len(specs) <= 1:
        return [worker(s) for s in specs]
    with ThreadPoolExecutor(max_workers=min(threads, len(specs))) as pool:
        return list(pool.map(worker, specs))
