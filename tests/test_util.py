import os

import numpy as np
import pytest

from nvlab.util import (
    CHUNK_FLOAT_BUDGET,
    CHUNK_MAX_PATHS,
    compute_chunks,
    resolve_threads,
    run_paths,
)

FLOOR = 16


@pytest.mark.parametrize("threads", [1, 2, 8])
@pytest.mark.parametrize("per_path_floats", [1, 1000, 2**16 * 5, 2**20 * 3, 2**22])
@pytest.mark.parametrize("total", [1, 100, 10**5, 10**7])
def test_memory_budget_is_shared_by_the_workers(threads, per_path_floats, total):
    # chunks are planned only: no thread is started here
    chunks = compute_chunks(total, per_path_floats, threads)
    counts = [c for _, c in chunks]
    assert sum(counts) == total
    assert [s for s, _ in chunks] == list(np.cumsum([0] + counts[:-1]))
    workers = resolve_threads(threads)
    assert max(counts) <= CHUNK_MAX_PATHS
    if max(counts) > FLOOR:
        assert max(counts) * per_path_floats * workers <= CHUNK_FLOAT_BUDGET
    if workers > 1 and total >= workers * FLOOR:
        assert len(chunks) >= workers  # every worker gets work


def test_small_footprints_are_cut_at_the_path_cap():
    # a footprint of a few floats would fit 10**5 paths in one chunk
    assert compute_chunks(10**5, 4, 1) == [
        (start, min(CHUNK_MAX_PATHS, 10**5 - start)) for start in range(0, 10**5, CHUNK_MAX_PATHS)
    ]


def test_run_paths_fills_rows_in_path_order():
    def worker(start, count):
        idx = np.arange(start, start + count, dtype=float)
        return np.stack([idx, -idx], axis=1)

    out = run_paths(100, CHUNK_FLOAT_BUDGET // 16, 3, worker, width=2)
    np.testing.assert_array_equal(out[:, 0], np.arange(100))
    np.testing.assert_array_equal(out[:, 1], -np.arange(100))
    flat = run_paths(50, 1, 1, lambda start, count: np.arange(start, start + count) ** 2)
    assert flat.shape == (50,)
    np.testing.assert_array_equal(flat, np.arange(50) ** 2)


def test_thread_requests_are_capped_at_the_available_cores(monkeypatch):
    # planning only: nothing here starts a thread
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5}, raising=False)
    assert [resolve_threads(t) for t in (0, 1, 2, 3, 1000)] == [1, 1, 2, 3, 3]
    # 3334 paths a worker, under the chunk cap: one chunk each
    assert len(compute_chunks(10**4, 1, 1000)) == 3
    chunks = compute_chunks(10**5, 2**16 * 5, 1000)
    assert sum(c for _, c in chunks) == 10**5
    assert max(c for _, c in chunks) * 2**16 * 5 * 3 <= CHUNK_FLOAT_BUDGET
    # without an affinity mask the cap is the machine's core count
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    assert resolve_threads(1000) == 4
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert resolve_threads(1000) == 1

