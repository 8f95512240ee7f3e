"""Reproducible Brownian increments and Rademacher signs on a fine grid.

Every path owns a counter-based random stream: a Philox4x64-10 generator whose
key is derived from the master seed and whose 256-bit counter encodes
(path_index, domain) in the high words. Draws for different paths or domains
can therefore never overlap, bundles are bit-reproducible from
(master_seed, path_index) alone, and generation order does not matter.

Domains: 0 = Gaussian increments, 1 = Rademacher signs, 2 = auxiliary noise
(used by the limit-law simulator for its extra Brownian motion).

Rademacher signs are defined from the raw 64-bit Philox words of the sign
stream (see :func:`rademacher_from_raw`), not from numpy's integer sampler.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

BIT_GENERATOR = "philox4x64-10"

DW_DOMAIN = 0
ETA_DOMAIN = 1
AUX_DOMAIN = 2


@lru_cache(maxsize=64)
def _philox_key(master_seed: int) -> tuple[int, int]:
    state = np.random.SeedSequence(master_seed).generate_state(2, np.uint64)
    return int(state[0]), int(state[1])


def stream(master_seed: int, path_index: int, domain: int = DW_DOMAIN) -> np.random.Generator:
    """The dedicated generator of one (path, domain) pair."""
    if path_index < 0:
        raise ValueError("path_index must be >= 0")
    counter = (int(domain) << 192) | (int(path_index) << 128)
    bitgen = np.random.Philox(counter=counter, key=_philox_key(int(master_seed)))
    return np.random.Generator(bitgen)


class StreamPool:
    """Reusable generator for iterating many (path, domain) streams.

    Resetting the Philox counter in place draws the exact same values as
    constructing the stream fresh, at a fraction of the setup cost. One pool
    per worker; pools are not thread-safe.
    """

    def __init__(self, master_seed: int):
        self._bitgen = np.random.Philox(counter=0, key=_philox_key(int(master_seed)))
        self.generator = np.random.Generator(self._bitgen)
        # The state of a fresh stream: empty output buffer, no cached half-word.
        # Only counter words 2 and 3 (path, domain) differ between streams, so a
        # seek edits them in place and assigns the dict, never reading the state.
        self._state = self._bitgen.state
        self._state.update(buffer_pos=4, has_uint32=0, uinteger=0)
        self._counter = self._state["state"]["counter"]

    def seek(self, path_index: int, domain: int) -> np.random.Generator:
        if path_index < 0:
            raise ValueError("path_index must be >= 0")
        self._counter[2] = path_index  # counter words are little-endian
        self._counter[3] = domain
        self._bitgen.state = self._state
        return self.generator

    def fill_normals(self, domain: int, path_start: int, out: np.ndarray) -> np.ndarray:
        """Fill ``out[i]`` with the standard normals of path ``path_start + i``'s
        ``domain`` stream, drawn in the row-major order of ``out[i]``."""
        for i in range(out.shape[0]):
            self.seek(path_start + i, domain).standard_normal(out.shape[1:], out=out[i])
        return out


def rademacher_from_raw(raw: np.ndarray, n: int) -> np.ndarray:
    """Signs in {-1, +1} from raw 64-bit Philox words, computed in place.

    ``raw`` is a C-contiguous little-endian uint64 array holding at least
    ceil(n / 8) words per row; it is overwritten and the result is an int8
    view of its memory, shape ``raw.shape[:-1] + (n,)``. Sign k of a row is
    the top bit of byte k of its words (bytes read low first), mapped 0 -> -1
    and 1 -> +1.

    This is, by construction, ``2 * integers(0, 2, size=n, dtype=np.int8) - 1``
    on the same stream: for a range of 2 numpy's Lemire sampler maps a byte u
    to (2 u) >> 8, the top bit of u (its rejection threshold (256 - 2) % 2 is
    0, so it never rejects), and it takes bytes low first from 32-bit draws,
    which in turn split each 64-bit word low half first. Defining the signs
    here ties them to the Philox output alone.
    """
    bits = raw.view(np.uint8)
    bits >>= 7
    eta = bits.view(np.int8)[..., :n]
    eta *= 2
    eta -= 1
    return eta


# Blocks of :func:`time_major_blocks`. Reading one step of path-major
# (paths, steps, width) arrays strides by steps * width elements, a power of
# two at the usual step counts, which maps every path to the same cache set.
# A block is instead copied path-major, one tile of paths at a time, into a
# staging buffer of at most TIME_MAJOR_STAGE_BYTES, and transposed from there;
# the staged rows are short (TIME_MAJOR_BLOCK is not a power of two, so they
# do not alias either). A block is at most TIME_MAJOR_BLOCK steps and at most
# 1/TIME_MAJOR_FRACTION of the steps (but at least one), so its buffer stays
# small next to the arrays it reads even where many paths take few steps,
# and long marches still read several cache lines of each path per block.
TIME_MAJOR_BLOCK = 60
TIME_MAJOR_FRACTION = 16
TIME_MAJOR_STAGE_BYTES = 2**17


def time_major_blocks(*arrays: np.ndarray):
    """Read path-major arrays (paths, steps, ...) in blocks of at most
    TIME_MAJOR_BLOCK steps.

    Yields ``(k0, rows_1, rows_2, ...)``: steps ``k0 .. k0 + len(rows_i) - 1``
    of each array as one contiguous time-major block (steps, ..., paths), so
    ``rows_i[k]`` holds step ``k0 + k`` of every path in rows of (..., paths).
    The arrays share their (paths, steps). One block buffer per array serves
    every block: a block is only valid until the next is read, and its
    holder may overwrite it.
    """
    paths, steps = arrays[0].shape[:2]
    step_bytes = [a.itemsize * math.prod(a.shape[2:]) for a in arrays]
    size = max(1, min(TIME_MAJOR_BLOCK, steps // TIME_MAJOR_FRACTION))
    buffers = []
    for a, nbytes in zip(arrays, step_bytes):
        tile = max(1, min(paths, TIME_MAJOR_STAGE_BYTES // max(1, size * nbytes)))
        stage = np.empty((tile, size) + a.shape[2:], a.dtype)
        buffers.append((stage, np.empty((size,) + a.shape[2:] + (paths,), a.dtype)))
    for k0 in range(0, steps, size):
        n = min(size, steps - k0)
        blocks = []
        for a, (stage, time_major) in zip(arrays, buffers):
            rows = time_major[:n]
            for p0 in range(0, paths, len(stage)):
                p1 = min(p0 + len(stage), paths)
                part = stage[: p1 - p0, :n]
                np.copyto(part, a[p0:p1, k0 : k0 + n])
                np.copyto(rows[..., p0:p1], np.moveaxis(part, 0, -1))
            blocks.append(rows)
        yield (k0, *blocks)


@dataclass(frozen=True)
class GridSpec:
    """Uniform grid with N steps on [0, T]."""

    N: int
    T: float

    def __post_init__(self):
        if self.N < 1:
            raise ValueError("N must be >= 1")
        if not self.T > 0:
            raise ValueError("T must be > 0")

    @property
    def h(self) -> float:
        return self.T / self.N

    def times(self) -> np.ndarray:
        return np.arange(self.N + 1) * self.h


@dataclass(frozen=True)
class PathBundle:
    """Brownian increments and Rademacher signs for a batch of paths.

    dW has shape (paths, n_fine, d) with per-coordinate variance T/n_fine,
    eta has shape (paths, n_fine) with values in {-1, +1}. Arrays are
    read-only; coarser discretizations are derived views, never mutations.
    Row i is path ``path_start + i`` of the master seed's stream numbering.
    """

    T: float
    n_fine: int
    d: int
    dW: np.ndarray
    eta: np.ndarray
    path_start: int = 0
    # coarse (dW, eta) arrays by step count, filled by coarsen(); it holds
    # arrays only, so a bundle is freed as soon as its last reference goes
    _coarse: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def paths(self) -> int:
        return self.dW.shape[0]

    @property
    def h(self) -> float:
        return self.T / self.n_fine


def make_bundle(master_seed: int, path_index: int, N_fine: int, d: int, T: float) -> PathBundle:
    """Single-path bundle, bit-deterministic in (master_seed, path_index)."""
    return make_bundle_batch(master_seed, path_index, 1, N_fine, d, T)


def make_bundle_batch(
    master_seed: int, path_start: int, n_paths: int, N_fine: int, d: int, T: float
) -> PathBundle:
    """Bundle for path indices path_start .. path_start + n_paths - 1.

    Row i is identical to ``make_bundle(master_seed, path_start + i, ...)``:
    batching is a packing detail, not part of the random stream.
    """
    if N_fine < 1 or d < 1:
        raise ValueError("N_fine and d must be >= 1")
    if n_paths < 1:
        raise ValueError("n_paths must be >= 1")
    if not T > 0:
        raise ValueError("T must be > 0")
    pool = StreamPool(master_seed)
    dW = pool.fill_normals(DW_DOMAIN, path_start, np.empty((n_paths, N_fine, d)))
    dW *= np.sqrt(T / N_fine)
    words = -(-N_fine // 8)  # one sign per byte
    raw = np.empty((n_paths, words), dtype="<u8")
    random_raw = pool.generator.bit_generator.random_raw
    for i in range(n_paths):
        pool.seek(path_start + i, ETA_DOMAIN)
        raw[i] = random_raw(words)
    eta = rademacher_from_raw(raw, N_fine)
    dW.setflags(write=False)
    eta.setflags(write=False)
    return PathBundle(T=T, n_fine=N_fine, d=d, dW=dW, eta=eta, path_start=path_start)


@dataclass(frozen=True)
class CoarseIncrements:
    """Increments of a bundle aggregated onto a coarser grid.

    Coarse increment k is the sum of the fine increments inside
    (t_k, t_{k+1}]; the coarse sign is the one of the first fine sub-step in
    the block. Aggregation always starts from the finest data, so chained
    coarsenings are bit-identical to direct ones. The arrays are computed once
    per (bundle, N) and shared by every view; at N = n_fine they are the
    bundle's own arrays.
    """

    base: PathBundle
    N: int
    dW: np.ndarray
    eta: np.ndarray

    @property
    def T(self) -> float:
        return self.base.T

    @property
    def h(self) -> float:
        return self.base.T / self.N

    @property
    def paths(self) -> int:
        return self.dW.shape[0]


def coarsen(source: PathBundle | CoarseIncrements, N_coarse: int) -> CoarseIncrements:
    """Aggregate increments onto an N_coarse-step grid; N_coarse must divide."""
    if isinstance(source, CoarseIncrements):
        if N_coarse > source.N or source.N % N_coarse != 0:
            raise ValueError(f"N_coarse={N_coarse} does not divide N={source.N}")
        return coarsen(source.base, N_coarse)
    if N_coarse < 1 or source.n_fine % N_coarse != 0:
        raise ValueError(f"N_coarse={N_coarse} does not divide N_fine={source.n_fine}")
    block = source.n_fine // N_coarse
    if block == 1:
        return CoarseIncrements(base=source, N=N_coarse, dW=source.dW, eta=source.eta)
    arrays = source._coarse.get(N_coarse)
    if arrays is None:
        paths = source.dW.shape[0]
        dW = source.dW.reshape(paths, N_coarse, block, source.d).sum(axis=2)
        eta = source.eta[:, ::block].copy()
        dW.setflags(write=False)
        eta.setflags(write=False)
        arrays = source._coarse[N_coarse] = (dW, eta)
    return CoarseIncrements(base=source, N=N_coarse, dW=arrays[0], eta=arrays[1])
