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
The short sign streams (at most VECTOR_SIGN_BLOCKS Philox blocks per path) of
a batch have their words evaluated for all paths in one vectorised pass
(:func:`philox_words`); longer streams are read through numpy's generator.
Both give the same words. A stream read whole through numpy's generator is
positioned by :meth:`StreamPool.seek`, which sets the generator's state from
plain ints. A stream read a block of steps at a time (the limit SDE's noise,
:func:`normal_blocks`) gets a generator of its own, opened once and
continued from block to block; numpy draws a stream the same way however its
draws are split, so it gives the values of one whole draw.

The same paths at a coarser resolution are again a :class:`PathBundle`:
:func:`coarsen` sums the given bundle's increments into a new bundle, a plain
value that nothing keeps. Each coarse increment is 0.0 + dW_0 + dW_1 + ...
over its block, added in step order: the bits of numpy's ``sum`` over the
block axis when d >= 2. At d = 1 numpy sums the contiguous block axis
pairwise, and coarsening calls it.

The fine-grid passes run over tiles of a few paths (:func:`path_tiles`), with
the same additions in the same order as over the whole chunk, so their values
do not depend on the tiling: coarsening tiles its own sums, and the
estimators whose fine-grid passes are all path-wise (a closed-form reference,
the source term) draw their fine bundles one such tile at a time and hand
each pass one tile.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.random.bit_generator import ISeedSequence

BIT_GENERATOR = "philox4x64-10"

DW_DOMAIN = 0
ETA_DOMAIN = 1
AUX_DOMAIN = 2


@lru_cache(maxsize=64)
def _philox_key(master_seed: int) -> tuple[int, int]:
    """The Philox key of a master seed, as the generator applies it.

    The two words come from the seed's SeedSequence and are handed to
    ``np.random.Philox`` as a tuple of ints. numpy converts that tuple with
    ``np.asarray``, which gives a float64 array, both words rounded to 53
    significant bits, when one word fits int64 and the other does not (about
    half the seeds). The streams are defined by the key so applied, which
    this returns; passing it again gives the same key.
    """
    words = np.random.SeedSequence(master_seed).generate_state(2, np.uint64)
    applied = np.random.Philox(key=(int(words[0]), int(words[1]))).state["state"]["key"]
    return int(applied[0]), int(applied[1])


class StreamPool:
    """Reusable generator for iterating many (path, domain) streams.

    Resetting the Philox counter in place draws the exact same values as
    constructing the stream fresh, at a fraction of the setup cost. One pool
    per worker; pools are not thread-safe.
    """

    def __init__(self, master_seed: int):
        key = _philox_key(int(master_seed))
        self._bitgen = np.random.Philox(counter=0, key=key)
        self.generator = np.random.Generator(self._bitgen)
        # The state of a fresh stream, held as plain ints so that numpy's state
        # setter reads no numpy scalars: counter (0, 0, path, domain), the seed's
        # key, an empty output buffer and no cached half-word. Only counter words
        # 2 and 3 differ between streams, so a seek edits them and assigns the
        # dict, never reading the state back.
        self._counter = [0, 0, 0, 0]  # counter words are little-endian
        self._state = {
            "bit_generator": "Philox",
            "state": {"counter": self._counter, "key": list(key)},
            "buffer": [0, 0, 0, 0],
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }

    def seek(self, path_index: int, domain: int) -> np.random.Generator:
        if path_index < 0:
            raise ValueError("path_index must be >= 0")
        self._counter[2] = path_index
        self._counter[3] = domain
        self._bitgen.state = self._state
        return self.generator

    def fill_normals(self, domain: int, path_start: int, out: np.ndarray) -> np.ndarray:
        """Fill ``out[i]`` with the standard normals of path ``path_start + i``'s
        ``domain`` stream, drawn in the row-major order of ``out[i]``."""
        seek, normals = self.seek, self.generator.standard_normal
        shape = out.shape[1:]
        for path_index, row in enumerate(out, path_start):
            seek(path_index, domain)
            normals(shape, out=row)
        return out

    def fill_raw(self, domain: int, path_start: int, out: np.ndarray) -> np.ndarray:
        """Fill row ``out[i]`` with the first raw 64-bit words of path
        ``path_start + i``'s ``domain`` stream."""
        seek, random_raw = self.seek, self._bitgen.random_raw
        words = out.shape[1]
        for path_index, row in enumerate(out, path_start):
            seek(path_index, domain)
            row[:] = random_raw(words)
        return out


# Philox4x64-10 (Salmon et al., "Parallel random numbers: as easy as 1, 2, 3",
# SC 2011): the multipliers of the two products in a round and the Weyl
# increments of the two key words between rounds.
PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
PHILOX_ROUNDS = 10
# Lanes of philox_words evaluated together: the ten (lanes,) uint64 temporaries
# of one tile (640 KiB) stay in cache and bounded whatever the batch size.
PHILOX_TILE = 8192
# make_bundle_batch evaluates sign streams of at most VECTOR_SIGN_BLOCKS
# Philox blocks per path (four 64-bit words, one sign per byte: 32 signs
# each, so 12 blocks cover N <= 384 steps) with philox_words, whatever the
# batch's path count, and longer ones through numpy's generator. The block
# count is the measured break-even at 5000 paths (2-vCPU VM, numpy 2.4): the
# vectorised pass costs 130-180 ns per block, a seek plus a random_raw call
# about 1.6 us per path plus 25 ns per block.
VECTOR_SIGN_BLOCKS = 12


@lru_cache(maxsize=64)
def _philox_round_keys(master_seed: int) -> tuple:
    k0, k1 = _philox_key(master_seed)
    w0, w1 = PHILOX_W
    return tuple(
        (np.uint64((k0 + r * w0) % 2**64), np.uint64((k1 + r * w1) % 2**64))
        for r in range(PHILOX_ROUNDS)
    )


def philox_words(
    master_seed: int, domain: int, path_start: int, n_paths: int, words: int
) -> np.ndarray:
    """The first ``words`` raw 64-bit words of the ``domain`` streams of paths
    ``path_start .. path_start + n_paths - 1``, evaluated in one vectorised pass.

    Row i equals the (path_start + i, domain) stream's ``random_raw(words)``:
    word w is word w % 4 of block w // 4, and numpy increments the counter
    before it generates a block, so block b is Philox4x64-10 of counter
    (b + 1, 0, path, domain) under the seed's key. Every (path, block) is one
    lane; lanes are evaluated PHILOX_TILE at a time, with the 64-bit high
    products built from 32-bit halves. The result is a little-endian
    (n_paths, words) view whose rows are contiguous.
    """
    if path_start < 0:
        raise ValueError("path_index must be >= 0")
    blocks = -(-words // 4)
    lanes = n_paths * blocks
    out = np.empty((lanes, 4), dtype="<u8")
    u64 = np.uint64
    m0, m1 = (u64(m) for m in PHILOX_M)
    halves = [(u64(m & 0xFFFFFFFF), u64(m >> 32)) for m in PHILOX_M]
    low, s32 = u64(0xFFFFFFFF), u64(32)
    keys = _philox_round_keys(int(master_seed))
    tile = min(PHILOX_TILE, lanes)
    scratch = np.empty((10, tile), np.uint64)
    for s0 in range(0, lanes, tile):
        n = min(tile, lanes - s0)
        c0, c1, c2, c3, hi0, hi1, a_lo, a_hi, t, u = (row[:n] for row in scratch)
        # lane s0 + i is block (s0 + i) % blocks of path (s0 + i) // blocks
        np.divmod(np.arange(s0, s0 + n, dtype=np.uint64), u64(blocks), out=(c2, c0))
        c0 += u64(1)
        c2 += u64(path_start)
        c1.fill(0)
        c3.fill(domain)
        for k0, k1 in keys:
            # (hi0, lo0) = M0 * c0 and (hi1, lo1) = M1 * c2, as 128-bit products
            for a, (m_lo, m_hi), hi in ((c0, halves[0], hi0), (c2, halves[1], hi1)):
                np.bitwise_and(a, low, out=a_lo)
                np.right_shift(a, s32, out=a_hi)
                np.multiply(a_lo, m_lo, out=t)
                t >>= s32
                np.multiply(a_hi, m_lo, out=u)
                u += t  # a_hi m_lo + carry of a_lo m_lo: no overflow
                np.multiply(a_lo, m_hi, out=t)
                np.bitwise_and(u, low, out=hi)
                t += hi
                np.multiply(a_hi, m_hi, out=hi)
                u >>= s32
                hi += u
                t >>= s32
                hi += t
            c0 *= m0
            c2 *= m1
            # next counter: (hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0), in place
            hi1 ^= c1
            hi1 ^= k0
            hi0 ^= c3
            hi0 ^= k1
            c0, c1, c2, c3, hi0, hi1 = hi1, c2, hi0, c0, c1, c3
        block = out[s0 : s0 + n]
        for w, word in enumerate((c0, c1, c2, c3)):
            block[:, w] = word
    return out.reshape(n_paths, 4 * blocks)[:, :words]


def rademacher_from_raw(raw: np.ndarray, n: int) -> np.ndarray:
    """Signs in {-1, +1} from raw 64-bit Philox words, computed in place.

    ``raw`` is a little-endian uint64 array with contiguous rows holding at
    least ceil(n / 8) words each; it is overwritten and the result is an int8
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
#
# Arrays whose time-major copies take at most TIME_MAJOR_READ_BYTES together
# (short marches: MLMC's 1-64 steps at 5000 paths, a ladder's coarse rungs)
# are instead read as one block, each transposed a tile of whole paths at a
# time straight into its time-major copy; there the blocks above would be
# only 1-4 steps long, each with its own copies. At 5000 paths x 64 steps
# (d = 2) one read took 1.8 ms against 5.6 ms in 4-step blocks; at 1000 paths
# x 4096 steps the blocks took 29-40 ms against 90-150 ms in one read (2-vCPU
# VM, numpy 2.4).
TIME_MAJOR_BLOCK = 60
TIME_MAJOR_FRACTION = 16
TIME_MAJOR_STAGE_BYTES = 2**17
TIME_MAJOR_READ_BYTES = 2**23


def _time_major_copy(a: np.ndarray) -> np.ndarray:
    """All of path-major ``a`` (paths, steps, ...) as a new time-major array
    (steps, ..., paths), transposed TIME_MAJOR_STAGE_BYTES of paths at a time."""
    paths = a.shape[0]
    rows = np.empty(a.shape[1:] + (paths,), a.dtype)
    flat, flat_rows = a.reshape(paths, -1), rows.reshape(-1, paths)
    tile = max(1, TIME_MAJOR_STAGE_BYTES // max(1, flat.shape[1] * a.itemsize))
    for p0 in range(0, paths, tile):
        np.copyto(flat_rows[:, p0 : p0 + tile], flat[p0 : p0 + tile].T)
    return rows


def time_major_blocks(*arrays: np.ndarray):
    """Read path-major arrays (paths, steps, ...) in blocks of at most
    TIME_MAJOR_BLOCK steps, or, when small, in one block.

    Yields ``(k0, rows_1, rows_2, ...)``: steps ``k0 .. k0 + len(rows_i) - 1``
    of each array as one contiguous time-major block (steps, ..., paths), so
    ``rows_i[k]`` holds step ``k0 + k`` of every path in rows of (..., paths).
    The arrays share their (paths, steps). Each block is a buffer of its own
    (never a view of the arrays), shared by every block: a block is only
    valid until the next is read, and its holder may overwrite it.
    """
    paths, steps = arrays[0].shape[:2]
    step_bytes = [a.itemsize * math.prod(a.shape[2:]) for a in arrays]
    if paths * steps * sum(step_bytes) <= TIME_MAJOR_READ_BYTES:
        yield (0, *(_time_major_copy(a) for a in arrays))
        return
    size = max(1, min(TIME_MAJOR_BLOCK, steps // TIME_MAJOR_FRACTION))
    buffers = []
    for a, nbytes in zip(arrays, step_bytes):
        tile = max(1, min(paths, TIME_MAJOR_STAGE_BYTES // max(1, size * nbytes)))
        stage = np.empty((tile, size) + a.shape[2:], a.dtype)
        time_major = np.empty((size,) + a.shape[2:] + (paths,), a.dtype)
        # the staged paths axis moved last, as a precomputed transpose
        buffers.append((stage, time_major, (*range(1, a.ndim), 0)))
    for k0 in range(0, steps, size):
        n = min(size, steps - k0)
        blocks = []
        for a, (stage, time_major, to_rows) in zip(arrays, buffers):
            rows = time_major[:n]
            for p0 in range(0, paths, len(stage)):
                p1 = min(p0 + len(stage), paths)
                part = stage[: p1 - p0, :n]
                np.copyto(part, a[p0:p1, k0 : k0 + n])
                np.copyto(rows[..., p0:p1], part.transpose(to_rows))
            blocks.append(rows)
        yield (k0, *blocks)


# Steps of noise :func:`normal_blocks` draws per block. Each block costs a
# numpy call per path and domain (about 1.4 us each), and its buffer is
# read in TIME_MAJOR_BLOCK-step blocks only from 16 * TIME_MAJOR_BLOCK steps
# on. Heisenberg's limit SDE at 1000 paths x 4096 steps holds a 25 MB block
# where it held the whole 98 MB of noise; the limit-law benchmark's peak RSS
# fell from 203 to 133 MB and its wall time did not rise, where 512-step
# blocks gave 121 MB but 3% more wall time (2-vCPU VM, numpy 2.4).
NOISE_BLOCK = 1024


class _SeedKey(ISeedSequence):
    """A master seed's applied Philox key (:func:`_philox_key`) posing as the
    seed sequence ``np.random.Philox`` derives its two key words from, so a
    generator opened on it starts at that key without deriving one: about
    6 us an open against 25 us with the key passed as ``key=`` (2-vCPU VM,
    numpy 2.4)."""

    def __init__(self, master_seed: int):
        self._words = np.array(_philox_key(master_seed), np.uint64)

    def generate_state(self, n_words, dtype=np.uint32):
        return self._words.copy()


_seed_key = lru_cache(maxsize=64)(_SeedKey)


def _open_stream(master_seed: int, path_index: int, domain: int) -> np.random.Generator:
    """A generator of its own at the start of the (path_index, domain) stream:
    it draws what ``StreamPool(master_seed).seek(path_index, domain)`` does."""
    counter = [0, 0, path_index, domain]  # little-endian words
    return np.random.Generator(np.random.Philox(_seed_key(master_seed), counter=counter))


def normal_blocks(
    master_seed: int,
    path_start: int,
    count: int,
    steps: int,
    widths: tuple[tuple[int, int], ...],
    scale: float,
):
    """``scale`` times the standard normals of paths path_start ..
    path_start + count - 1, over ``steps`` steps, in time-major blocks.

    For each ``(domain, width)`` of ``widths`` a path's steps take the
    ``width`` normals each of its ``domain`` stream, in the order
    :meth:`StreamPool.fill_normals` fills a (count, steps, width) array.
    Yields ``(k0, rows_1, ...)`` as :func:`time_major_blocks` does, one
    array per domain.

    Every stream of non-zero width is opened once, as a generator of its own
    (:func:`_open_stream`), and continues across blocks: numpy draws a
    stream the same way however its draws are split, so the values are
    those of one draw whatever NOISE_BLOCK is. A block of at most NOISE_BLOCK
    steps is drawn path by path and scaled. When its time-major copy fits
    TIME_MAJOR_READ_BYTES it is drawn a tile of paths at a time into a
    staging buffer and transposed into one time-major buffer per domain,
    which every block reuses, so a chunk holds one block; otherwise it is
    drawn into a reused path-major (count, NOISE_BLOCK, width) buffer per
    domain and read through :func:`time_major_blocks`.
    """
    size = min(NOISE_BLOCK, steps)
    streams = [
        [_open_stream(master_seed, path_start + i, domain) for i in range(count)] if width else []
        for domain, width in widths
    ]
    whole = count * size * 8 * sum(width for _, width in widths) <= TIME_MAJOR_READ_BYTES
    tile = count
    if whole:  # a tile stages at most TIME_MAJOR_STAGE_BYTES of the widest domain
        widest = max(width for _, width in widths)
        tile = max(1, min(count, TIME_MAJOR_STAGE_BYTES // max(1, size * 8 * widest)))
    stages = [np.empty((tile, size, width)) for _, width in widths]
    copies = [np.empty((size, width, count)) for _, width in widths] if whole else []
    for k0 in range(0, steps, size):
        n = min(size, steps - k0)
        for p0 in range(0, count, tile):
            p1 = min(p0 + tile, count)
            for i, (stage, generators) in enumerate(zip(stages, streams)):
                part = stage[: p1 - p0, :n]
                for row, generator in zip(part, generators[p0:p1]):
                    generator.standard_normal(out=row)
                part *= scale
                if whole:
                    np.copyto(copies[i][:n, :, p0:p1], part.transpose(1, 2, 0))
        if whole:
            yield (k0, *(copy[:n] for copy in copies))
        else:
            parts = (stage[:, :n] for stage in stages)
            yield from ((k0 + k, *rows) for k, *rows in time_major_blocks(*parts))


# Tiles of the fine-grid passes. A pass over a whole chunk streams arrays of
# 100-200 MB through memory once per numpy call; over a tile of paths its
# operands and buffers stay in cache. A tile holds as many paths as fit in
# PATH_TILE_BYTES, half a core's 2 MiB L2 on the 2-vCPU VM where it was
# measured (numpy 2.4): coarsening and the closed form ran as fast at 256 KiB
# and the source term 1.1-1.5x slower, from its per-call costs. A tile also
# holds enough paths that each numpy call covers PATH_TILE_MIN_ELEMENTS
# elements: without that floor a 16384 -> 1 coarsening of 1000 paths (four
# paths per tile, one call per step) took 10.2 s against 0.34 s with it.
PATH_TILE_BYTES = 2**20
PATH_TILE_MIN_ELEMENTS = 1024


def path_tiles(paths: int, path_bytes: int, path_elements: int) -> list[slice]:
    """Consecutive slices of ``paths`` paths, for a pass that touches
    ``path_bytes`` bytes of each path and covers ``path_elements`` elements of
    each path per numpy call. Every slice but the last has the same length."""
    tile = max(1, PATH_TILE_BYTES // path_bytes, -(-PATH_TILE_MIN_ELEMENTS // path_elements))
    return [slice(p0, min(p0 + tile, paths)) for p0 in range(0, paths, tile)]


@dataclass(frozen=True)
class PathBundle:
    """Brownian increments and Rademacher signs for a batch of paths.

    dW has shape (paths, n_fine, d) with per-coordinate variance T/n_fine,
    eta has shape (paths, n_fine) with values in {-1, +1}. Arrays are
    read-only; a coarser discretization is a bundle of its own, built by
    :func:`coarsen`, never a mutation. A grid on the bundle is a step count N
    dividing n_fine, with step T/N on the bundle's horizon T > 0.
    Row i is path ``path_start + i`` of the master seed's stream numbering.
    """

    T: float
    dW: np.ndarray
    eta: np.ndarray
    path_start: int = 0

    def __post_init__(self):
        if not self.T > 0:
            raise ValueError("T must be > 0")

    @property
    def paths(self) -> int:
        return self.dW.shape[0]

    @property
    def n_fine(self) -> int:
        return self.dW.shape[1]

    @property
    def d(self) -> int:
        return self.dW.shape[2]

    @property
    def h(self) -> float:
        return self.T / self.n_fine


def make_bundle_batch(
    master_seed: int, path_start: int, n_paths: int, N_fine: int, d: int, T: float
) -> PathBundle:
    """Bundle for path indices path_start .. path_start + n_paths - 1.

    Row i holds the normals of the (path_start + i, DW_DOMAIN) stream, scaled,
    and the signs of the (path_start + i, ETA_DOMAIN) stream, so it is
    bit-deterministic in (master_seed, path index): batching is a packing
    detail, not part of the random stream.
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
    if words <= 4 * VECTOR_SIGN_BLOCKS:
        raw = philox_words(master_seed, ETA_DOMAIN, path_start, n_paths, words)
    else:
        raw = pool.fill_raw(ETA_DOMAIN, path_start, np.empty((n_paths, words), dtype="<u8"))
    eta = rademacher_from_raw(raw, N_fine)
    dW.setflags(write=False)
    eta.setflags(write=False)
    return PathBundle(T=T, dW=dW, eta=eta, path_start=path_start)


def _block_sums(dW: np.ndarray, block: int) -> np.ndarray:
    """Sums of ``block`` consecutive steps of ``dW`` (paths, steps, d), with
    the bits of ``dW.reshape(paths, steps // block, block, d).sum(axis=2)``
    on the C-contiguous layout of ``dW``.

    At d >= 2 numpy adds the block in step order, starting from +0.0, and so
    does this, one tile of paths at a time with one slice add per step. At
    even d the pairs of coordinates are added as complex numbers (two float
    adds each), so that each slice add is one long inner loop rather than
    many loops of d elements. At d = 1 numpy sums the contiguous block axis
    pairwise, so its sum is called.
    """
    dW = np.ascontiguousarray(dW)
    paths, steps, d = dW.shape
    N = steps // block
    if d == 1:
        return dW.reshape(paths, N, block, 1).sum(axis=2)
    out = np.empty((paths, N, d))
    src, dst = dW, out
    if d % 2 == 0:
        src, dst = src.view(np.complex128), out.view(np.complex128)
    blocks = src.reshape(paths, N, block, -1)
    for tile in path_tiles(paths, steps * d * dW.itemsize, dst[0].size):
        acc = dst[tile]
        np.add(blocks[tile, :, 0], 0.0, out=acc)
        for j in range(1, block):
            acc += blocks[tile, :, j]
    return out


def coarsen(bundle: PathBundle, N_coarse: int) -> PathBundle:
    """The bundle on an N_coarse-step grid; N_coarse must divide its step count.

    Coarse increment k is the sum of the bundle's increments inside
    (t_k, t_{k+1}], 0.0 + dW_0 + dW_1 + ... in step order (pairwise, as numpy
    sums, at d = 1; see :func:`_block_sums`); the coarse sign is the one of the
    first sub-step in the block. Below the bundle's own step count every call
    returns a new bundle; at that step count it is the bundle itself.
    """
    n = bundle.n_fine
    if N_coarse < 1 or n % N_coarse != 0:
        raise ValueError(f"N_coarse={N_coarse} does not divide N_fine={n}")
    if N_coarse == n:
        return bundle
    block = n // N_coarse
    dW = _block_sums(bundle.dW, block)
    eta = bundle.eta[:, ::block].copy()
    dW.setflags(write=False)
    eta.setflags(write=False)
    return PathBundle(bundle.T, dW, eta, bundle.path_start)
