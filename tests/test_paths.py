import gc
import weakref

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from nvlab import PathBundle, coarsen, make_bundle_batch, paths
from nvlab.paths import (
    AUX_DOMAIN,
    DW_DOMAIN,
    ETA_DOMAIN,
    PHILOX_TILE,
    TIME_MAJOR_BLOCK,
    TIME_MAJOR_FRACTION,
    TIME_MAJOR_READ_BYTES,
    VECTOR_SIGN_BLOCKS,
    StreamPool,
    _block_sums,
    _philox_key,
    path_tiles,
    philox_words,
    rademacher_from_raw,
    time_major_blocks,
)
from oracles import fixed_tiles, stream, with_signed_zeros


def test_same_seed_and_index_bitwise_identical():
    a = make_bundle_batch(42, 17, 1, 16, 3, 1.0)
    b = make_bundle_batch(42, 17, 1, 16, 3, 1.0)
    assert np.array_equal(a.dW, b.dW)
    assert np.array_equal(a.eta, b.eta)


def test_batch_rows_match_single_bundles():
    batch = make_bundle_batch(7, 100, 6, 8, 2, 2.0)
    for i in range(6):
        single = make_bundle_batch(7, 100 + i, 1, 8, 2, 2.0)
        assert np.array_equal(batch.dW[i], single.dW[0])
        assert np.array_equal(batch.eta[i], single.eta[0])


def test_distinct_indices_and_seeds_give_distinct_draws():
    a = make_bundle_batch(1, 0, 1, 8, 1, 1.0)
    b = make_bundle_batch(1, 1, 1, 8, 1, 1.0)
    c = make_bundle_batch(2, 0, 1, 8, 1, 1.0)
    assert not np.array_equal(a.dW, b.dW)
    assert not np.array_equal(a.dW, c.dW)


def test_stream_pool_matches_fresh_streams():
    pool = StreamPool(99)
    for idx, domain in [(0, DW_DOMAIN), (5, ETA_DOMAIN), (123, AUX_DOMAIN)]:
        fresh = stream(99, idx, domain).standard_normal(8)
        pooled = pool.seek(idx, domain).standard_normal(8)
        assert np.array_equal(fresh, pooled)


def test_seek_resets_a_pool_left_mid_block():
    pool = StreamPool(99)
    for idx, domain in [(3, ETA_DOMAIN), (10**6, DW_DOMAIN), (2**40, AUX_DOMAIN)]:
        gen = pool.seek(7, DW_DOMAIN)
        gen.bit_generator.random_raw(3)  # output buffer left mid-block
        gen.integers(0, 2**32, dtype=np.uint32)  # caches the other half-word
        state = gen.bit_generator.state
        assert state["buffer_pos"] == 4 and state["has_uint32"] == 1
        fresh = stream(99, idx, domain)
        assert np.array_equal(
            pool.seek(idx, domain).integers(0, 2**32, 5, dtype=np.uint32),
            fresh.integers(0, 2**32, 5, dtype=np.uint32),
        )
        pool.seek(7, DW_DOMAIN).bit_generator.random_raw(1)
        assert np.array_equal(
            pool.seek(idx, domain).bit_generator.random_raw(6),
            stream(99, idx, domain).bit_generator.random_raw(6),
        )


def test_interleaved_pools_do_not_share_state():
    a, b, c = StreamPool(99), StreamPool(99), StreamPool(42)
    ga = a.seek(1, DW_DOMAIN)
    first = ga.standard_normal(3)
    b.seek(2, ETA_DOMAIN).standard_normal(5)
    c.seek(1, DW_DOMAIN).standard_normal(2)
    second = ga.standard_normal(3)
    assert np.array_equal(np.concatenate([first, second]), stream(99, 1, DW_DOMAIN).standard_normal(6))
    assert np.array_equal(b.generator.standard_normal(2), stream(99, 2, ETA_DOMAIN).standard_normal(7)[5:])
    assert np.array_equal(c.generator.standard_normal(2), stream(42, 1, DW_DOMAIN).standard_normal(4)[2:])


def test_philox_key_is_the_key_numpy_applies():
    for seed in (42, 99):
        key = _philox_key(seed)
        applied = np.random.Philox(key=key).state["state"]["key"]
        assert [int(k) for k in applied] == list(key)
    # 99's SeedSequence words straddle 2**63, so numpy rounds them through float64
    words = np.random.SeedSequence(99).generate_state(2, np.uint64)
    assert _philox_key(99) != (int(words[0]), int(words[1]))
    assert _philox_key(42) == tuple(int(w) for w in np.random.SeedSequence(42).generate_state(2, np.uint64))


SWITCH_WORDS = 4 * VECTOR_SIGN_BLOCKS


@pytest.mark.parametrize("seed", [42, 99])
@pytest.mark.parametrize("domain", [DW_DOMAIN, ETA_DOMAIN, AUX_DOMAIN])
@pytest.mark.parametrize("path_start", [0, 10**6, 2**40])
def test_philox_words_match_numpy_generator(seed, domain, path_start):
    # from one word to past the switch, partial last blocks included
    for words in (1, 2, 3, 4, 5, 7, 8, 9, SWITCH_WORDS - 1, SWITCH_WORDS, SWITCH_WORDS + 3):
        raw = philox_words(seed, domain, path_start, 3, words)
        assert raw.shape == (3, words) and raw.dtype == np.dtype("<u8")
        for i in range(3):
            expected = stream(seed, path_start + i, domain).bit_generator.random_raw(words)
            assert np.array_equal(raw[i], expected)


@pytest.mark.parametrize("tile", [1, 4, 7, None])
def test_philox_words_across_tiles(monkeypatch, tile):
    if tile is None:
        # the real tile size: 3 blocks per path put a tile edge inside a path
        n_paths, words = PHILOX_TILE // 3 + 5, 11
    else:
        # small tiles that end mid-path, the last one partial
        monkeypatch.setattr(paths, "PHILOX_TILE", tile)
        n_paths, words = 13, 11
    raw = philox_words(99, ETA_DOMAIN, 10**6, n_paths, words)
    pool = StreamPool(99)
    for i in range(n_paths):
        expected = stream(99, 10**6 + i, ETA_DOMAIN).bit_generator.random_raw(words)
        assert np.array_equal(raw[i], expected)
    assert np.array_equal(raw, pool.fill_raw(ETA_DOMAIN, 10**6, np.empty_like(raw)))


@pytest.mark.parametrize("N", [1, 7, 64, 8 * SWITCH_WORDS, 8 * SWITCH_WORDS + 1, 8 * SWITCH_WORDS + 70])
def test_bundle_signs_on_both_sides_of_the_switch(monkeypatch, N):
    calls = []

    def spy(*args):
        calls.append(args)
        return philox_words(*args)

    monkeypatch.setattr(paths, "philox_words", spy)
    words = -(-N // 8)
    # the block count alone picks the route, whatever the batch's path count
    for n_paths in (1, 5, 128):
        calls.clear()
        bundle = make_bundle_batch(99, 2**40, n_paths, N, 1, 1.0)
        assert len(calls) == (words <= SWITCH_WORDS)
        for i in range(n_paths):
            raw = stream(99, 2**40 + i, ETA_DOMAIN).bit_generator.random_raw(words)
            assert np.array_equal(bundle.eta[i], rademacher_from_raw(raw.astype("<u8"), N))


def test_fill_normals_matches_fresh_streams():
    out = StreamPool(99).fill_normals(AUX_DOMAIN, 40, np.empty((3, 5, 2)))
    for i in range(3):
        assert np.array_equal(out[i], stream(99, 40 + i, AUX_DOMAIN).standard_normal((5, 2)))


@pytest.mark.parametrize("seed", [99, 42])  # a key numpy rounds, and one it does not
@pytest.mark.parametrize("block", [1, 7, 30])
def test_normal_blocks_stream_the_fill_normals_values(seed, block, monkeypatch):
    # 30 steps drawn one step a time, in blocks of 7 (the last one partial)
    # and in one block: each domain's normals are those fill_normals draws
    # for the same paths, bit for bit, and a zero-width domain gives none
    _assert_normal_blocks_stream_fill_normals(seed, block, monkeypatch)


@pytest.mark.parametrize("read", ["tiled", "blocked"])
def test_normal_blocks_same_values_in_tiles_and_short_reads(read, monkeypatch):
    # each block drawn into its time-major buffer 2 paths at a time (the last
    # tile partial), or drawn path-major and read in short blocks
    if read == "blocked":
        monkeypatch.setattr(paths, "TIME_MAJOR_READ_BYTES", 0)
    for block in (1, 7, 30):
        if read == "tiled":  # two paths of the widest domain, 3 normals a step
            monkeypatch.setattr(paths, "TIME_MAJOR_STAGE_BYTES", 2 * block * 3 * 8)
        _assert_normal_blocks_stream_fill_normals(99, block, monkeypatch)


def _assert_normal_blocks_stream_fill_normals(seed, block, monkeypatch):
    monkeypatch.setattr(paths, "NOISE_BLOCK", block)
    count, steps, widths = 5, 30, ((DW_DOMAIN, 2), (ETA_DOMAIN, 0), (AUX_DOMAIN, 3))
    pool = StreamPool(seed)
    want = [pool.fill_normals(dom, 11, np.empty((count, steps, w))) for dom, w in widths]
    got = [[], [], []]
    for k0, *rows in paths.normal_blocks(seed, 11, count, steps, widths, 1.0):
        assert k0 == sum(r.shape[1] for r in got[0]) and len(rows[0]) <= block
        for out, r in zip(got, rows):
            out.append(np.moveaxis(r, -1, 0).copy())  # (count, steps, width)
    for out, w in zip(got, want):
        assert np.array_equal(np.concatenate(out, axis=1), w)
    assert want[1].size == 0


@pytest.mark.parametrize(
    "n_paths, steps", [(1, 1), (7, 130), (1000, 61), (3, 4096), (20000, 7), (5000, 128)]
)
def test_time_major_blocks_reassemble_the_arrays(n_paths, steps, monkeypatch):
    # each pair is read twice: in blocks (20000 paths are staged in several
    # path tiles, the last one partial), and as by default, in one block of
    # path tiles while the time-major copies fit TIME_MAJOR_READ_BYTES (all
    # but 5000 x 128)
    rng = np.random.default_rng(n_paths)
    dW = rng.standard_normal((n_paths, steps, 2))
    eta = rng.integers(-1, 2, (n_paths, steps)).astype(np.int8)
    short = n_paths * steps * (dW.itemsize * 2 + eta.itemsize) <= TIME_MAJOR_READ_BYTES
    for read_bytes in (0, TIME_MAJOR_READ_BYTES):
        monkeypatch.setattr(paths, "TIME_MAJOR_READ_BYTES", read_bytes)
        lengths = []
        blocks = []
        for k0, dW_rows, eta_rows in time_major_blocks(dW, eta):
            assert k0 == sum(lengths) and len(eta_rows) == len(dW_rows)
            assert dW_rows.flags.c_contiguous and eta_rows.flags.c_contiguous
            assert not np.shares_memory(eta_rows, eta)  # the holder may overwrite it
            np.testing.assert_array_equal(eta_rows, eta[:, k0 : k0 + len(eta_rows)].T)
            lengths.append(len(dW_rows))
            blocks.append(dW_rows.copy())
        np.testing.assert_array_equal(np.concatenate(blocks), np.moveaxis(dW, 0, -1))
        if read_bytes and short:
            assert lengths == [steps]
            continue
        # equal blocks, the last one possibly partial, each at most a fixed
        # fraction of the steps: long marches read full TIME_MAJOR_BLOCK blocks
        assert len(set(lengths[:-1])) <= 1 and lengths[-1] <= lengths[0]
        assert lengths[0] == max(1, min(TIME_MAJOR_BLOCK, steps // TIME_MAJOR_FRACTION))


def test_domains_are_separate_streams():
    g_dw = stream(3, 4, DW_DOMAIN).standard_normal(16)
    g_eta = stream(3, 4, ETA_DOMAIN).standard_normal(16)
    g_aux = stream(3, 4, AUX_DOMAIN).standard_normal(16)
    assert not np.array_equal(g_dw, g_eta)
    assert not np.array_equal(g_dw, g_aux)


def test_negative_path_index_rejected():
    with pytest.raises(ValueError):
        make_bundle_batch(0, -1, 1, 4, 1, 1.0)


def test_bad_shapes_rejected():
    with pytest.raises(ValueError):
        make_bundle_batch(0, 0, 1, 0, 1, 1.0)
    with pytest.raises(ValueError):
        make_bundle_batch(0, 0, 1, 4, 0, 1.0)
    with pytest.raises(ValueError):
        make_bundle_batch(0, 0, 1, 4, 1, 0.0)


@pytest.fixture(scope="module")
def big_bundle():
    # one generation shared by the three statistical contract checks below
    return make_bundle_batch(2024, 0, 1_000_000, 1, 2, 1.0)


def test_increment_variance_matches_step(big_bundle):
    # T=1, one step: per-coordinate variance must be 1
    var = big_bundle.dW[:, 0, 0].var(ddof=1)
    assert abs(var - 1.0) <= 0.01


def test_eta_values_and_mean(big_bundle):
    eta = big_bundle.eta[:, 0]
    assert set(np.unique(eta)) == {-1, 1}
    assert abs(eta.mean()) <= 0.004


def test_brownian_coordinates_uncorrelated(big_bundle):
    x = big_bundle.dW[:, 0, 0]
    y = big_bundle.dW[:, 0, 1]
    corr = np.corrcoef(x, y)[0, 1]
    assert abs(corr) <= 0.004


def _manual_bundle(dW, eta, T=1.0):
    dW = np.asarray(dW, dtype=float)
    eta = np.asarray(eta, dtype=np.int8)
    return PathBundle(T=T, dW=dW, eta=eta)


def test_coarsen_sums_blocks():
    a, b, c, d = 0.1, -0.2, 0.35, 0.05
    bundle = _manual_bundle([[[a], [b], [c], [d]]], [[1, -1, 1, 1]])
    coarse = coarsen(bundle, 2)
    np.testing.assert_array_equal(coarse.dW[0, :, 0], [a + b, c + d])
    np.testing.assert_array_equal(coarse.eta[0], [1, 1])


def test_coarsen_eta_takes_first_substep_sign():
    bundle = _manual_bundle(np.zeros((1, 8, 1)), [[-1, 1, 1, 1, 1, -1, 1, 1]])
    coarse = coarsen(bundle, 2)
    np.testing.assert_array_equal(coarse.eta[0], [-1, 1])


def test_coarsen_identity():
    bundle = make_bundle_batch(5, 0, 1, 8, 2, 1.0)
    view = coarsen(bundle, 8)
    assert np.array_equal(view.dW, bundle.dW)
    assert np.array_equal(view.eta, bundle.eta)


def test_coarsen_preserves_total_increment():
    # telescoping: the total increment W_T computed through any coarsening
    # chain is the same, to rounding
    bundle = make_bundle_batch(6, 3, 1, 8, 2, 1.0)
    total = coarsen(bundle, 1).dW
    for n_coarse in (1, 2, 4, 8):
        view = coarsen(bundle, n_coarse)
        np.testing.assert_allclose(coarsen(view, 1).dW, total, rtol=1e-14)
        np.testing.assert_allclose(view.dW.sum(axis=1), total[:, 0, :], rtol=1e-14)


def test_coarsen_rejects_non_divisor():
    bundle = make_bundle_batch(0, 0, 1, 8, 1, 1.0)
    with pytest.raises(ValueError):
        coarsen(bundle, 3)
    with pytest.raises(ValueError):
        coarsen(bundle, 16)


@given(
    st.sampled_from([(1, 2, 8), (2, 4, 8), (1, 4, 16), (2, 8, 16), (4, 8, 16), (1, 2, 16)]),
    st.integers(0, 1000),
)
def test_coarsen_chain_bit_exact(chain, path_index):
    # a chained coarsening sums sums: its signs are the direct ones bit for
    # bit, its increments the direct ones to rounding (absolute where a sum
    # cancels: the rounding is of the order-one summands)
    n1, n2, n_fine = chain
    bundle = make_bundle_batch(11, path_index, 1, n_fine, 2, 1.0)
    direct = coarsen(bundle, n1)
    chained = coarsen(coarsen(bundle, n2), n1)
    assert np.array_equal(direct.eta, chained.eta)
    np.testing.assert_allclose(chained.dW, direct.dW, rtol=1e-14, atol=1e-14)


@pytest.mark.parametrize("tile", [None, 1, 3])
@pytest.mark.parametrize("N", [1, 3])
@pytest.mark.parametrize("block", [1, 2, 64, 1024])
@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_coarsen_equals_numpy_block_sum(monkeypatch, d, block, N, tile):
    # the tiled slice adds give the bits of numpy's sum over the block axis,
    # signs of zero included, for 7 paths (no tile of 3 divides them); path 0
    # is all -0.0, whose block sums numpy starts from +0.0
    if tile is not None:
        monkeypatch.setattr(paths, "path_tiles", fixed_tiles(tile))
    rng = np.random.default_rng(10 * block + d)
    dW = with_signed_zeros(rng.standard_normal((7, N * block, d)), rng)
    dW[0] = -0.0
    want = dW.reshape(7, N, block, d).sum(axis=2)
    if block == 1:
        got = _block_sums(dW, 1)  # coarsen returns the bundle itself
    else:
        got = coarsen(_manual_bundle(dW, np.ones((7, N * block))), N).dW
    np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(np.signbit(got), np.signbit(want))


@pytest.mark.parametrize("d", [1, 2, 3])
def test_coarsen_non_contiguous_increments(d):
    # a hand-built bundle may hold a strided or Fortran-ordered dW: it sums as
    # its contiguous copy does
    base = np.random.default_rng(8).standard_normal((5, 32, 2 * d))
    for dW in (base[:, :, ::2], base[:, ::2, :d], np.asfortranarray(base[:, :, :d])):
        bundle = PathBundle(T=1.0, dW=dW, eta=np.ones(dW.shape[:2], np.int8))
        want = np.ascontiguousarray(dW).reshape(5, 4, -1, d).sum(axis=2)
        np.testing.assert_array_equal(coarsen(bundle, 4).dW, want)


def test_path_tiles_fit_the_cache_with_an_element_floor():
    def lengths(tiles):
        assert tiles[0].start == 0 and all(a.stop == b.start for a, b in zip(tiles, tiles[1:]))
        return [t.stop - t.start for t in tiles]

    size, floor = paths.PATH_TILE_BYTES, paths.PATH_TILE_MIN_ELEMENTS
    # 128 paths fit a tile, the last one is short
    assert lengths(path_tiles(300, size // 128, floor)) == [128, 128, 44]
    # paths larger than a tile: one to a tile
    assert lengths(path_tiles(3, 2 * size, floor)) == [1, 1, 1]
    # few elements per call and path: the element floor sets the tile
    assert lengths(path_tiles(floor - 24, size, 1)) == [floor - 24]
    assert lengths(path_tiles(2 * floor + 3, size, 2)) == [floor // 2] * 4 + [3]


def test_coarse_view_rejects_refinement():
    bundle = make_bundle_batch(0, 0, 1, 8, 1, 1.0)
    view = coarsen(bundle, 4)
    with pytest.raises(ValueError):
        coarsen(view, 8)  # cannot refine a coarse bundle
    finer = coarsen(view, 2)
    assert np.array_equal(finer.eta, coarsen(bundle, 2).eta)
    np.testing.assert_allclose(finer.dW, coarsen(bundle, 2).dW, rtol=1e-14)


def test_bundle_rejects_nonpositive_horizon():
    # the bundle's horizon is every grid's: its step T / N must be > 0
    dW, eta = np.zeros((1, 4, 1)), np.ones((1, 4), np.int8)
    assert PathBundle(T=2.0, dW=dW, eta=eta).h == 0.5
    for T in (0.0, -1.0, float("nan")):
        with pytest.raises(ValueError, match="T must be > 0"):
            PathBundle(T=T, dW=dW, eta=eta)


def test_bundle_arrays_read_only():
    bundle = make_bundle_batch(0, 0, 1, 4, 1, 1.0)
    with pytest.raises(ValueError):
        bundle.dW[0, 0, 0] = 1.0


# Golden values recorded from numpy 2.4.6. They pin the noise streams: any change
# to the counter layout, the key derivation or the sign extraction shows here.
GOLDEN_DW = {
    0: [-0.2760998807230288, 0.047282027518409375, 0.01150023220530559, -0.5269186331869111],
    1: [-0.349041897782959, -0.024732101757530565, 0.15423937970306478, 0.2023639811127992],
    10**6: [-0.08168274574137288, -0.18758776641207392, 0.4028959923757507, -0.3888034008552379],
}
GOLDEN_ETA = {
    0: [1, 1, 1, -1, -1, -1, -1, 1, 1, 1, 1, -1, -1, -1, 1, 1],
    1: [-1, 1, -1, 1, 1, -1, 1, -1, 1, 1, -1, -1, 1, -1, -1, -1],
    10**6: [1, -1, 1, -1, 1, -1, -1, 1, 1, -1, 1, -1, 1, -1, -1, 1],
}
GOLDEN_AUX = {
    0: [1.0821162825454678, 0.3715477821437552, 1.612870963712066, 1.9960622798625796],
    1: [-0.4582560391465958, 1.6613998255155766, -2.5673045631332805, 0.9417230878065557],
    10**6: [0.12932106657696674, -1.026068427732727, -1.613506152162807, 0.08553237915776422],
}


@pytest.mark.parametrize("path_index", sorted(GOLDEN_DW))
def test_golden_noise(path_index):
    bundle = make_bundle_batch(42, path_index, 1, 16, 2, 1.0)
    assert bundle.dW[0, :2].ravel().tolist() == GOLDEN_DW[path_index]
    assert bundle.eta[0].tolist() == GOLDEN_ETA[path_index]
    aux = StreamPool(42).seek(path_index, AUX_DOMAIN).standard_normal(4)
    assert aux.tolist() == GOLDEN_AUX[path_index]


@pytest.mark.parametrize("n", [1, 7, 8, 9, 64, 4097])
@pytest.mark.parametrize("path_index", [0, 3, 10**6])
def test_raw_word_signs_match_numpy_integer_sampler(n, path_index):
    bits = stream(42, path_index, ETA_DOMAIN).integers(0, 2, size=n, dtype=np.int8)
    raw = stream(42, path_index, ETA_DOMAIN).bit_generator.random_raw(-(-n // 8))
    assert np.array_equal(rademacher_from_raw(raw.astype("<u8"), n), 2 * bits - 1)
    eta = make_bundle_batch(42, path_index, 1, n, 1, 1.0).eta[0]
    assert np.array_equal(eta, 2 * bits - 1)


def test_coarsen_below_full_resolution_returns_new_bundles():
    # coarsen keeps nothing: each call sums anew into arrays of its own
    bundle = make_bundle_batch(3, 0, 4, 16, 2, 1.0)
    first, second = coarsen(bundle, 4), coarsen(bundle, 4)
    assert isinstance(first, PathBundle) and first is not second
    assert first.dW is not second.dW and first.eta is not second.eta
    np.testing.assert_array_equal(first.dW, second.dW)
    np.testing.assert_array_equal(first.eta, second.eta)
    assert (first.T, first.path_start) == (second.T, second.path_start)


def test_coarsen_at_full_resolution_shares_bundle_arrays():
    bundle = make_bundle_batch(5, 0, 1, 8, 2, 1.0)
    view = coarsen(bundle, bundle.n_fine)
    assert view is bundle
    assert view.dW is bundle.dW and view.eta is bundle.eta
    assert not view.dW.flags.writeable and not view.eta.flags.writeable


def test_coarsened_bundle_freed_without_gc():
    bundle = make_bundle_batch(4, 0, 3, 16, 2, 1.0)
    view = coarsen(bundle, 4)
    coarsen(bundle, 2)
    ref = weakref.ref(bundle)
    gc_was_enabled = gc.isenabled()
    gc.disable()  # only reference counting may free it, which a cycle would prevent
    try:
        del bundle, view
        assert ref() is None
    finally:
        if gc_was_enabled:
            gc.enable()
