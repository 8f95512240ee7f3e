import gc
import weakref

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from nvlab import GridSpec, PathBundle, coarsen, make_bundle, make_bundle_batch
from nvlab.paths import AUX_DOMAIN, DW_DOMAIN, ETA_DOMAIN, StreamPool, rademacher_from_raw, stream


def test_same_seed_and_index_bitwise_identical():
    a = make_bundle(42, 17, 16, 3, 1.0)
    b = make_bundle(42, 17, 16, 3, 1.0)
    assert np.array_equal(a.dW, b.dW)
    assert np.array_equal(a.eta, b.eta)


def test_batch_rows_match_single_bundles():
    batch = make_bundle_batch(7, 100, 6, 8, 2, 2.0)
    for i in range(6):
        single = make_bundle(7, 100 + i, 8, 2, 2.0)
        assert np.array_equal(batch.dW[i], single.dW[0])
        assert np.array_equal(batch.eta[i], single.eta[0])


def test_distinct_indices_and_seeds_give_distinct_draws():
    a = make_bundle(1, 0, 8, 1, 1.0)
    b = make_bundle(1, 1, 8, 1, 1.0)
    c = make_bundle(2, 0, 8, 1, 1.0)
    assert not np.array_equal(a.dW, b.dW)
    assert not np.array_equal(a.dW, c.dW)


def test_stream_pool_matches_fresh_streams():
    pool = StreamPool(99)
    for idx, domain in [(0, DW_DOMAIN), (5, ETA_DOMAIN), (123, AUX_DOMAIN)]:
        fresh = stream(99, idx, domain).standard_normal(8)
        pooled = pool.seek(idx, domain).standard_normal(8)
        assert np.array_equal(fresh, pooled)


def test_domains_are_separate_streams():
    g_dw = stream(3, 4, DW_DOMAIN).standard_normal(16)
    g_eta = stream(3, 4, ETA_DOMAIN).standard_normal(16)
    g_aux = stream(3, 4, AUX_DOMAIN).standard_normal(16)
    assert not np.array_equal(g_dw, g_eta)
    assert not np.array_equal(g_dw, g_aux)


def test_negative_path_index_rejected():
    with pytest.raises(ValueError):
        make_bundle(0, -1, 4, 1, 1.0)


def test_bad_shapes_rejected():
    with pytest.raises(ValueError):
        make_bundle(0, 0, 0, 1, 1.0)
    with pytest.raises(ValueError):
        make_bundle(0, 0, 4, 0, 1.0)
    with pytest.raises(ValueError):
        make_bundle(0, 0, 4, 1, 0.0)


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
    return PathBundle(T=T, n_fine=dW.shape[1], d=dW.shape[2], dW=dW, eta=eta)


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
    bundle = make_bundle(5, 0, 8, 2, 1.0)
    view = coarsen(bundle, 8)
    assert np.array_equal(view.dW, bundle.dW)
    assert np.array_equal(view.eta, bundle.eta)


def test_coarsen_preserves_total_increment():
    # telescoping: the total increment W_T computed through any coarsening
    # chain is the same, bit for bit
    bundle = make_bundle(6, 3, 8, 2, 1.0)
    total = coarsen(bundle, 1).dW
    for n_coarse in (1, 2, 4, 8):
        view = coarsen(bundle, n_coarse)
        np.testing.assert_array_equal(coarsen(view, 1).dW, total)
        np.testing.assert_allclose(view.dW.sum(axis=1), total[:, 0, :], rtol=1e-14)


def test_coarsen_rejects_non_divisor():
    bundle = make_bundle(0, 0, 8, 1, 1.0)
    with pytest.raises(ValueError):
        coarsen(bundle, 3)
    with pytest.raises(ValueError):
        coarsen(bundle, 16)


@given(
    st.sampled_from([(1, 2, 8), (2, 4, 8), (1, 4, 16), (2, 8, 16), (4, 8, 16), (1, 2, 16)]),
    st.integers(0, 1000),
)
def test_coarsen_chain_bit_exact(chain, path_index):
    n1, n2, n_fine = chain
    bundle = make_bundle(11, path_index, n_fine, 2, 1.0)
    direct = coarsen(bundle, n1)
    chained = coarsen(coarsen(bundle, n2), n1)
    assert np.array_equal(direct.dW, chained.dW)
    assert np.array_equal(direct.eta, chained.eta)


def test_coarse_view_rejects_refinement():
    bundle = make_bundle(0, 0, 8, 1, 1.0)
    view = coarsen(bundle, 4)
    with pytest.raises(ValueError):
        coarsen(view, 8)  # cannot refine a coarse view
    finer = coarsen(view, 2)
    assert np.array_equal(finer.dW, coarsen(bundle, 2).dW)


def test_grid_spec():
    grid = GridSpec(4, 2.0)
    assert grid.h == 0.5
    np.testing.assert_allclose(grid.times(), [0.0, 0.5, 1.0, 1.5, 2.0])
    with pytest.raises(ValueError):
        GridSpec(0, 1.0)
    with pytest.raises(ValueError):
        GridSpec(4, 0.0)


def test_bundle_arrays_read_only():
    bundle = make_bundle(0, 0, 4, 1, 1.0)
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
    bundle = make_bundle(42, path_index, 16, 2, 1.0)
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
    eta = make_bundle(42, path_index, n, 1, 1.0).eta[0]
    assert np.array_equal(eta, 2 * bits - 1)


def test_coarsen_memoised_per_bundle():
    bundle = make_bundle_batch(3, 0, 4, 16, 2, 1.0)
    first, second = coarsen(bundle, 4), coarsen(bundle, 4)
    assert first.dW is second.dW and first.eta is second.eta
    assert coarsen(coarsen(bundle, 8), 4).dW is first.dW
    assert coarsen(bundle, 2).dW is not first.dW


def test_coarsen_at_full_resolution_shares_bundle_arrays():
    bundle = make_bundle(5, 0, 8, 2, 1.0)
    view = coarsen(bundle, bundle.n_fine)
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
