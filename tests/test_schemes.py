from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from nvlab import (
    FlowExplosionError,
    PathBundle,
    Problem,
    SCHEME_IDS,
    VectorFieldSet,
    coarsen,
    discrete_nv_trajectory,
    exact_trajectory,
    fit_rate,
    get_problem,
    make_bundle_batch,
    nv_trajectory,
    scheme_gap,
    trajectory,
)
from nvlab.catalog import DIAG_A, DIAG_THETA, GBM_MU, GBM_SIGMA, PROBLEM_IDS
import nvlab.paths as paths_module
from nvlab.flows import flow_unchecked
from nvlab.schemes import (
    _discrete_nv_kernel,
    _euler_kernel,
    _nv_kernel,
    _pair_sums,
    _scheme,
    coarse_blocks,
    coupled_terminals,
    nv_march,
)

from oracles import (
    assert_same_bits,
    fixed_tiles,
    heisenberg_exact_whole_chunk,
    reference_states,
    sample_states,
    with_signed_zeros,
)

incr = st.floats(-1.5, 1.5)


def _one_step_bundle(dW, eta, h):
    """A hand-made one-step bundle: row i has increments dW[i] and sign eta[i]."""
    dW = np.atleast_2d(np.asarray(dW, dtype=float))
    eta = np.broadcast_to(np.asarray(eta, dtype=np.int8), (len(dW),))
    return PathBundle(T=h, dW=dW[:, None, :], eta=eta[:, None].copy())


def _one_step(problem, scheme, x, dW, eta=1, h=0.1):
    """The step of ``scheme`` from state x: a one-step trajectory started at x."""
    start = replace(problem, x0=np.asarray(x, dtype=float))
    traj = trajectory(start, scheme, _one_step_bundle(dW, eta, h), 1)
    return traj.states[0, 1]


def _one_steps(problem, scheme, xs, dW, eta, h):
    """Row i: the step of ``scheme`` from xs[i] with increments dW[i] and sign eta[i]."""
    return np.array([_one_step(problem, scheme, *row, h) for row in zip(xs, dW, eta)])


# ---------------------------------------------------------------------------
# splitting-scheme step
# ---------------------------------------------------------------------------


@given(incr, st.floats(0.001, 0.5), st.sampled_from([1, -1]))
def test_nv_step_gbm_composes_to_exact_step(dw, h, eta):
    # oracle: compose the three scalar exponential flows by hand
    gbm = get_problem("gbm1d")
    rate = GBM_MU - 0.5 * GBM_SIGMA**2
    x = 1.3
    composed = x * np.exp(rate * h / 2) * np.exp(GBM_SIGMA * dw) * np.exp(rate * h / 2)
    exact = x * np.exp(rate * h + GBM_SIGMA * dw)
    out = _one_step(gbm, "nv", [x], [dw], eta, h)
    assert abs(out[0] - composed) <= 1e-14 * abs(composed)
    assert abs(out[0] - exact) <= 1e-13 * abs(exact)


@given(incr, incr)
def test_nv_step_heisenberg_hand_composition(dw1, dw2):
    heis = get_problem("heisenberg")
    plus = _one_step(heis, "nv", np.zeros(2), [dw1, dw2], 1)
    np.testing.assert_allclose(plus, [dw1, dw2 * dw1], atol=1e-15)
    minus = _one_step(heis, "nv", np.zeros(2), [dw1, dw2], -1)
    np.testing.assert_allclose(minus, [dw1, 0.0], atol=1e-15)
    np.testing.assert_allclose(plus - minus, [0.0, dw1 * dw2], atol=1e-15)


def test_nv_step_sign_irrelevant_for_single_brownian(gbm):
    x = np.array([0.8])
    plus = _one_step(gbm, "nv", x, [0.3], 1, 0.05)
    minus = _one_step(gbm, "nv", x, [0.3], -1, 0.05)
    assert np.array_equal(plus, minus)


def test_nv_step_sign_irrelevant_under_commutativity(diag_comm):
    rng = np.random.default_rng(0)
    xs = sample_states(diag_comm, count=40, seed=1)
    dW = 0.3 * rng.standard_normal((40, 2))
    up = _one_steps(diag_comm, "nv", xs, dW, np.ones(40), 0.05)
    down = _one_steps(diag_comm, "nv", xs, dW, -np.ones(40), 0.05)
    assert np.max(np.abs(up - down)) <= 1e-12


def test_nv_step_batched_matches_single(heisenberg):
    # one ten-path bundle gives every path the step of its own one-path bundle
    rng = np.random.default_rng(42)
    start = replace(heisenberg, x0=rng.standard_normal(2))
    dW = rng.standard_normal((10, 2))
    eta = np.where(rng.random(10) < 0.5, 1, -1)
    batch = trajectory(start, "nv", _one_step_bundle(dW, eta, 0.2), 1).states
    for i in range(10):
        single = _one_step(start, "nv", start.x0, dW[i], eta[i], 0.2)
        np.testing.assert_array_equal(batch[i, 1], single)


def _both_sweeps_step(problem, x, dW, plus, h):
    """The nv step with both sweep orders run over every path and one kept
    per path with np.where, whatever the fields."""
    x = flow_unchecked(problem, 0, 0.5 * h, x)
    up = down = x
    for j in range(1, problem.d + 1):
        up = flow_unchecked(problem, j, dW[j - 1], up)
    for j in range(problem.d, 0, -1):
        down = flow_unchecked(problem, j, dW[j - 1], down)
    return flow_unchecked(problem, 0, 0.5 * h, np.where(plus, up, down))


def _assert_nv_kernel_equals_both_sweeps(problem, rng, paths=500):
    """The nv kernel's step equals _both_sweeps_step bit for bit, signs of zero
    included, from random states and increments with +-0 entries and mixed
    sweep signs."""
    x = with_signed_zeros(rng.standard_normal((problem.n, paths)), rng)
    dW = with_signed_zeros(0.5 * rng.standard_normal((problem.d, paths)), rng)
    plus = rng.random(paths) < 0.5
    for h in (0.05, 0.3):
        got = _nv_kernel(problem, x, dW, plus, h)
        want = _both_sweeps_step(problem, x, dW, plus, h)
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(np.signbit(got), np.signbit(want))


def _disjoint_rows_problem(kinds, rng):
    """A problem whose Brownian field j is of kind kinds[j - 1] (diagonal,
    translation or nilpotent) on one or two state rows of its own; the
    nilpotent fields read two further rows that no field writes. The drift
    is zero or a random symmetric coupling of all rows."""
    widths = [int(rng.integers(1, 3)) for _ in kinds]
    n = 2 + sum(widths)
    A, c = np.zeros((len(kinds) + 1, n, n)), np.zeros((len(kinds) + 1, n))
    start = 2  # rows 0 and 1 are only read
    for j, (kind, width) in enumerate(zip(kinds, widths), start=1):
        own = np.arange(start, start + width)
        start += width
        entries = rng.uniform(0.2, 0.9, (width, 2)) * rng.choice([-1.0, 1.0], (width, 2))
        if kind == "diagonal":
            A[j][own, own] = entries[:, 0]
        elif kind == "translation":
            c[j][own] = entries[:, 0]
        else:
            A[j][np.ix_(own, [0, 1])] = entries
    if rng.random() < 0.5:
        B = 0.3 * rng.standard_normal((n, n))
        A[0] = B + B.T
    return Problem("disjoint-rows", VectorFieldSet.affine(A, c), x0=np.ones(n), T=1.0)


def test_flows_commute_flag_of_the_catalog(problems):
    flags = {name: p.fields.flows_commute for name, p in problems.items()}
    assert flags == {"gbm1d": True, "heisenberg": False, "diag-comm": True, "linear-nc": False}
    # the copy perfbench's tracer hands out, with wrapped callables, derives
    # the same flag from the same matrices
    for p in problems.values():
        f = p.fields
        copy = replace(f, b=lambda x: f.b(x), sigma=tuple(f.sigma))
        assert copy.flows_commute is f.flows_commute
        assert replace(f).flows_commute is f.flows_commute


def test_commuting_brackets_do_not_make_the_flows_commute():
    # two diagonal fields on the same row have a zero bracket, but the two
    # sweep orders multiply x by the two growth factors in opposite orders,
    # which rounds differently on some paths
    fields = VectorFieldSet.affine(A=[[[0.0]], [[0.7]], [[0.3]]], c=np.zeros((3, 1)))
    problem = Problem("same-row", fields, x0=np.ones(1), T=1.0)
    assert problem.commutative and not fields.flows_commute
    rng = np.random.default_rng(5)
    x, dW = rng.standard_normal((1, 1000)), rng.standard_normal((2, 1000))
    up = _both_sweeps_step(problem, x, dW, np.ones(1000, bool), 0.1)
    down = _both_sweeps_step(problem, x, dW, np.zeros(1000, bool), 0.1)
    assert not np.array_equal(up, down)


@pytest.mark.parametrize(
    "kinds",
    [
        ("diagonal", "translation"),
        ("nilpotent", "diagonal"),
        ("translation", "nilpotent"),
        ("nilpotent", "nilpotent"),
        ("diagonal", "translation", "nilpotent"),
        ("nilpotent", "diagonal", "diagonal"),
    ],
    ids="-".join,
)
def test_one_sweep_equals_both_sweeps_on_disjoint_rows(kinds):
    # fields on rows of their own commute bit for bit: the kernel's single
    # sweep equals both sweeps kept per path, signs of zero included
    for seed in range(4):
        rng = np.random.default_rng([seed, *(ord(kind[0]) for kind in kinds)])
        problem = _disjoint_rows_problem(kinds, rng)
        assert problem.fields.flows_commute
        _assert_nv_kernel_equals_both_sweeps(problem, rng)


@pytest.mark.parametrize("name", PROBLEM_IDS)
def test_nv_kernel_equals_both_sweeps_on_the_catalog(name):
    _assert_nv_kernel_equals_both_sweeps(get_problem(name), np.random.default_rng(11))


def test_step_inputs_validation(heisenberg):
    with pytest.raises(ValueError, match="T must be > 0"):
        _one_step_bundle([0.0, 0.0], 1, 0.0)  # step size h = T / N must be > 0
    with pytest.raises(ValueError, match="bundle has d=3"):
        _one_step(heisenberg, "nv", np.zeros(2), np.zeros(3))
    with pytest.raises(ValueError):
        _one_step(heisenberg, "nv", np.zeros(3), np.zeros(2))


# ---------------------------------------------------------------------------
# adapted surrogate step
# ---------------------------------------------------------------------------


@given(incr, st.floats(0.001, 0.5))
def test_discrete_step_gbm_is_milstein(dw, h):
    gbm = get_problem("gbm1d")
    x = 0.9
    milstein = x + GBM_MU * x * h + GBM_SIGMA * x * dw + 0.5 * GBM_SIGMA**2 * x * (dw**2 - h)
    out = _one_step(gbm, "discrete-nv", [x], [dw], 1, h)
    assert abs(out[0] - milstein) <= 1e-13 * max(1.0, abs(milstein))


@given(incr, incr, st.sampled_from([1, -1]))
def test_discrete_step_heisenberg_matches_nv(dw1, dw2, eta):
    heis = get_problem("heisenberg")
    xs = sample_states(heis, count=6, seed=8)
    dW = np.tile([dw1, dw2], (6, 1))
    signs = np.full(6, eta)
    nv = _one_steps(heis, "nv", xs, dW, signs, 0.125)
    disc = _one_steps(heis, "discrete-nv", xs, dW, signs, 0.125)
    assert np.max(np.abs(nv - disc)) <= 1e-13


def test_discrete_step_zero_increments(diag_comm):
    # x + b h - 1/2 sum_j (ds^j s^j) h, by hand for the diagonal-linear catalog entry
    a1, a2 = DIAG_A
    x = np.array([1.2, -0.4])
    h = 0.25
    expected = np.array(
        [
            x[0] + DIAG_THETA * x[1] * h - 0.5 * a1**2 * x[0] * h,
            x[1] + DIAG_THETA * x[0] * h - 0.5 * a2**2 * x[1] * h,
        ]
    )
    out = _one_step(diag_comm, "discrete-nv", x, np.zeros(2), 1, h)
    np.testing.assert_allclose(out, expected, atol=1e-15)


# ---------------------------------------------------------------------------
# Euler baseline
# ---------------------------------------------------------------------------


def test_euler_step_zero_increments(diag_comm):
    x = np.array([1.0, 2.0])
    h = 0.1
    expected = x + h * DIAG_THETA * np.array([x[1], x[0]])
    out = _one_step(diag_comm, "euler", x, np.zeros(2), 1, h)
    np.testing.assert_allclose(out, expected, atol=1e-15)


def test_euler_step_gbm_arithmetic(gbm):
    out = _one_step(gbm, "euler", np.array([1.0]), [0.1], 1, 0.01)
    assert abs(out[0] - 1.051) <= 1e-12


def test_euler_step_heisenberg_origin(heisenberg):
    out = _one_step(heisenberg, "euler", np.zeros(2), [0.7, -0.2], 1, 0.3)
    np.testing.assert_allclose(out, [0.7, 0.0], atol=1e-15)


# ---------------------------------------------------------------------------
# trajectories
# ---------------------------------------------------------------------------


def test_single_step_trajectory_equals_step(heisenberg):
    # the worked ordering example of the schemes module, on drawn increments and signs
    bundle = make_bundle_batch(3, 0, 8, 1, 2, 1.0)
    dw1, dw2 = bundle.dW[:, 0, 0], bundle.dW[:, 0, 1]
    plus = bundle.eta[:, 0] > 0
    assert 0 < plus.sum() < 8
    states = nv_trajectory(heisenberg, bundle, 1).states
    np.testing.assert_array_equal(states[:, 0], np.zeros((8, 2)))
    np.testing.assert_array_equal(states[:, 1, 0], dw1)
    np.testing.assert_array_equal(states[:, 1, 1], np.where(plus, dw1 * dw2, 0.0))


@pytest.mark.parametrize("N", [1, 3, 16, 128])
def test_gbm_scheme_exact_at_all_grid_points(gbm, N):
    bundle = make_bundle_batch(9, 0, 50, N, 1, 1.0)
    nv = nv_trajectory(gbm, bundle, N)
    ref = exact_trajectory(gbm, bundle, N)
    assert np.max(np.abs(nv.states - ref.states)) <= 1e-12


def test_zero_increments_constant_trajectory(heisenberg):
    dW = np.zeros((2, 8, 2))
    eta = np.ones((2, 8), dtype=np.int8)
    bundle = PathBundle(T=1.0, dW=dW, eta=eta)
    traj = nv_trajectory(heisenberg, bundle, 8)
    assert np.array_equal(traj.states, np.zeros((2, 9, 2)))


@pytest.mark.parametrize(
    "scheme, big, step", [("nv", [2e3, 0.1], 2), ("euler", [1e200, 1e200], 3)]
)
def test_explosion_names_scheme_step_and_path(gbm, scheme, big, step):
    # path 101 of the stream numbering overflows; path 100 stays finite
    dW = np.full((2, 4, 1), 0.1)
    dW[1, 1:3, 0] = big
    eta = np.ones((2, 4), dtype=np.int8)
    bundle = PathBundle(T=1.0, dW=dW, eta=eta, path_start=100)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(FlowExplosionError) as info:
        trajectory(gbm, scheme, bundle, 4)
    err = info.value
    assert (err.scheme, err.step, err.path, err.t) == (scheme, step, 101, step * 0.25)
    assert f"from {scheme} on problem 'gbm1d', grid N=4" in str(err)
    assert f"step {step}" in str(err) and "path 101" in str(err)


@pytest.mark.parametrize(
    "scheme, big, step", [("nv", 2e3, 11), ("discrete-nv", 1e200, 11), ("euler", 1e200, 12)]
)
def test_explosion_in_second_block_names_scheme_step_and_path(
    gbm, scheme, big, step, monkeypatch
):
    # 130 steps are read in blocks of 8 (the bundle would fit one read);
    # path 503 of the stream numbering overflows first at step 11 or 12,
    # inside the second block
    monkeypatch.setattr(paths_module, "TIME_MAJOR_READ_BYTES", 0)
    dW = np.full((6, 130, 1), 0.01)
    dW[3, 10:12, 0] = big
    eta = np.where(np.arange(130) % 3 == 0, 1, -1).astype(np.int8) * np.ones((6, 1), np.int8)
    bundle = PathBundle(T=1.0, dW=dW, eta=eta, path_start=500)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(FlowExplosionError) as info:
        trajectory(gbm, scheme, bundle, 130)
    err = info.value
    assert (err.scheme, err.step, err.path, err.t) == (scheme, step, 503, step * (1.0 / 130))


def test_proxy_explosion_in_second_block_names_first_step_and_path(diag_comm, monkeypatch):
    # the proxy records every 65th of 130 fine steps, read in blocks of 8:
    # the overflow at fine step 12, in the second block, is named as that
    # step, not as record 1, where it first shows
    rng = np.random.default_rng(3)
    dW = 0.05 * rng.standard_normal((5, 130, 2))
    dW[2, 11, 1] = 2e3
    eta = np.where(rng.random((5, 130)) < 0.5, 1, -1).astype(np.int8)
    monkeypatch.setattr(paths_module, "TIME_MAJOR_READ_BYTES", 0)

    def draw():
        return paths_module.time_major_blocks(dW, eta)

    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(FlowExplosionError) as info:
        nv_march(diag_comm, draw, 5, 130, 1 / 130, 65, 40, "nv-proxy")
    err = info.value
    assert (err.scheme, err.N, err.step, err.path, err.t) == ("nv-proxy", 130, 12, 42, 12 / 130)


def test_step_explosion_names_scheme_and_path(gbm):
    # one step on three paths; only path 2 overflows
    bundle = _one_step_bundle([[0.1], [0.1], [2e3]], 1, 0.5)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(FlowExplosionError) as info:
        trajectory(gbm, "nv", bundle, 1)
    assert (info.value.scheme, info.value.step, info.value.path) == ("nv", 1, 2)


def test_exact_trajectory_gbm_closed_form(gbm):
    bundle = make_bundle_batch(5, 0, 20, 32, 1, 1.0)
    ref = exact_trajectory(gbm, bundle, 32)
    W_T = bundle.dW[:, :, 0].sum(axis=1)
    rate = GBM_MU - 0.5 * GBM_SIGMA**2
    np.testing.assert_allclose(
        ref.states[:, -1, 0], gbm.x0[0] * np.exp(rate + GBM_SIGMA * W_T), rtol=1e-12
    )


def test_exact_trajectory_heisenberg_first_coordinate_is_brownian(heisenberg):
    bundle = make_bundle_batch(6, 0, 20, 64, 2, 1.0)
    ref = exact_trajectory(heisenberg, bundle, 16)

    view = coarsen(bundle, 16)
    W1 = np.cumsum(view.dW[:, :, 0], axis=1)
    np.testing.assert_array_equal(ref.states[:, 1:, 0], W1)


def _heisenberg_exact_by_concatenation(bundle, N):
    """The closed form as first written, with three full-resolution temporaries."""
    view = coarsen(bundle, N)
    paths = bundle.paths
    block = bundle.n_fine // N
    zeros = np.zeros((paths, 1))
    X1 = np.concatenate([zeros, np.cumsum(view.dW[:, :, 0], axis=1)], axis=1)
    W1_left = np.concatenate([zeros, np.cumsum(bundle.dW[:, :, 0], axis=1)[:, :-1]], axis=1)
    csum = np.cumsum(W1_left * bundle.dW[:, :, 1], axis=1)
    X2 = np.concatenate([zeros, csum[:, block * np.arange(1, N + 1) - 1]], axis=1)
    return np.stack([X1, X2], axis=2)


@pytest.mark.parametrize("N, refine", [(8, 16), (3, 5), (4, 1)])
def test_heisenberg_closed_form_in_place_is_bit_identical(heisenberg, N, refine):
    bundle = make_bundle_batch(8, 0, 24, N * refine, 2, 1.0)
    ref = exact_trajectory(heisenberg, bundle, N).states
    np.testing.assert_array_equal(ref, _heisenberg_exact_by_concatenation(bundle, N))


@pytest.mark.parametrize("tile", [None, 1, 3, 16])
@pytest.mark.parametrize("N, refine", [(8, 16), (3, 5), (4, 1)])
def test_heisenberg_closed_form_tiles_equal_whole_chunk(heisenberg, N, refine, tile):
    # the closed form is path-wise: handed the 10 paths whole, or one tile of
    # 1, 3 or 16 paths at a time with the tile's coarse bundle (no tile of 3
    # or 16 divides them), it gives the bits of one whole-chunk buffer
    bundle = make_bundle_batch(8, 0, 10, N * refine, 2, 1.0)
    if tile is None:
        ref = exact_trajectory(heisenberg, bundle, N).states
    else:
        parts = []
        for rows in fixed_tiles(tile)(bundle.paths):
            part = PathBundle(bundle.T, bundle.dW[rows], bundle.eta[rows], rows.start)
            parts.append(heisenberg.exact_solution(heisenberg, part, coarsen(part, N)))
        ref = np.concatenate(parts)
    np.testing.assert_array_equal(ref, heisenberg_exact_whole_chunk(bundle, N))


def test_proxy_march_records_nv_at_grid_times(diag_comm):
    # the proxy's march at the bundle's fine resolution, recording every 4th
    # step, keeps the scheme's own states at the 16-step grid times
    bundle = make_bundle_batch(7, 0, 10, 64, 2, 1.0)

    def draw():
        return paths_module.time_major_blocks(bundle.dW, bundle.eta)

    records = nv_march(diag_comm, draw, 10, 64, bundle.h, 4, 0, "nv-proxy")
    assert_same_bits(np.moveaxis(records, -1, 0), reference_states(diag_comm, bundle, 16))


def test_exact_trajectory_rejects_problem_without_closed_form(diag_comm):
    bundle = make_bundle_batch(7, 0, 10, 64, 2, 1.0)
    with pytest.raises(ValueError, match="problem 'diag-comm' has no closed form"):
        exact_trajectory(diag_comm, bundle, 16)


def test_trajectory_selector(heisenberg):
    bundle = make_bundle_batch(1, 0, 5, 8, 2, 1.0)
    for scheme in ("nv", "discrete-nv", "euler", "exact"):
        traj = trajectory(heisenberg, scheme, bundle, 8)
        assert traj.states.shape == (5, 9, 2)
    with pytest.raises(KeyError):
        trajectory(heisenberg, "midpoint", bundle, 8)


def test_grid_must_divide_bundle(heisenberg):
    bundle = make_bundle_batch(1, 0, 2, 8, 2, 1.0)
    with pytest.raises(ValueError):
        nv_trajectory(heisenberg, bundle, 3)
    # a grid has at least one step: N = 0 is a usage error, not a division by zero
    for scheme in SCHEME_IDS:
        with pytest.raises(ValueError, match="N=0"):
            trajectory(heisenberg, scheme, bundle, 0)


# ---------------------------------------------------------------------------
# march oracle: a path-major march with a masked-gather nv step
# ---------------------------------------------------------------------------


def _masked_nv_kernel(problem, x, dW, eta, h):
    """The nv step on state rows x (n, paths) with one step of path-major
    increments dW (paths, d) and signs eta (paths,): each sweep direction
    gathers its paths with a boolean mask and scatters them back."""
    half = 0.5 * h
    x = flow_unchecked(problem, 0, half, x)
    d = problem.d
    if d == 1:
        x = flow_unchecked(problem, 1, dW[:, 0], x)
    else:
        plus = eta > 0
        minus = ~plus
        out = np.empty_like(x)
        if plus.any():
            xp = x[:, plus]
            for j in range(1, d + 1):
                xp = flow_unchecked(problem, j, dW[plus, j - 1], xp)
            out[:, plus] = xp
        if minus.any():
            xm = x[:, minus]
            for j in range(d, 0, -1):
                xm = flow_unchecked(problem, j, dW[minus, j - 1], xm)
            out[:, minus] = xm
        x = out
    return flow_unchecked(problem, 0, half, x)


def _on_path_major_step(kernel):
    """``kernel`` fed one step of path-major increments and signs."""
    return lambda problem, x, dW, eta, h: kernel(problem, x, dW.T, eta > 0, h)


def _path_major_march(problem, step, bundle):
    """Every state of ``step`` marched over the bundle, reading the increments
    of step k as the strided view dW[:, k, :] and recording each state path
    by path; shape (paths, steps + 1, n)."""
    dW, eta, h = bundle.dW, bundle.eta, bundle.h
    paths, steps = dW.shape[:2]
    states = np.empty((paths, steps + 1, problem.n))
    x = np.repeat(problem.x0[:, None], paths, axis=1)
    states[:, 0] = x.T
    for k in range(steps):
        x = step(problem, x, dW[:, k, :], eta[:, k], h)
        states[:, k + 1] = x.T
    return states


_MARCH_KERNELS = {
    "nv": (_nv_kernel, _masked_nv_kernel),
    "discrete-nv": (_discrete_nv_kernel, _on_path_major_step(_discrete_nv_kernel)),
    "euler": (_euler_kernel, _on_path_major_step(_euler_kernel)),
}


@pytest.mark.parametrize("paths", [1, 1000])
@pytest.mark.parametrize("scheme", list(_MARCH_KERNELS))
@pytest.mark.parametrize("name", PROBLEM_IDS)
def test_time_major_march_matches_path_major_reference(name, scheme, paths, monkeypatch):
    # read in blocks: 1, 59, 60, 61 and 130 steps are read in blocks of 1, 3,
    # 3, 3 and 8 steps, ending full or partial; 961 steps, on one path only to
    # keep the test short, read 16 blocks of TIME_MAJOR_BLOCK = 60 steps and
    # one more. With the short-march read at 60 steps, marches of up to 60
    # steps are read in one block and longer ones in blocks as above
    problem = get_problem(name)
    kernel, reference = _MARCH_KERNELS[scheme]
    for read_bytes in (0, 60 * paths * (8 * problem.d + 1)):
        monkeypatch.setattr(paths_module, "TIME_MAJOR_READ_BYTES", read_bytes)
        rng = np.random.default_rng(2024)
        for steps in (1, 59, 60, 61, 130) + ((961,) if paths == 1 else ()):
            dW = rng.standard_normal((paths, steps, problem.d)) / np.sqrt(steps)
            mixed = np.where(rng.random((paths, steps)) < 0.5, 1, -1)
            for eta in (np.ones_like(mixed), -np.ones_like(mixed), mixed):
                bundle = PathBundle(T=1.0, dW=dW, eta=eta.astype(np.int8))
                want = _path_major_march(problem, reference, bundle)
                for stride in (1, 64):
                    got = _scheme(problem, kernel, scheme, bundle, steps, stride).states
                    expected = want[:, ::stride]
                    assert got.shape == expected.shape
                    np.testing.assert_array_equal(got, expected)
                    np.testing.assert_array_equal(np.signbit(got), np.signbit(expected))


def _signed_zero_bundle(rng, paths, steps, d):
    """A hand-made bundle whose increments are about two fifths zeros of
    either sign, so that many pairs of steps sum zeros, and whose signs are
    mixed."""
    dW = with_signed_zeros(rng.standard_normal((paths, steps, d)), rng)
    eta = np.where(rng.random((paths, steps)) < 0.5, 1, -1).astype(np.int8)
    return PathBundle(T=1.0, dW=dW, eta=eta)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_pair_sums_are_the_coarsen_bits(d):
    # 0.0 + first + second at every d, as coarsen sums two steps: at d = 1,
    # where numpy sums the block pairwise, too; -0.0 + -0.0 sums to +0.0
    bundle = _signed_zero_bundle(np.random.default_rng(d), 200, 8, d)
    rows = np.moveaxis(bundle.dW, 0, -1)  # time-major (steps, d, paths)
    want = coarsen(bundle, 4)
    assert_same_bits(np.moveaxis(_pair_sums(rows[0::2], rows[1::2]), -1, 0), want.dW)
    (k0, dW, eta), = coarse_blocks([(8, rows, bundle.eta.T)])
    assert k0 == 4
    assert_same_bits(np.moveaxis(dW, -1, 0), want.dW)
    np.testing.assert_array_equal(eta.T, want.eta)


def _translation_problem():
    """dX = dW from x0 = -0.0: the state is -0.0 plus the summed increments,
    so it keeps each grid's sign of a zero sum."""
    A, c = np.zeros((2, 1, 1)), np.array([[0.0], [1.0]])
    return Problem("translation", VectorFieldSet.affine(A=A, c=c), x0=np.array([-0.0]), T=1.0)


@pytest.mark.parametrize("name", ["translation", "heisenberg", "diag-comm", "linear-nc"])
@pytest.mark.parametrize("steps", [2, 8, 130])
def test_coupled_terminals_are_each_grids_march(name, steps, monkeypatch):
    # the two grids marched together, on blocks of whole pairs of steps, end
    # where nv ends on the bundle and on it coarsened to half the steps, bit
    # for bit; heisenberg starts from -0.0 too, so its first coordinate keeps
    # the sign of a zero sum (at 2 steps the translation's grids end on
    # zeros of opposite signs where both increments are -0.0). 130 steps are
    # read in one block and, with the odd TIME_MAJOR_BLOCK of 7 cut to 6, in
    # 21 blocks of 6 steps and one of 4
    if name == "translation":
        problem = _translation_problem()
    else:
        problem = get_problem(name)
        if name == "heisenberg":
            problem = replace(problem, x0=np.array([-0.0, -0.0]))
    bundle = _signed_zero_bundle(np.random.default_rng(steps), 300, steps, problem.d)
    fine = nv_trajectory(problem, bundle, steps).terminal()
    coarse = nv_trajectory(problem, bundle, steps // 2).terminal()
    if name == "translation" and steps == 2:  # where both increments are -0.0
        assert np.any(np.signbit(fine) != np.signbit(coarse))
    monkeypatch.setattr(paths_module, "TIME_MAJOR_BLOCK", 7)
    for read_bytes in (paths_module.TIME_MAJOR_READ_BYTES, 0):
        monkeypatch.setattr(paths_module, "TIME_MAJOR_READ_BYTES", read_bytes)

        def draw():
            return paths_module.time_major_blocks(bundle.dW, bundle.eta, group=2)

        rows = coupled_terminals(problem, draw, 300, steps)
        assert_same_bits(rows[: problem.n].T, fine)
        assert_same_bits(rows[problem.n :].T, coarse)


# ---------------------------------------------------------------------------
# surrogate-vs-scheme distance and moment stability
# ---------------------------------------------------------------------------


def test_nv_and_surrogate_identical_on_heisenberg_trajectories(heisenberg):
    # the catalog's nilpotent pair makes the surrogate coincide with the scheme;
    # any gap is pure float accumulation
    for N in (8, 64, 256):
        gap = scheme_gap(heisenberg, "nv", "discrete-nv", N, 400, 21)
        assert gap.err <= 1e-12


def test_surrogate_tracks_nv_at_first_order_on_linear_nc(linear_nc):
    points = [scheme_gap(linear_nc, "nv", "discrete-nv", N, 2000, 33) for N in (8, 16, 32, 64, 128)]
    fit = fit_rate(points, T=linear_nc.T)
    assert fit.slope >= 0.8
    assert fit.r_squared >= 0.95


def _max_mean_square_norm(states):
    return float(np.max(np.mean(np.sum(states**2, axis=2), axis=0)))


@pytest.mark.parametrize("name", ["heisenberg", "diag-comm", "linear-nc", "gbm1d"])
def test_surrogate_moments_stable_in_resolution(name):
    # sup-over-grid second moment must not drift as N grows
    prob = get_problem(name)
    stats = {}
    for N in (8, 512):
        bundle = make_bundle_batch(13, 0, 3000, N, prob.d, prob.T)
        states = discrete_nv_trajectory(prob, bundle, N).states
        sq = np.sum(states**2, axis=2)
        per_grid_mean = sq.mean(axis=0)
        k_star = int(np.argmax(per_grid_mean))
        stats[N] = (
            float(per_grid_mean[k_star]),
            float(sq[:, k_star].std(ddof=1) / np.sqrt(sq.shape[0])),
        )
    m8, se8 = stats[8]
    m512, se512 = stats[512]
    assert abs(m8 - m512) < 3.0 * np.hypot(se8, se512) + 1e-12
