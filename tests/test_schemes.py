import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from nvlab import (
    FlowExplosionError,
    GridSpec,
    PathBundle,
    StepInputs,
    discrete_nv_step,
    discrete_nv_trajectory,
    euler_step,
    exact_trajectory,
    fit_rate,
    get_problem,
    make_bundle,
    make_bundle_batch,
    nv_step,
    nv_trajectory,
    scheme_gap,
    trajectory,
)
from nvlab.catalog import DIAG_A, DIAG_THETA, GBM_MU, GBM_SIGMA

from conftest import sample_states

incr = st.floats(-1.5, 1.5)


# ---------------------------------------------------------------------------
# splitting-scheme one-step map
# ---------------------------------------------------------------------------


@given(incr, st.floats(0.001, 0.5), st.sampled_from([1, -1]))
def test_nv_step_gbm_composes_to_exact_step(dw, h, eta):
    # oracle: compose the three scalar exponential flows by hand
    gbm = get_problem("gbm1d")
    rate = GBM_MU - 0.5 * GBM_SIGMA**2
    x = 1.3
    composed = x * np.exp(rate * h / 2) * np.exp(GBM_SIGMA * dw) * np.exp(rate * h / 2)
    exact = x * np.exp(rate * h + GBM_SIGMA * dw)
    out = nv_step(gbm, np.array([x]), StepInputs(h=h, dW=np.array([dw]), eta=eta))
    assert abs(out[0] - composed) <= 1e-14 * abs(composed)
    assert abs(out[0] - exact) <= 1e-13 * abs(exact)


@given(incr, incr)
def test_nv_step_heisenberg_hand_composition(dw1, dw2):
    heis = get_problem("heisenberg")
    step = StepInputs(h=0.1, dW=np.array([dw1, dw2]), eta=1)
    plus = nv_step(heis, np.zeros(2), step)
    np.testing.assert_allclose(plus, [dw1, dw2 * dw1], atol=1e-15)
    minus = nv_step(heis, np.zeros(2), StepInputs(h=0.1, dW=step.dW, eta=-1))
    np.testing.assert_allclose(minus, [dw1, 0.0], atol=1e-15)
    np.testing.assert_allclose(plus - minus, [0.0, dw1 * dw2], atol=1e-15)


def test_nv_step_sign_irrelevant_for_single_brownian(gbm):
    x = np.array([0.8])
    step_plus = StepInputs(h=0.05, dW=np.array([0.3]), eta=1)
    step_minus = StepInputs(h=0.05, dW=np.array([0.3]), eta=-1)
    assert np.array_equal(nv_step(gbm, x, step_plus), nv_step(gbm, x, step_minus))


def test_nv_step_sign_irrelevant_under_commutativity(diag_comm):
    rng = np.random.default_rng(0)
    xs = sample_states(diag_comm, count=40, seed=1)
    dW = 0.3 * rng.standard_normal((40, 2))
    up = nv_step(diag_comm, xs, StepInputs(h=0.05, dW=dW, eta=np.ones(40, dtype=np.int8)))
    down = nv_step(diag_comm, xs, StepInputs(h=0.05, dW=dW, eta=-np.ones(40, dtype=np.int8)))
    assert np.max(np.abs(up - down)) <= 1e-12


def test_nv_step_batched_matches_single(heisenberg):
    rng = np.random.default_rng(42)
    xs = rng.standard_normal((10, 2))
    dW = rng.standard_normal((10, 2))
    eta = np.where(rng.random(10) < 0.5, 1, -1).astype(np.int8)
    batch = nv_step(heisenberg, xs, StepInputs(h=0.2, dW=dW, eta=eta))
    for i in range(10):
        single = nv_step(heisenberg, xs[i], StepInputs(h=0.2, dW=dW[i], eta=int(eta[i])))
        np.testing.assert_array_equal(batch[i], single)


def test_step_inputs_validation(heisenberg):
    with pytest.raises(ValueError):
        StepInputs(h=0.0, dW=np.zeros(2))
    with pytest.raises(ValueError):
        nv_step(heisenberg, np.zeros(2), StepInputs(h=0.1, dW=np.zeros(3)))
    with pytest.raises(ValueError):
        nv_step(heisenberg, np.zeros(3), StepInputs(h=0.1, dW=np.zeros(2)))


# ---------------------------------------------------------------------------
# adapted surrogate one-step map
# ---------------------------------------------------------------------------


@given(incr, st.floats(0.001, 0.5))
def test_discrete_step_gbm_is_milstein(dw, h):
    gbm = get_problem("gbm1d")
    x = 0.9
    milstein = x + GBM_MU * x * h + GBM_SIGMA * x * dw + 0.5 * GBM_SIGMA**2 * x * (dw**2 - h)
    out = discrete_nv_step(gbm, np.array([x]), StepInputs(h=h, dW=np.array([dw]), eta=1))
    assert abs(out[0] - milstein) <= 1e-13 * max(1.0, abs(milstein))


@given(incr, incr, st.sampled_from([1, -1]))
def test_discrete_step_heisenberg_matches_nv(dw1, dw2, eta):
    heis = get_problem("heisenberg")
    xs = sample_states(heis, count=6, seed=8)
    step = StepInputs(h=0.125, dW=np.array([dw1, dw2]), eta=eta)
    nv = nv_step(heis, xs, step)
    disc = discrete_nv_step(heis, xs, step)
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
    out = discrete_nv_step(diag_comm, x, StepInputs(h=h, dW=np.zeros(2), eta=1))
    np.testing.assert_allclose(out, expected, atol=1e-15)


# ---------------------------------------------------------------------------
# Euler baseline
# ---------------------------------------------------------------------------


def test_euler_step_zero_increments(diag_comm):
    x = np.array([1.0, 2.0])
    h = 0.1
    expected = x + h * DIAG_THETA * np.array([x[1], x[0]])
    np.testing.assert_allclose(
        euler_step(diag_comm, x, StepInputs(h=h, dW=np.zeros(2))), expected, atol=1e-15
    )


def test_euler_step_gbm_arithmetic(gbm):
    out = euler_step(gbm, np.array([1.0]), StepInputs(h=0.01, dW=np.array([0.1])))
    assert abs(out[0] - 1.051) <= 1e-12


def test_euler_step_heisenberg_origin(heisenberg):
    out = euler_step(heisenberg, np.zeros(2), StepInputs(h=0.3, dW=np.array([0.7, -0.2])))
    np.testing.assert_allclose(out, [0.7, 0.0], atol=1e-15)


# ---------------------------------------------------------------------------
# trajectories
# ---------------------------------------------------------------------------


def test_single_step_trajectory_equals_step(heisenberg):
    bundle = make_bundle(3, 0, 1, 2, 1.0)
    grid = GridSpec(1, 1.0)
    traj = nv_trajectory(heisenberg, bundle, grid)
    step = StepInputs(h=1.0, dW=bundle.dW[0, 0], eta=int(bundle.eta[0, 0]))
    np.testing.assert_array_equal(traj.states[0, 1], nv_step(heisenberg, heisenberg.x0, step))
    np.testing.assert_array_equal(traj.states[0, 0], heisenberg.x0)


@pytest.mark.parametrize("N", [1, 3, 16, 128])
def test_gbm_scheme_exact_at_all_grid_points(gbm, N):
    bundle = make_bundle_batch(9, 0, 50, N, 1, 1.0)
    grid = GridSpec(N, 1.0)
    nv = nv_trajectory(gbm, bundle, grid)
    ref = exact_trajectory(gbm, bundle, grid)
    assert ref.label == "exact"
    assert np.max(np.abs(nv.states - ref.states)) <= 1e-12


def test_zero_increments_constant_trajectory(heisenberg):
    dW = np.zeros((2, 8, 2))
    eta = np.ones((2, 8), dtype=np.int8)
    bundle = PathBundle(T=1.0, n_fine=8, d=2, dW=dW, eta=eta)
    traj = nv_trajectory(heisenberg, bundle, GridSpec(8, 1.0))
    assert np.array_equal(traj.states, np.zeros((2, 9, 2)))


@pytest.mark.parametrize(
    "scheme, big, step", [("nv", [2e3, 0.1], 2), ("euler", [1e200, 1e200], 3)]
)
def test_explosion_names_scheme_step_and_path(gbm, scheme, big, step):
    # path 101 of the stream numbering overflows; path 100 stays finite
    dW = np.full((2, 4, 1), 0.1)
    dW[1, 1:3, 0] = big
    eta = np.ones((2, 4), dtype=np.int8)
    bundle = PathBundle(T=1.0, n_fine=4, d=1, dW=dW, eta=eta, path_start=100)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(FlowExplosionError) as info:
        trajectory(gbm, scheme, bundle, GridSpec(4, 1.0))
    err = info.value
    assert (err.scheme, err.step, err.path, err.t) == (scheme, step, 101, step * 0.25)
    assert f"scheme {scheme!r}" in str(err) and f"step {step}" in str(err)
    assert "path 101" in str(err)


def test_step_explosion_names_scheme_and_path(gbm):
    x = np.ones((3, 1))
    dW = np.array([[0.1], [0.1], [2e3]])
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(FlowExplosionError) as info:
        nv_step(gbm, x, StepInputs(h=0.5, dW=dW))
    assert (info.value.scheme, info.value.step, info.value.path) == ("nv", 1, 2)


def test_exact_trajectory_gbm_closed_form(gbm):
    bundle = make_bundle_batch(5, 0, 20, 32, 1, 1.0)
    ref = exact_trajectory(gbm, bundle, GridSpec(32, 1.0))
    W_T = bundle.dW[:, :, 0].sum(axis=1)
    rate = GBM_MU - 0.5 * GBM_SIGMA**2
    np.testing.assert_allclose(
        ref.states[:, -1, 0], gbm.x0[0] * np.exp(rate + GBM_SIGMA * W_T), rtol=1e-12
    )


def test_exact_trajectory_heisenberg_first_coordinate_is_brownian(heisenberg):
    bundle = make_bundle_batch(6, 0, 20, 64, 2, 1.0)
    grid = GridSpec(16, 1.0)
    ref = exact_trajectory(heisenberg, bundle, grid)
    from nvlab import coarsen

    view = coarsen(bundle, 16)
    W1 = np.cumsum(view.dW[:, :, 0], axis=1)
    np.testing.assert_array_equal(ref.states[:, 1:, 0], W1)


def test_exact_trajectory_proxy_mode(diag_comm):
    bundle = make_bundle_batch(7, 0, 10, 64, 2, 1.0)
    grid = GridSpec(16, 1.0)
    ref = exact_trajectory(diag_comm, bundle, grid)
    assert ref.label == "nv-proxy"
    # proxy at the bundle's own resolution is the scheme itself
    fine_grid = GridSpec(64, 1.0)
    nv_fine = nv_trajectory(diag_comm, bundle, fine_grid)
    np.testing.assert_array_equal(ref.states, nv_fine.states[:, ::4, :])


def test_exact_trajectory_rejects_unrefined_proxy(diag_comm):
    bundle = make_bundle_batch(7, 0, 10, 16, 2, 1.0)
    with pytest.raises(ValueError, match="refinement"):
        exact_trajectory(diag_comm, bundle, GridSpec(16, 1.0))


def test_trajectory_selector(heisenberg):
    bundle = make_bundle_batch(1, 0, 5, 8, 2, 1.0)
    grid = GridSpec(8, 1.0)
    for scheme in ("nv", "discrete-nv", "euler", "exact"):
        traj = trajectory(heisenberg, scheme, bundle, grid)
        assert traj.states.shape == (5, 9, 2)
    with pytest.raises(KeyError):
        trajectory(heisenberg, "midpoint", bundle, grid)


def test_grid_must_divide_bundle(heisenberg):
    bundle = make_bundle_batch(1, 0, 2, 8, 2, 1.0)
    with pytest.raises(ValueError):
        nv_trajectory(heisenberg, bundle, GridSpec(3, 1.0))
    with pytest.raises(ValueError):
        nv_trajectory(heisenberg, bundle, GridSpec(8, 2.0))


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
        states = discrete_nv_trajectory(prob, bundle, GridSpec(N, prob.T)).states
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
