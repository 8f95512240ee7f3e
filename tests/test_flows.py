import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from nvlab import (
    PROBLEM_IDS,
    FlowExplosionError,
    PathBundle,
    Problem,
    VectorFieldSet,
    get_problem,
    trajectory,
)
from nvlab.catalog import GBM_MU, GBM_SIGMA
from nvlab.flows import flow_unchecked

from oracles import ORACLE_FLOWS, jacobian_drift, sample_states, with_signed_zeros

times = st.floats(-1.0, 1.0)


def test_constant_field_flow(heisenberg):
    out = flow_unchecked(heisenberg, 1, 0.7, np.zeros(2))
    np.testing.assert_allclose(out, [0.7, 0.0], atol=1e-15)


def test_nilpotent_field_flow(heisenberg):
    a, b, s = 1.3, -0.4, 0.25
    out = flow_unchecked(heisenberg, 2, s, np.array([a, b]))
    np.testing.assert_allclose(out, [a, b + s * a], atol=1e-15)


def test_gbm_drift_flow_half_step(gbm):
    h = 0.02
    out = flow_unchecked(gbm, 0, h / 2, np.array([1.0]))
    np.testing.assert_allclose(out, np.exp((GBM_MU - GBM_SIGMA**2 / 2) * h / 2), rtol=1e-15)


def test_flow_identity_at_zero(problems):
    for prob in problems.values():
        xs = sample_states(prob, count=5).T
        for idx in range(prob.d + 1):
            np.testing.assert_array_equal(flow_unchecked(prob, idx, 0.0, xs), xs)


@given(times, times, st.sampled_from(["gbm1d", "diag-comm", "linear-nc", "heisenberg"]))
def test_semigroup_property(t1, t2, name):
    from nvlab import get_problem

    prob = get_problem(name)
    xs = sample_states(prob, count=4, seed=17, spread=0.5).T
    for idx in prob.fields.exact_flows:
        two_step = flow_unchecked(prob, idx, t2, flow_unchecked(prob, idx, t1, xs))
        one_step = flow_unchecked(prob, idx, t1 + t2, xs)
        assert np.max(np.abs(two_step - one_step)) <= 1e-12


@given(times, st.sampled_from(["gbm1d", "diag-comm", "linear-nc", "heisenberg"]))
def test_reversibility(t, name):
    from nvlab import get_problem

    prob = get_problem(name)
    xs = sample_states(prob, count=4, seed=23, spread=0.5).T
    for idx in prob.fields.exact_flows:
        back = flow_unchecked(prob, idx, -t, flow_unchecked(prob, idx, t, xs))
        assert np.max(np.abs(back - xs)) <= 1e-12


def test_diag_comm_drift_flow_scalar_and_array_paths_agree(diag_comm):
    # the scalar-time branch caches a propagator matrix; it must match the
    # eigen-basis evaluation used for per-path times
    xs = sample_states(diag_comm, count=12, seed=31).T
    fl = diag_comm.fields.exact_flows[0]
    scalar = fl(0.037, xs)
    arr = fl(np.full(12, 0.037), xs)
    assert np.max(np.abs(scalar - arr)) <= 1e-14


@pytest.mark.parametrize("name", PROBLEM_IDS)
def test_derived_flows_equal_hand_written_oracles(name):
    # every flow derived from (A, c) equals its hand-written closed form in
    # oracles.py bit for bit, signs of zero included, on 1000 state rows with
    # +-0 entries and on single states, at scalar and per-path times
    prob = get_problem(name)
    rng = np.random.default_rng(61)
    xs = with_signed_zeros(rng.standard_normal((prob.n, 1000)), rng)
    per_path = with_signed_zeros(rng.uniform(-1.0, 1.0, 1000), rng)
    cases = [(t, xs) for t in (-0.9, -0.0, 0.0, 0.013, 0.5, 1.7, per_path)]
    cases += [(t, x) for t in (-0.3, 0.05) for x in xs[:, :8].T]
    oracles = ORACLE_FLOWS[name]
    assert set(prob.fields.exact_flows) == set(oracles) == set(range(prob.d + 1))
    for idx, derived in prob.fields.exact_flows.items():
        for t, x in cases:
            got, want = derived(t, x), oracles[idx](t, x)
            assert got.shape == want.shape, (idx, t)
            np.testing.assert_array_equal(got, want, err_msg=f"field {idx}, t={t}")
            np.testing.assert_array_equal(np.signbit(got), np.signbit(want))


def test_flow_explosion_raises():
    # sigma(x) = x with b = x/2 has zero Stratonovich drift; its flow x e^t
    # overflows at t = 1000
    growth = Problem(
        name="blowup",
        fields=VectorFieldSet.affine(A=[[[0.5]], [[1.0]]], c=np.zeros((2, 1))),
        x0=np.array([1.0]),
        T=1.0,
    )
    with np.errstate(over="ignore"):
        assert np.isinf(flow_unchecked(growth, 1, 1e3, np.array([5.0]))).all()
    # a scheme step through that flow names the problem, scheme, step and path
    dW = np.array([[[0.1], [0.1]], [[0.1], [1e3]]])
    bundle = PathBundle(T=1.0, dW=dW, eta=np.ones((2, 2), np.int8), path_start=7)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(FlowExplosionError) as info:
        trajectory(growth, "nv", bundle, 2)
    err = info.value
    assert (err.problem, err.scheme, err.step, err.path, err.t) == ("blowup", "nv", 2, 8, 1.0)
    assert "problem 'blowup'" in str(err)


FD_EPS = 1e-5


@pytest.mark.parametrize("name", PROBLEM_IDS)
def test_closed_forms_solve_their_odes(name):
    # central difference of t -> exp(t V) x against V(exp(t V) x), with field 0
    # the Stratonovich drift: the closed forms are the only flows, so this is
    # the check that each one integrates its own field; the oracle drift
    # takes path-major states (paths, n), the flows and callables state rows
    prob = get_problem(name)
    xs = sample_states(prob, count=16, seed=41, spread=0.5).T
    per_path = np.random.default_rng(43).uniform(-1.0, 1.0, size=16)
    fields = [lambda x: jacobian_drift(prob.fields, x.T).T, *prob.fields.sigma]
    for idx, V in enumerate(fields):
        for t in (-1.0, -0.35, 0.0, 0.6, 1.0, per_path):
            phi = flow_unchecked(prob, idx, t, xs)
            forward = flow_unchecked(prob, idx, t + FD_EPS, xs)
            fd = (forward - flow_unchecked(prob, idx, t - FD_EPS, xs)) / (2 * FD_EPS)
            v = V(phi)
            assert np.max(np.abs(fd - v)) <= 1e-8 * max(1.0, np.max(np.abs(v))), (idx, t)
