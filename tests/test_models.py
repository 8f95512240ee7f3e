from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from nvlab import PROBLEM_IDS, VectorFieldSet, build_bracket_table, catalog, get_problem
from nvlab.catalog import GBM_MU, GBM_SIGMA, LINNC_K1, LINNC_K2

from oracles import jacobian_bracket, jacobian_drift, sample_states

state2 = st.lists(st.floats(-3, 3), min_size=2, max_size=2).map(np.array)


def matrix_drift(fields, x):
    """The Stratonovich drift in matrix form:
    (A_0 - 1/2 sum_j A_j^2) x + c_0 - 1/2 sum_j A_j c_j."""
    A, c = fields.A, fields.c
    S = A[0] - 0.5 * sum(A[j] @ A[j] for j in range(1, fields.d + 1))
    s0 = c[0] - 0.5 * sum(A[j] @ c[j] for j in range(1, fields.d + 1))
    return x @ S.T + s0


def bracket(fields, j, m, x):
    """[sigma^j, sigma^m](x) from bracket_matrices."""
    C, e = fields.bracket_matrices(j, m)
    return x @ C.T + e


def test_catalog_contents():
    probs = {p.name: p for p in catalog()}
    assert set(probs) == {"gbm1d", "heisenberg", "diag-comm", "linear-nc"}
    assert probs["heisenberg"].commutative is False
    assert probs["diag-comm"].commutative is True
    assert probs["gbm1d"].commutative is True
    assert probs["linear-nc"].commutative is False
    assert set(PROBLEM_IDS) == set(probs)


def test_gbm_exact_solution_zero_noise(gbm):
    # closed form at t=T with W_T = 0
    rate = GBM_MU - 0.5 * GBM_SIGMA**2
    assert np.isclose(gbm.x0[0] * np.exp(rate * gbm.T), np.exp(rate))


def test_stratonovich_drift_gbm(gbm):
    xs = sample_states(gbm)
    expected = (GBM_MU - 0.5 * GBM_SIGMA**2) * xs
    for drift in (matrix_drift, jacobian_drift):
        np.testing.assert_allclose(drift(gbm.fields, xs), expected, atol=1e-14)


def test_stratonovich_drift_heisenberg_vanishes(heisenberg):
    xs = sample_states(heisenberg)
    for drift in (matrix_drift, jacobian_drift):
        np.testing.assert_array_equal(drift(heisenberg.fields, xs), np.zeros_like(xs))


def test_stratonovich_drift_constant_fields_is_drift():
    # all Jacobians vanish, so the correction drops out
    drift = np.array([0.3, -0.7])
    fields = VectorFieldSet.affine(
        A=np.zeros((3, 2, 2)),
        c=[drift, [1.0, 2.0], [-1.0, 0.5]],
    )
    x = np.array([1.0, 4.0])
    np.testing.assert_array_equal(matrix_drift(fields, x), drift)
    np.testing.assert_array_equal(jacobian_drift(fields, x), drift)


@given(state2)
def test_lie_bracket_heisenberg_constant(x):
    heis = get_problem("heisenberg")
    for br in (bracket, jacobian_bracket):
        np.testing.assert_array_equal(br(heis.fields, 2, 1, x), np.array([0.0, -1.0]))


@given(state2)
def test_lie_bracket_diag_comm_vanishes(x):
    dc = get_problem("diag-comm")
    for br in (bracket, jacobian_bracket):
        np.testing.assert_array_equal(br(dc.fields, 2, 1, x), np.zeros(2))


def test_lie_bracket_linear_matrix_commutator(linear_nc):
    A1 = LINNC_K1 * np.array([[1.0, 0.0], [0.0, -1.0]])
    A2 = LINNC_K2 * np.array([[0.0, 1.0], [1.0, 0.0]])
    comm = A1 @ A2 - A2 @ A1
    xs = sample_states(linear_nc, count=20)
    expected = xs @ comm.T
    for br in (bracket, jacobian_bracket):
        np.testing.assert_allclose(br(linear_nc.fields, 2, 1, xs), expected, atol=1e-13)


def test_lie_bracket_index_validation(heisenberg):
    # the bracket at a state needs 1 <= m < j <= d, as bracket_matrices checks
    for j, m in [(1, 1), (1, 2), (3, 1), (2, 0)]:
        with pytest.raises(ValueError):
            bracket(heisenberg.fields, j, m, np.zeros(2))


def test_bracket_antisymmetry_all_problems(problems):
    # [s^j, s^m] must equal minus the reversed composition of Jacobian products
    for prob in problems.values():
        if prob.d < 2:
            continue
        xs = sample_states(prob, count=50)
        for j in range(2, prob.d + 1):
            for m in range(1, j):
                br = bracket(prob.fields, j, m, xs)
                reversed_combo = jacobian_bracket(prob.fields, m, j, xs)
                assert np.max(np.abs(br + reversed_combo)) <= 1e-12


def test_bracket_table_matches_op(problems, heisenberg):
    for prob in problems.values():
        table = build_bracket_table(prob.fields)
        pairs = tuple((j, m) for j in range(2, prob.d + 1) for m in range(1, j))
        assert prob.fields.pairs == pairs and tuple(table.entries) == pairs
        xs = sample_states(prob, count=20, seed=24, spread=2.0)
        rows = xs.T
        for (j, m), entry in table.entries.items():
            exact = jacobian_bracket(prob.fields, j, m, xs)
            np.testing.assert_allclose(entry(rows).T, exact, rtol=1e-13, atol=1e-13)
            np.testing.assert_array_equal(entry(rows[:, :1]), entry(rows)[:, :1])
    x = np.array([0.4, -1.2])
    heis = build_bracket_table(heisenberg.fields).entries[(2, 1)]
    expected = jacobian_bracket(heisenberg.fields, 2, 1, x)
    np.testing.assert_array_equal(heis(x[:, None])[:, 0], expected)


def _fd_jacobian(f, x, step=1e-6):
    """Central differences of ``f`` at the state rows ``x`` (n, paths), as (paths, n, n)."""
    n = x.shape[0]
    cols = []
    for k in range(n):
        e = np.zeros((n, 1))
        e[k] = step
        cols.append(((f(x + e) - f(x - e)) / (2 * step)).T)
    return np.stack(cols, axis=-1)


def test_jacobians_match_finite_differences(problems):
    for prob in problems.values():
        xs = sample_states(prob, count=100, seed=77).T
        pairs = [(prob.fields.b, prob.fields.jac_b)]
        pairs += [(prob.fields.sigma[j], prob.fields.jac_sigma[j]) for j in range(prob.d)]
        for func, jac in pairs:
            analytic = jac(xs)
            fd = _fd_jacobian(func, xs)
            scale = 1.0 + np.abs(analytic)
            assert np.max(np.abs(analytic - fd) / scale) <= 1e-5, prob.name


def test_commutativity_flags_sound(problems):
    for prob in problems.values():
        if prob.d < 2:
            continue
        xs = sample_states(prob, count=50, seed=5)
        norms = np.linalg.norm(bracket(prob.fields, 2, 1, xs), axis=-1)
        if prob.commutative:
            assert np.max(norms) <= 1e-12
        else:
            assert np.min(norms) > 0.0


def test_heisenberg_bracket_norm_is_one(heisenberg):
    xs = sample_states(heisenberg, count=30)
    norms = np.linalg.norm(bracket(heisenberg.fields, 2, 1, xs), axis=-1)
    np.testing.assert_array_equal(norms, np.ones(30))


def test_dimension_cap_enforced():
    with pytest.raises(ValueError, match="dimensions"):
        VectorFieldSet.affine(np.zeros((2, 17, 17)), np.zeros((2, 17)))


def test_field_count_must_match_d():
    # offsets for two fields against matrices for three (d = 2)
    with pytest.raises(ValueError, match="c must have shape"):
        VectorFieldSet.affine(np.zeros((3, 1, 1)), np.zeros((2, 1)))
    fields = VectorFieldSet.affine(np.zeros((3, 1, 1)), np.zeros((3, 1)))
    with pytest.raises(ValueError, match="exactly d Brownian fields"):
        replace(fields, sigma=fields.sigma[:1])


@pytest.mark.parametrize(
    "A, c, field",
    [
        # each drift A_0 = A_1^2 / 2 and c_0 = A_1 c_1 / 2 makes the
        # Stratonovich drift zero, so the Brownian field is the one refused:
        # one that is not symmetric, nilpotent or a multiple of an involution
        ([[[0.5, 2.0], [0.0, 0.5]], [[1.0, 2.0], [0.0, 1.0]]], np.zeros((2, 2)), "field 1"),
        # one with a linear part and an offset together
        ([[[0.5]], [[1.0]]], [[0.5], [1.0]], "field 1"),
        # a zero Brownian field, so the Stratonovich drift M = A_0 is refused
        ([[[1.0, 2.0], [0.0, 1.0]], np.zeros((2, 2))], np.zeros((2, 2)), r"field 0 \("),
    ],
    ids=["no-structure", "matrix-and-offset", "drift"],
)
def test_field_without_closed_form_flow_raises(A, c, field):
    with pytest.raises(ValueError, match=f"^{field}.*no closed-form flow"):
        VectorFieldSet.affine(A, c)


def test_problem_descriptor_keys(heisenberg):
    desc = heisenberg.descriptor()
    assert desc == {
        "id": "heisenberg",
        "n": 2,
        "d": 2,
        "T": 1.0,
        "x0": [0.0, 0.0],
        "commutative_flag": False,
    }


def test_unknown_problem_rejected():
    with pytest.raises(KeyError):
        get_problem("does-not-exist")


# ---------------------------------------------------------------------------
# the affine representation (A, c) behind every catalog problem
# ---------------------------------------------------------------------------


def test_callables_equal_their_matrix_forms(problems):
    for prob in problems.values():
        f = prob.fields
        assert f.A.shape == (prob.d + 1, prob.n, prob.n) and f.c.shape == (prob.d + 1, prob.n)
        xs = sample_states(prob, count=50, seed=21, spread=2.0)
        rows = xs.T
        callables = [(f.b, f.jac_b)] + list(zip(f.sigma, f.jac_sigma))
        for k, (field, jac) in enumerate(callables):
            expected = (xs @ f.A[k].T + f.c[k]).T
            np.testing.assert_array_equal(field(rows), expected, err_msg=prob.name)
            np.testing.assert_array_equal(jac(rows), f.A[k])
            np.testing.assert_array_equal(field(rows[:, :1]), field(rows)[:, :1])


def test_bracket_matrices_equal_lie_bracket(problems):
    for prob in problems.values():
        xs = sample_states(prob, count=50, seed=22, spread=2.0)
        for j, m in prob.fields.pairs:
            C, e = prob.fields.bracket_matrices(j, m)
            precomputed = xs @ C.T + e
            exact = jacobian_bracket(prob.fields, j, m, xs)
            if prob.name in ("heisenberg", "diag-comm"):
                np.testing.assert_array_equal(precomputed, exact)
            else:
                np.testing.assert_allclose(precomputed, exact, rtol=1e-13, atol=1e-13)


def test_bracket_matrices_index_validation(heisenberg):
    for j, m in [(1, 1), (1, 2), (3, 1), (2, 0)]:
        with pytest.raises(ValueError):
            heisenberg.fields.bracket_matrices(j, m)


def test_stratonovich_drift_from_matrices(problems):
    # sigma^0 = (A_0 - 1/2 sum_j A_j^2) x + c_0 - 1/2 sum_j A_j c_j
    for prob in problems.values():
        xs = sample_states(prob, count=50, seed=23, spread=2.0)
        np.testing.assert_allclose(
            jacobian_drift(prob.fields, xs), matrix_drift(prob.fields, xs), rtol=1e-13, atol=1e-13
        )


def test_affine_arrays_are_read_only(heisenberg):
    with pytest.raises(ValueError):
        heisenberg.fields.A[2, 1, 0] = 5.0
    with pytest.raises(ValueError):
        heisenberg.fields.c[1, 0] = 5.0
