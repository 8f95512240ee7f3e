"""Test-only oracles shared by the test modules.

They live in a module of their own, not in ``conftest.py``, so that the test
modules import them by a name no other suite's conftest shadows when several
test directories are collected in one session.
"""

import numpy as np

from nvlab.catalog import DIAG_A, DIAG_THETA, GBM_MU, GBM_SIGMA, LINNC_K1, LINNC_K2
from nvlab.models import Problem, VectorFieldSet
from nvlab.paths import DW_DOMAIN, _philox_key, coarsen, make_bundle_batch
from nvlab.schemes import _nv_kernel, nv_trajectory, trajectory


def sample_states(problem, count=100, seed=1234, spread=1.0):
    """Fixed random states around the starting point, for algebra oracles."""
    rng = np.random.default_rng(seed)
    return problem.x0[None, :] + spread * rng.standard_normal((count, problem.n))


def _field(fields, k, x):
    """sigma^k(x) = A[k] x + c[k] from the matrices, 0 the drift b."""
    return np.einsum("ik,...k->...i", fields.A[k], x) + fields.c[k]


def _dsigma_sigma(fields, j, m, x):
    """(d sigma^j) sigma^m at x, with d sigma^j = A[j], 1-based."""
    return np.einsum("ik,...k->...i", fields.A[j], _field(fields, m, x))


def jacobian_drift(fields, x):
    """Oracle for the Stratonovich drift by the Jacobian formula, evaluated on
    the matrices without the coefficient callables:
    b - 1/2 sum_j (d sigma^j) sigma^j."""
    out = _field(fields, 0, x)
    for j in range(1, fields.d + 1):
        out = out - 0.5 * _dsigma_sigma(fields, j, j, x)
    return out


def jacobian_bracket(fields, j, m, x):
    """Oracle for the Lie bracket by the Jacobian formula:
    [sigma^j, sigma^m] = (d sigma^m) sigma^j - (d sigma^j) sigma^m."""
    return _dsigma_sigma(fields, m, j, x) - _dsigma_sigma(fields, j, m, x)


def assert_same_bits(got, want):
    """Equal values with equal signs, so -0.0 differs from 0.0."""
    np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(np.signbit(got), np.signbit(want))


def with_signed_zeros(values, rng):
    """``values`` with about a fifth of its entries set to 0.0 and a fifth to -0.0."""
    out = np.array(values, dtype=float)
    u = rng.random(out.shape)
    out[u < 0.2] = 0.0
    out[u > 0.8] = -0.0
    return out


def fixed_tiles(tile):
    """A stand-in for ``paths.path_tiles`` that cuts ``tile`` paths per tile."""
    return lambda paths, *_: [slice(p0, min(p0 + tile, paths)) for p0 in range(0, paths, tile)]


def stream(master_seed, path_index, domain=DW_DOMAIN):
    """A fresh generator of one (path, domain) stream, built from its counter
    (domain << 192 | path_index << 128) and the seed's key."""
    if path_index < 0:
        raise ValueError("path_index must be >= 0")
    counter = (int(domain) << 192) | (int(path_index) << 128)
    bitgen = np.random.Philox(counter=counter, key=_philox_key(int(master_seed)))
    return np.random.Generator(bitgen)


# ---------------------------------------------------------------------------
# hand-written closed-form flows of the catalog's fields, on state rows
# (n, paths) with a scalar or per-path time; the derived flows must equal them
# bit for bit
# ---------------------------------------------------------------------------


def _times(t):
    return np.asarray(t, dtype=float)


def _gbm_flows():
    mu, s = GBM_MU, GBM_SIGMA
    rate = mu - 0.5 * s**2
    return {
        0: lambda t, x: np.asarray(x, dtype=float) * np.exp(rate * _times(t)),
        1: lambda t, x: np.asarray(x, dtype=float) * np.exp(s * _times(t)),
    }


def _heisenberg_flow1(t, x):
    out = np.array(x, dtype=float, copy=True)
    out[0] += _times(t)
    return out


def _heisenberg_flow2(t, x):
    out = np.array(x, dtype=float, copy=True)
    out[1] += _times(t) * out[0]
    return out


def _diag_comm_flows():
    a1, a2 = DIAG_A
    theta = DIAG_THETA
    S0 = np.array([[-0.5 * a1**2, theta], [theta, -0.5 * a2**2]])
    lam, Q = np.linalg.eigh(S0)

    def flow0(t, x):
        t = _times(t)
        x = np.asarray(x, dtype=float)
        if t.ndim == 0:
            return ((Q * np.exp(float(t) * lam)) @ Q.T).T @ x
        z = Q.T @ x
        z = z * np.exp(np.multiply.outer(lam, t))
        return Q @ z

    def flow1(t, x):
        out = np.array(x, dtype=float, copy=True)
        out[0] *= np.exp(a1 * _times(t))
        return out

    def flow2(t, x):
        out = np.array(x, dtype=float, copy=True)
        out[1] *= np.exp(a2 * _times(t))
        return out

    return {0: flow0, 1: flow1, 2: flow2}


def _linear_nc_flows():
    k1, k2 = LINNC_K1, LINNC_K2
    decay = -0.5 * (k1**2 + k2**2)

    def flow0(t, x):
        return np.asarray(x, dtype=float) * np.exp(decay * _times(t))

    def flow1(t, x):
        t = _times(t)
        x = np.asarray(x, dtype=float)
        return np.array([x[0] * np.exp(k1 * t), x[1] * np.exp(-k1 * t)])

    def flow2(t, x):
        kt = k2 * _times(t)
        x = np.asarray(x, dtype=float)
        c, s = np.cosh(kt), np.sinh(kt)
        return np.array([x[0] * c + x[1] * s, x[0] * s + x[1] * c])

    return {0: flow0, 1: flow1, 2: flow2}


ORACLE_FLOWS = {
    "gbm1d": _gbm_flows(),
    "heisenberg": {0: lambda t, x: x, 1: _heisenberg_flow1, 2: _heisenberg_flow2},
    "diag-comm": _diag_comm_flows(),
    "linear-nc": _linear_nc_flows(),
}


# ---------------------------------------------------------------------------
# whole-chunk forms of the fine-grid passes that run over path tiles; the
# tiled passes must equal them bit for bit
# ---------------------------------------------------------------------------


def heisenberg_exact_whole_chunk(bundle, N):
    """heisenberg's closed form with one (paths, n_fine) buffer for the chunk."""
    view = coarsen(bundle, N)
    block = bundle.n_fine // N
    states = np.zeros((bundle.paths, N + 1, 2))
    np.cumsum(view.dW[:, :, 0], axis=1, out=states[:, 1:, 0])
    acc = np.empty((bundle.paths, bundle.n_fine))
    acc[:, 0] = 0.0
    np.cumsum(bundle.dW[:, :-1, 0], axis=1, out=acc[:, 1:])
    acc *= bundle.dW[:, :, 1]
    np.cumsum(acc, axis=1, out=acc)
    states[:, 1:, 1] = acc[:, block - 1 :: block]
    return states


def source_term_values_whole_chunk(bundle, mask, scale):
    """The source term's per-path values, with whole-chunk temporaries."""
    N, substeps = mask.shape
    count = bundle.paths
    eta = bundle.eta[:, ::substeps]
    dWm = bundle.dW[:, :, 0].reshape(count, N, substeps)
    dWj = bundle.dW[:, :, 1].reshape(count, N, substeps)
    lag_m = np.zeros_like(dWm)
    lag_m[:, :, 1:] = np.cumsum(dWm[:, :, :-1], axis=2)
    lag_j = np.zeros_like(dWj)
    lag_j[:, :, 1:] = np.cumsum(dWj[:, :, :-1], axis=2)
    per_step_minus = np.einsum("pks,ks->pk", lag_m * dWj, mask)
    per_step_plus = np.einsum("pks,ks->pk", lag_j * dWm, mask)
    return scale * np.sum(np.where(eta < 0, -per_step_minus, per_step_plus), axis=1)


def reference_states(problem, bundle, N):
    """The reference's states (paths, N+1, n) at the N-step grid times, from
    one whole bundle: the closed form or, for a problem without one, the nv
    proxy reference, nv at the bundle's full fine resolution."""
    if problem.exact_solution is not None:
        return trajectory(problem, "exact", bundle, N).states
    return nv_trajectory(problem, bundle, bundle.n_fine).states[:, :: bundle.n_fine // N]


def ladder_rows_whole_chunk(problem, scheme, Ns, refine, paths, master_seed, p=1):
    """The closed-form ladder's per-path values max_k |gap|^{2p}, one column per
    rung, from one bundle of every path at the fine grid."""
    N_max = max(Ns)
    bundle = make_bundle_batch(master_seed, 0, paths, N_max * refine, problem.d, problem.T)
    ref = reference_states(problem, bundle, N_max)
    rungs = coarsen(bundle, N_max)
    out = np.empty((paths, len(Ns)))
    for i, N in enumerate(Ns):
        states = trajectory(problem, scheme, rungs, N).states
        out[:, i] = np.linalg.norm(ref[:, :: N_max // N] - states, axis=2).max(axis=1) ** (2 * p)
    return out


def normalized_errors_whole_chunk(problem, N, refine, paths, master_seed):
    """sqrt(N) (X_T - X^nv_T) per path, from one bundle of every path at the fine grid."""
    bundle = make_bundle_batch(master_seed, 0, paths, N * refine, problem.d, problem.T)
    ref = reference_states(problem, bundle, N)[:, -1]
    nv = trajectory(problem, "nv", bundle, N).terminal()
    return np.sqrt(N) * (ref - nv)


def mlmc_level_whole_bundle(problem, level, paths, master_seed, n0=1):
    """An MLMC level's terminal states from one bundle of every path at the
    level's fine grid (make_bundle_batch): nv's on it and, above level 0,
    nv's on it coarsened to half the steps, as (fine, coarse) arrays
    (paths, n); coarse is None at level 0."""
    n_l = n0 * 2**level
    bundle = make_bundle_batch(master_seed, level * paths, paths, n_l, problem.d, problem.T)
    fine = nv_trajectory(problem, bundle, n_l).terminal()
    return fine, nv_trajectory(problem, bundle, n_l // 2).terminal() if level else None


# ---------------------------------------------------------------------------
# failure reports: an exploding problem, and marches that record every step
# with no finiteness check, in which the first non-finite state is looked up
# ---------------------------------------------------------------------------


def _exploding_exact(problem, bundle, coarse):
    W = np.zeros((coarse.paths, coarse.n_fine + 1, 1))
    np.cumsum(coarse.dW, axis=1, out=W[:, 1:])
    return problem.x0 * np.exp(400.0 * W)


def exploding_problem(x0, closed_form=False):
    """x0 exp(400 W_t), exactly: the Stratonovich drift is zero and the one
    Brownian field's flow multiplies by exp(400 dW), which overflows where
    dW > 1.7745, whatever x0. A fine grid's two flows can stay finite where
    its coarse step's one flow overflows, if x0 is small enough. With
    ``closed_form`` the problem has that closed form."""
    fields = VectorFieldSet.affine(A=np.array([[[400.0**2 / 2]], [[400.0]]]), c=np.zeros((2, 1)))
    exact = _exploding_exact if closed_form else None
    return Problem("exploding", fields, x0=np.array([x0]), T=1.0, exact_solution=exact)


def nv_every_step(problem, bundle, N):
    """nv's states (paths, N + 1, n) on the bundle coarsened to N steps, from
    a plain loop over the kernel that records every step and checks nothing."""
    grid = coarsen(bundle, N)
    x = np.repeat(problem.x0[:, None], grid.paths, axis=1)
    states = [x]
    for k in range(N):
        x = _nv_kernel(problem, x, grid.dW[:, k].T, grid.eta[:, k] > 0, grid.h)
        states.append(x)
    return np.stack(states).transpose(2, 0, 1)


def first_explosion(states):
    """(step, path) of the first non-finite state of states (paths, steps + 1,
    n) recorded at every step: the first step holding one, and that step's
    first non-finite path; None where every state is finite."""
    bad = ~np.isfinite(states).all(axis=2)
    if not bad.any():
        return None
    step = int(np.argmax(bad.any(axis=0)))
    return step, int(np.argmax(bad[:, step]))
