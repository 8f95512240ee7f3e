"""Test-only oracles shared by the test modules.

They live in a module of their own, not in ``conftest.py``, so that the test
modules import them by a name no other suite's conftest shadows when several
test directories are collected in one session.
"""

import numpy as np

from nvlab.catalog import DIAG_A, DIAG_THETA, GBM_MU, GBM_SIGMA, LINNC_K1, LINNC_K2
from nvlab.paths import DW_DOMAIN, _philox_key


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
