"""Test-only oracles shared by the test modules.

They live in a module of their own, not in ``conftest.py``, so that the test
modules import them by a name no other suite's conftest shadows when several
test directories are collected in one session.
"""

import numpy as np

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
