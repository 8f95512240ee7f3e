"""Test-only oracles shared by the test modules.

They live in a module of their own, not in ``conftest.py``, so that the test
modules import them by a name no other suite's conftest shadows when several
test directories are collected in one session.
"""

import numpy as np


def sample_states(problem, count=100, seed=1234, spread=1.0):
    """Fixed random states around the starting point, for algebra oracles."""
    rng = np.random.default_rng(seed)
    return problem.x0[None, :] + spread * rng.standard_normal((count, problem.n))


def _dsigma_sigma(fields, j, m, x):
    """(d sigma^j) sigma^m at x from the coefficient callables, 1-based."""
    return np.einsum("...ik,...k->...i", fields.jac_sigma[j - 1](x), fields.sigma[m - 1](x))


def jacobian_drift(fields, x):
    """Oracle for the Stratonovich drift from the coefficient callables:
    b - 1/2 sum_j (d sigma^j) sigma^j."""
    out = fields.b(x)
    for j in range(1, fields.d + 1):
        out = out - 0.5 * _dsigma_sigma(fields, j, j, x)
    return out


def jacobian_bracket(fields, j, m, x):
    """Oracle for the Lie bracket from the coefficient callables:
    [sigma^j, sigma^m] = (d sigma^m) sigma^j - (d sigma^j) sigma^m."""
    return _dsigma_sigma(fields, m, j, x) - _dsigma_sigma(fields, j, m, x)
