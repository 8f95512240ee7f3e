import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from nvlab import catalog, get_problem

settings.register_profile(
    "lab",
    deadline=None,
    max_examples=25,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("lab")


@pytest.fixture(scope="session")
def problems():
    return {p.name: p for p in catalog()}


@pytest.fixture(scope="session")
def heisenberg():
    return get_problem("heisenberg")


@pytest.fixture(scope="session")
def gbm():
    return get_problem("gbm1d")


@pytest.fixture(scope="session")
def diag_comm():
    return get_problem("diag-comm")


@pytest.fixture(scope="session")
def linear_nc():
    return get_problem("linear-nc")


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
