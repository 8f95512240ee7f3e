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
