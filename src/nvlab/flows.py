"""ODE flow maps exp(t V) x0 for the coefficient fields of a problem.

Closed-form flows registered by the catalog are used whenever available; the
fallback is classical fixed-step RK4 with enough sub-steps that the ODE error
sits far below the Monte Carlo errors measured anywhere in this package.
Negative flow times (Brownian increments have either sign) are integrated
with a negative step, keeping exact and fallback paths symmetric.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .models import Problem, stratonovich_drift


@dataclass(frozen=True)
class FlowConfig:
    """RK4 fallback controls: step cap and minimum sub-step count."""

    delta_max: float = 0.05
    substeps_min: int = 4


DEFAULT_FLOW_CONFIG = FlowConfig()


@dataclass(frozen=True)
class FlowRequest:
    """Flow evaluation request: field 0 is the Stratonovich drift, 1..d Brownian."""

    field_index: int
    t: float | np.ndarray
    x0: np.ndarray


class FlowExplosionError(RuntimeError):
    """A flow, or a scheme step built from flows, produced a non-finite state.

    Raised by a scheme, it names the scheme, the first recorded grid step with
    a non-finite state (``t`` is that step's time) and the first path index
    with a non-finite state at that step.
    """

    def __init__(
        self,
        problem: str,
        field_index: int | None,
        t,
        exact: bool,
        scheme: str | None = None,
        step: int | None = None,
        path: int | None = None,
    ):
        self.problem = problem
        self.field_index = field_index
        self.t = t
        self.exact = exact
        self.scheme = scheme
        self.step = step
        self.path = path
        if scheme is not None:
            message = (
                f"non-finite state from scheme {scheme!r} on problem {problem!r}: "
                f"first at step {step} (t={t:.3g}), path {path}"
            )
        else:
            kind = "closed-form" if exact else "rk4"
            message = (
                f"non-finite state from {kind} flow of field {field_index} "
                f"on problem {problem!r} (t={np.max(np.abs(t)):.3g} max abs)"
            )
        super().__init__(message)


def field_callable(problem: Problem, field_index: int):
    """The vector field with the given index, as a plain state map."""
    if field_index == 0:
        return lambda x: stratonovich_drift(problem.fields, x)
    return problem.fields.sigma_j(field_index)


def _rk4(V, t, x, config: FlowConfig) -> np.ndarray:
    t = np.asarray(t, dtype=float)
    tmax = float(np.max(np.abs(t))) if t.size else 0.0
    M = max(config.substeps_min, math.ceil(tmax / config.delta_max))
    dt = (t / M)[..., None] if t.ndim else t / M
    x = np.asarray(x, dtype=float)
    for _ in range(M):
        k1 = V(x)
        k2 = V(x + 0.5 * dt * k1)
        k3 = V(x + 0.5 * dt * k2)
        k4 = V(x + dt * k3)
        x = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return x


def flow_unchecked(problem: Problem, field_index: int, t, x, config: FlowConfig):
    """Flow evaluation without the finite-state check (trajectory drivers check
    once per step instead of once per flow)."""
    t_arr = np.asarray(t)
    if t_arr.ndim == 0 and t_arr == 0.0:
        return np.asarray(x, dtype=float)  # flow at time zero is the identity, bit-exact
    exact = problem.fields.exact_flows.get(field_index)
    if exact is not None:
        return exact(t, x)
    return _rk4(field_callable(problem, field_index), t, x, config)


def apply_flow(problem: Problem, field_index: int, t, x, config: FlowConfig = DEFAULT_FLOW_CONFIG):
    """exp(t V_{field_index}) applied to x; t may vary per path."""
    if not 0 <= field_index <= problem.d:
        raise ValueError(f"field_index {field_index} out of range 0..{problem.d}")
    y = flow_unchecked(problem, field_index, t, x, config)
    if not np.all(np.isfinite(y)):
        raise FlowExplosionError(problem.name, field_index, t, field_index in problem.fields.exact_flows)
    return y


def flow(problem: Problem, req: FlowRequest, config: FlowConfig = DEFAULT_FLOW_CONFIG):
    return apply_flow(problem, req.field_index, req.t, req.x0, config)


@dataclass(frozen=True)
class FlowCheckResult:
    """RK4-fallback vs closed-form deviations, per field and overall."""

    max_deviation: float
    per_field: dict[int, float]
    trials: int


def flow_selfcheck(
    problem: Problem,
    trials: int = 200,
    seed: int = 0,
    t_range: float = 0.5,
    config: FlowConfig = DEFAULT_FLOW_CONFIG,
) -> FlowCheckResult:
    """Max deviation of the RK4 fallback from each registered closed form.

    Random (t, x0) draws: t uniform on [-t_range, t_range], x0 a Gaussian
    perturbation of the problem's starting point. Used to calibrate the
    fallback defaults.
    """
    if not problem.fields.exact_flows:
        raise ValueError(f"problem {problem.name!r} has no exact flows to check against")
    rng = np.random.Generator(np.random.Philox(key=np.random.SeedSequence(seed).generate_state(2, np.uint64)))
    ts = rng.uniform(-t_range, t_range, size=trials)
    x0 = problem.x0[None, :] + 0.5 * rng.standard_normal((trials, problem.n))
    per_field = {}
    for idx, exact in sorted(problem.fields.exact_flows.items()):
        ref = exact(ts, x0)
        approx = _rk4(field_callable(problem, idx), ts, x0, config)
        per_field[idx] = float(np.max(np.linalg.norm(np.asarray(ref) - approx, axis=-1)))
    return FlowCheckResult(
        max_deviation=max(per_field.values()), per_field=per_field, trials=trials
    )
