"""One-step maps and trajectory drivers for the simulation schemes.

Schemes (selector strings in parentheses):

* ``nv``          - splitting scheme composing ODE flows: half a drift step,
                    the d Brownian-field flows driven by the step's increments,
                    half a drift step. A Rademacher sign per step picks the
                    sweep direction: +1 applies fields 1..d ascending, -1
                    descending. The operator products are read right to left,
                    i.e. the rightmost flow acts first.
* ``discrete-nv`` - adapted one-step surrogate of ``nv``: a Milstein-type
                    update plus sign-ordered cross terms in place of Levy
                    areas,
                      x + b h + sum_j s^j dW^j
                        + 1/2 sum_j (ds^j s^j) ((dW^j)^2 - h)
                        + sum_{pairs} (ds^j s^m) dW^m dW^j,
                    where the pair sum runs over m < j when the sign is +1 and
                    over m > j when it is -1.
* ``euler``       - Euler-Maruyama baseline.
* ``exact``       - closed-form solution where the catalog has one, otherwise
                    an ``nv`` run at the bundle's full fine resolution, used as
                    a reference proxy and labelled as such.

Worked ordering example (``heisenberg``, fields s1=(1,0), s2=(0,x1), zero
drift): from x=(0,0) with sign +1 the s1 flow acts first, so the step lands on
(dW1, dW1*dW2); with sign -1 the s2 flow acts first on x1=0 and the step lands
on (dW1, 0). Getting these two swapped is the classic ordering bug.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .flows import DEFAULT_FLOW_CONFIG, FlowConfig, FlowExplosionError, flow_unchecked
from .models import Problem
from .paths import CoarseIncrements, GridSpec, PathBundle, coarsen

SCHEME_IDS = ("nv", "discrete-nv", "euler", "exact")


@dataclass(frozen=True)
class StepInputs:
    """One-step data: step size, the d Brownian increments, a sign in {-1,+1}."""

    h: float
    dW: np.ndarray
    eta: int | np.ndarray = 1

    def __post_init__(self):
        if not self.h > 0:
            raise ValueError("step size h must be > 0")


@dataclass(frozen=True)
class Trajectory:
    """Scheme states at the grid times, states[:, k] at time k*h."""

    grid: GridSpec
    states: np.ndarray  # (paths, N+1, n)
    label: str

    @property
    def paths(self) -> int:
        return self.states.shape[0]

    def terminal(self) -> np.ndarray:
        return self.states[:, -1, :]


def _lift(problem: Problem, x, dW, eta):
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    xb = x[None, :] if single else x
    if xb.shape[-1] != problem.n:
        raise ValueError(f"state dimension {xb.shape[-1]} != n={problem.n}")
    dWb = np.asarray(dW, dtype=float)
    if dWb.ndim == 1:
        dWb = np.broadcast_to(dWb, (xb.shape[0], dWb.shape[0]))
    if dWb.shape != (xb.shape[0], problem.d):
        raise ValueError(f"dW must have shape (paths, {problem.d})")
    etab = np.asarray(eta)
    if etab.ndim == 0:
        etab = np.full(xb.shape[0], int(etab), dtype=np.int8)
    return xb, dWb, etab, single


# ---------------------------------------------------------------------------
# one-step maps (batched kernels + public single/batch wrappers)
# ---------------------------------------------------------------------------


def _nv_kernel(problem: Problem, x, dW, eta, h, config: FlowConfig):
    half = 0.5 * h
    x = flow_unchecked(problem, 0, half, x, config)
    d = problem.d
    if d == 1:
        # a single Brownian flow: the two sweep directions coincide
        x = flow_unchecked(problem, 1, dW[:, 0], x, config)
    else:
        plus = eta > 0
        minus = ~plus
        out = np.empty_like(x)
        if plus.any():
            xp = x[plus]
            for j in range(1, d + 1):
                xp = flow_unchecked(problem, j, dW[plus, j - 1], xp, config)
            out[plus] = xp
        if minus.any():
            xm = x[minus]
            for j in range(d, 0, -1):
                xm = flow_unchecked(problem, j, dW[minus, j - 1], xm, config)
            out[minus] = xm
        x = out
    return flow_unchecked(problem, 0, half, x, config)


def _discrete_nv_kernel(problem: Problem, x, dW, eta, h):
    f = problem.fields
    d = problem.d
    sig = [f.sigma[j](x) for j in range(d)]
    jac = [f.jac_sigma[j](x) for j in range(d)]

    def corr(j, m):  # (d sigma^j) sigma^m, 1-based indices
        return np.einsum("...ik,...k->...i", jac[j - 1], sig[m - 1])

    out = x + f.b(x) * h
    for j in range(1, d + 1):
        w = dW[:, j - 1][:, None]
        out = out + sig[j - 1] * w
        out = out + 0.5 * corr(j, j) * (w * w - h)
    if d > 1:
        cross_plus = np.zeros_like(x)
        cross_minus = np.zeros_like(x)
        for j in range(1, d + 1):
            for m in range(1, d + 1):
                if m == j:
                    continue
                term = corr(j, m) * (dW[:, m - 1] * dW[:, j - 1])[:, None]
                if m < j:
                    cross_plus = cross_plus + term
                else:
                    cross_minus = cross_minus + term
        out = out + np.where((eta > 0)[:, None], cross_plus, cross_minus)
    return out


def _euler_kernel(problem: Problem, x, dW, eta, h):
    f = problem.fields
    out = x + f.b(x) * h
    for j in range(problem.d):
        out = out + f.sigma[j](x) * dW[:, j][:, None]
    return out


def _explosion(problem: Problem, label: str, states: np.ndarray, dt: float, path_start=0):
    """The error naming the first recorded step, and its first path, that is non-finite.

    ``states`` is (paths, records, n) with record k at time k * dt.
    """
    bad = ~np.isfinite(states).all(axis=2)
    step = int(np.argmax(bad.any(axis=0)))
    path = path_start + int(np.argmax(bad[:, step]))
    return FlowExplosionError(problem.name, None, step * dt, True, label, step, path)


def _checked(problem: Problem, label: str, x: np.ndarray, y: np.ndarray, h: float) -> np.ndarray:
    if not np.all(np.isfinite(y)):
        raise _explosion(problem, label, np.stack([x, y], axis=1), h)
    return y


def nv_step(problem: Problem, x, step: StepInputs, config: FlowConfig = DEFAULT_FLOW_CONFIG):
    xb, dWb, etab, single = _lift(problem, x, step.dW, step.eta)
    y = _checked(problem, "nv", xb, _nv_kernel(problem, xb, dWb, etab, step.h, config), step.h)
    return y[0] if single else y


def discrete_nv_step(problem: Problem, x, step: StepInputs):
    xb, dWb, etab, single = _lift(problem, x, step.dW, step.eta)
    y = _discrete_nv_kernel(problem, xb, dWb, etab, step.h)
    y = _checked(problem, "discrete-nv", xb, y, step.h)
    return y[0] if single else y


def euler_step(problem: Problem, x, step: StepInputs):
    xb, dWb, etab, single = _lift(problem, x, step.dW, step.eta)
    y = _checked(problem, "euler", xb, _euler_kernel(problem, xb, dWb, etab, step.h), step.h)
    return y[0] if single else y


# ---------------------------------------------------------------------------
# trajectory drivers
# ---------------------------------------------------------------------------


def _march(problem, increments: CoarseIncrements | PathBundle, kernel, label, record_stride=1):
    if isinstance(increments, CoarseIncrements):
        dW, eta, h, steps = increments.dW, increments.eta, increments.h, increments.N
    else:
        dW, eta, h, steps = increments.dW, increments.eta, increments.h, increments.n_fine
    paths = dW.shape[0]
    n_rec = steps // record_stride
    states = np.empty((paths, n_rec + 1, problem.n))
    x = np.broadcast_to(problem.x0, (paths, problem.n)).copy()
    states[:, 0] = x
    for k in range(steps):
        x = kernel(x, dW[:, k, :], eta[:, k], h)
        if (k + 1) % record_stride == 0:
            states[:, (k + 1) // record_stride] = x
    # one explosion check for the whole sweep: non-finite values propagate
    # through every kernel, so the last recorded states carry the evidence
    if not np.all(np.isfinite(x)):
        bundle = getattr(increments, "base", increments)
        raise _explosion(problem, label, states, h * record_stride, bundle.path_start)
    return states


def _check_grid(problem: Problem, bundle: PathBundle, grid: GridSpec):
    if bundle.T != grid.T:
        raise ValueError(f"bundle horizon {bundle.T} != grid horizon {grid.T}")
    if bundle.n_fine % grid.N != 0:
        raise ValueError(f"grid N={grid.N} does not divide bundle N_fine={bundle.n_fine}")


def nv_trajectory(
    problem: Problem, bundle: PathBundle, grid: GridSpec, config: FlowConfig = DEFAULT_FLOW_CONFIG
) -> Trajectory:
    _check_grid(problem, bundle, grid)
    view = coarsen(bundle, grid.N)
    kernel = lambda x, dW, eta, h: _nv_kernel(problem, x, dW, eta, h, config)
    return Trajectory(grid=grid, states=_march(problem, view, kernel, "nv"), label="nv")


def discrete_nv_trajectory(problem: Problem, bundle: PathBundle, grid: GridSpec) -> Trajectory:
    _check_grid(problem, bundle, grid)
    view = coarsen(bundle, grid.N)
    kernel = lambda x, dW, eta, h: _discrete_nv_kernel(problem, x, dW, eta, h)
    states = _march(problem, view, kernel, "discrete-nv")
    return Trajectory(grid=grid, states=states, label="discrete-nv")


def euler_trajectory(problem: Problem, bundle: PathBundle, grid: GridSpec) -> Trajectory:
    _check_grid(problem, bundle, grid)
    view = coarsen(bundle, grid.N)
    kernel = lambda x, dW, eta, h: _euler_kernel(problem, x, dW, eta, h)
    return Trajectory(grid=grid, states=_march(problem, view, kernel, "euler"), label="euler")


def exact_trajectory(
    problem: Problem, bundle: PathBundle, grid: GridSpec, config: FlowConfig = DEFAULT_FLOW_CONFIG
) -> Trajectory:
    """Reference states at the grid times.

    Uses the problem's closed form when available (evaluated from the bundle's
    fine increments, so iterated integrals are resolved at fine resolution);
    otherwise falls back to the splitting scheme at the bundle's full fine
    resolution, which requires the bundle to actually be finer than the grid.
    """
    _check_grid(problem, bundle, grid)
    if problem.exact_solution is not None:
        states = problem.exact_solution(problem, bundle, grid)
        return Trajectory(grid=grid, states=states, label="exact")
    if bundle.n_fine == grid.N:
        raise ValueError(
            f"problem {problem.name!r} has no closed form and the bundle has no "
            "refinement to build a proxy reference from"
        )
    kernel = lambda x, dW, eta, h: _nv_kernel(problem, x, dW, eta, h, config)
    stride = bundle.n_fine // grid.N
    states = _march(problem, bundle, kernel, "nv-proxy", record_stride=stride)
    return Trajectory(grid=grid, states=states, label="nv-proxy")


def trajectory(
    problem: Problem,
    scheme: str,
    bundle: PathBundle,
    grid: GridSpec,
    config: FlowConfig = DEFAULT_FLOW_CONFIG,
) -> Trajectory:
    """Run one scheme by selector string ("nv", "discrete-nv", "euler", "exact")."""
    if scheme == "nv":
        return nv_trajectory(problem, bundle, grid, config)
    if scheme == "discrete-nv":
        return discrete_nv_trajectory(problem, bundle, grid)
    if scheme == "euler":
        return euler_trajectory(problem, bundle, grid)
    if scheme == "exact":
        return exact_trajectory(problem, bundle, grid, config)
    raise KeyError(f"unknown scheme {scheme!r}; known: {', '.join(SCHEME_IDS)}")
