"""Catalog of test problems with known structure.

Every problem is affine: it declares its matrices A_k and offsets c_k (index
0 the Ito drift), from which :meth:`VectorFieldSet.affine` builds the fields
and their constant Jacobians, and it ships closed-form flows, so scheme and
limit-law studies are anchored on exact algebra; finite differences only ever
appear as test oracles. The four problems cover the interesting corners:

* ``gbm1d``      - scalar geometric Brownian motion; the splitting scheme
                   solves it exactly, which pins down scheme plumbing.
* ``heisenberg`` - constant + nilpotent fields with constant bracket (0, -1);
                   the simplest genuinely non-commutative problem, solvable in
                   closed form (X1 = W^1, X2 = int W^1 dW^2).
* ``diag-comm``  - commuting diagonal-linear Brownian fields with a coupling
                   drift; the scheme is inexact but converges with order 1.
* ``linear-nc``  - non-commuting linear fields with matrix-exponential flows.
"""

from __future__ import annotations

import numpy as np

from .models import Problem, VectorFieldSet
from .paths import PathBundle, coarsen


def _times(t):
    return np.asarray(t, dtype=float)


# ---------------------------------------------------------------------------
# gbm1d
# ---------------------------------------------------------------------------

GBM_MU = 0.1
GBM_SIGMA = 0.5


def _gbm_exact(problem: Problem, bundle: PathBundle, N: int) -> np.ndarray:
    """x0 * exp((mu - s^2/2) t_k + s W_{t_k}) on the N-step grid."""
    view = coarsen(bundle, N)
    W = np.concatenate(
        [np.zeros((bundle.paths, 1)), np.cumsum(view.dW[:, :, 0], axis=1)], axis=1
    )
    rate = GBM_MU - 0.5 * GBM_SIGMA**2
    times = np.arange(N + 1) * (bundle.T / N)  # the grid times, t_k = k T / N
    states = problem.x0[0] * np.exp(rate * times[None, :] + GBM_SIGMA * W)
    return states[:, :, None]


def _make_gbm1d() -> Problem:
    mu, s = GBM_MU, GBM_SIGMA
    rate = mu - 0.5 * s**2
    fields = VectorFieldSet.affine(
        A=[[[mu]], [[s]]],
        c=np.zeros((2, 1)),
        exact_flows={
            0: lambda t, x: np.asarray(x, dtype=float) * np.exp(rate * _times(t)),
            1: lambda t, x: np.asarray(x, dtype=float) * np.exp(s * _times(t)),
        },
    )
    return Problem(
        name="gbm1d",
        fields=fields,
        x0=np.array([1.0]),
        T=1.0,
        exact_solution=_gbm_exact,
        description="scalar geometric Brownian motion, mu=0.1, sigma=0.5",
    )


# ---------------------------------------------------------------------------
# heisenberg
# ---------------------------------------------------------------------------


def _heisenberg_exact(problem: Problem, bundle: PathBundle, N: int) -> np.ndarray:
    """X1 = W^1; X2 = int W^1 dW^2 as a left-point Ito sum on the fine grid.

    X1 is accumulated from the coarse increments in step order, which matches
    the scheme's additions bit for bit. X2 needs the fine resolution: the
    within-step iterated integral is exactly what the scheme cannot see.
    """
    view = coarsen(bundle, N)
    block = bundle.n_fine // N
    states = np.zeros((bundle.paths, N + 1, 2))
    np.cumsum(view.dW[:, :, 0], axis=1, out=states[:, 1:, 0])
    # one fine-resolution buffer: left-point W^1, then W^1 dW^2, then its running sum
    acc = np.empty((bundle.paths, bundle.n_fine))
    acc[:, 0] = 0.0
    np.cumsum(bundle.dW[:, :-1, 0], axis=1, out=acc[:, 1:])
    acc *= bundle.dW[:, :, 1]
    np.cumsum(acc, axis=1, out=acc)
    states[:, 1:, 1] = acc[:, block - 1 :: block]
    return states


def _heisenberg_flow1(t, x):
    out = np.array(x, dtype=float, copy=True)
    out[0] += _times(t)
    return out


def _heisenberg_flow2(t, x):
    out = np.array(x, dtype=float, copy=True)
    out[1] += _times(t) * out[0]
    return out


def _make_heisenberg() -> Problem:
    zero2 = np.zeros(2)
    # s1 = (1, 0), s2 = (0, x1), zero drift
    fields = VectorFieldSet.affine(
        A=[np.zeros((2, 2)), np.zeros((2, 2)), [[0.0, 0.0], [1.0, 0.0]]],
        c=[[0.0, 0.0], [1.0, 0.0], [0.0, 0.0]],
        exact_flows={
            0: lambda t, x: x,  # drift vanishes identically
            1: _heisenberg_flow1,
            2: _heisenberg_flow2,
        },
    )
    return Problem(
        name="heisenberg",
        fields=fields,
        x0=zero2,
        T=1.0,
        exact_solution=_heisenberg_exact,
        description="nilpotent non-commutative pair, bracket [s2,s1] = (0,-1)",
    )


# ---------------------------------------------------------------------------
# diag-comm
# ---------------------------------------------------------------------------

DIAG_A = (0.6, 0.4)
DIAG_THETA = 0.5


def _make_diag_comm() -> Problem:
    a1, a2 = DIAG_A
    theta = DIAG_THETA
    # Stratonovich drift is the symmetric matrix field S0 x.
    S0 = np.array([[-0.5 * a1**2, theta], [theta, -0.5 * a2**2]])
    lam, Q = np.linalg.eigh(S0)
    prop_cache: dict[float, np.ndarray] = {}

    def flow0(t, x):
        t = _times(t)
        x = np.asarray(x, dtype=float)
        if t.ndim == 0:
            # drift flows run at a fixed half-step; cache the 2x2 propagator
            key = float(t)
            P = prop_cache.get(key)
            if P is None:
                if len(prop_cache) > 64:
                    prop_cache.clear()
                # M is symmetric only up to rounding: the transposed view
                # applies it to rows as x @ M applies it to path-major states
                M = (Q * np.exp(key * lam)) @ Q.T
                P = prop_cache[key] = M.T
            return P @ x
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

    fields = VectorFieldSet.affine(
        A=[[[0.0, theta], [theta, 0.0]], [[a1, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, a2]]],
        c=np.zeros((3, 2)),
        exact_flows={0: flow0, 1: flow1, 2: flow2},
    )
    return Problem(
        name="diag-comm",
        fields=fields,
        x0=np.array([1.0, 1.0]),
        T=1.0,
        exact_solution=None,
        description="commuting diagonal-linear noise with a coupling drift",
    )


# ---------------------------------------------------------------------------
# linear-nc
# ---------------------------------------------------------------------------

LINNC_K1 = 0.5
LINNC_K2 = 0.4


def _make_linear_nc() -> Problem:
    k1, k2 = LINNC_K1, LINNC_K2
    A1 = np.array([[k1, 0.0], [0.0, -k1]])
    A2 = np.array([[0.0, k2], [k2, 0.0]])
    decay = -0.5 * (k1**2 + k2**2)  # A1^2 + A2^2 = (k1^2 + k2^2) I

    def flow0(t, x):
        return np.asarray(x, dtype=float) * np.exp(decay * _times(t))

    # np.array stacks the new rows at a third of np.stack's call overhead
    def flow1(t, x):
        t = _times(t)
        x = np.asarray(x, dtype=float)
        return np.array([x[0] * np.exp(k1 * t), x[1] * np.exp(-k1 * t)])

    def flow2(t, x):
        kt = k2 * _times(t)
        x = np.asarray(x, dtype=float)
        c, s = np.cosh(kt), np.sinh(kt)
        return np.array([x[0] * c + x[1] * s, x[0] * s + x[1] * c])

    fields = VectorFieldSet.affine(
        A=[np.zeros((2, 2)), A1, A2],
        c=np.zeros((3, 2)),
        exact_flows={0: flow0, 1: flow1, 2: flow2},
    )
    return Problem(
        name="linear-nc",
        fields=fields,
        x0=np.array([1.0, 0.5]),
        T=1.0,
        exact_solution=None,
        description="non-commuting linear fields, matrix-exponential flows",
    )


_BUILDERS = {
    "gbm1d": _make_gbm1d,
    "heisenberg": _make_heisenberg,
    "diag-comm": _make_diag_comm,
    "linear-nc": _make_linear_nc,
}

PROBLEM_IDS = tuple(_BUILDERS)

_CACHE: dict[str, Problem] = {}


def get_problem(name: str) -> Problem:
    if name not in _BUILDERS:
        raise KeyError(f"unknown problem {name!r}; known: {', '.join(PROBLEM_IDS)}")
    if name not in _CACHE:
        _CACHE[name] = _BUILDERS[name]()
    return _CACHE[name]


def catalog() -> list[Problem]:
    """All catalog problems, in registry order."""
    return [get_problem(name) for name in PROBLEM_IDS]
