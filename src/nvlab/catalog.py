"""Catalog of test problems with known structure.

Every problem is affine: it declares only its matrices A_k and offsets c_k
(index 0 the Ito drift), from which :meth:`VectorFieldSet.affine` builds the
fields, their constant Jacobians and their closed-form flows, derived by
structure (identity, translation, diagonal, nilpotent, involution or
symmetric; see :mod:`nvlab.flows`), plus, where one exists, its closed-form
solution. Scheme and limit-law studies are thus anchored on exact algebra;
finite differences only ever appear as test oracles. The four problems cover
the interesting corners:

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
    fields = VectorFieldSet.affine(A=[[[GBM_MU]], [[GBM_SIGMA]]], c=np.zeros((2, 1)))
    return Problem("gbm1d", fields, x0=np.array([1.0]), T=1.0, exact_solution=_gbm_exact)


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


def _make_heisenberg() -> Problem:
    # s1 = (1, 0), s2 = (0, x1), zero drift
    fields = VectorFieldSet.affine(
        A=[np.zeros((2, 2)), np.zeros((2, 2)), [[0.0, 0.0], [1.0, 0.0]]],
        c=[[0.0, 0.0], [1.0, 0.0], [0.0, 0.0]],
    )
    return Problem("heisenberg", fields, x0=np.zeros(2), T=1.0, exact_solution=_heisenberg_exact)


# ---------------------------------------------------------------------------
# diag-comm
# ---------------------------------------------------------------------------

DIAG_A = (0.6, 0.4)
DIAG_THETA = 0.5


def _make_diag_comm() -> Problem:
    (a1, a2), theta = DIAG_A, DIAG_THETA
    # the Stratonovich drift is S0 x, S0 = [[-a1^2 / 2, theta], [theta, -a2^2 / 2]]
    fields = VectorFieldSet.affine(
        A=[[[0.0, theta], [theta, 0.0]], [[a1, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, a2]]],
        c=np.zeros((3, 2)),
    )
    return Problem("diag-comm", fields, x0=np.array([1.0, 1.0]), T=1.0)


# ---------------------------------------------------------------------------
# linear-nc
# ---------------------------------------------------------------------------

LINNC_K1 = 0.5
LINNC_K2 = 0.4


def _make_linear_nc() -> Problem:
    k1, k2 = LINNC_K1, LINNC_K2
    # A1^2 = k1^2 I and A2^2 = k2^2 I: the Stratonovich drift -(k1^2 + k2^2) x / 2
    A = [np.zeros((2, 2)), [[k1, 0.0], [0.0, -k1]], [[0.0, k2], [k2, 0.0]]]
    fields = VectorFieldSet.affine(A=A, c=np.zeros((3, 2)))
    return Problem("linear-nc", fields, x0=np.array([1.0, 0.5]), T=1.0)


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
