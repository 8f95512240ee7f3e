"""ODE flow maps exp(t V) x0 for the coefficient fields of a problem.

Every field is affine, V(x) = M x + v, and :func:`affine_flow` derives its flow
from (M, v) in closed form, picked by structure in this order:

1. M = 0 and v = 0: the identity, which returns ``x``;
2. M = 0: x + t v;
3. M diagonal and v = 0: x * exp(M_ii t);
4. M^2 = 0 and v = 0: x + t M x;
5. M^2 = lam I, lam > 0, v = 0: cosh(k t) x + sinh(k t) (M / k) x, k = sqrt(lam);
6. M symmetric and v = 0: Q diag(exp(lam t)) Q^T x from M's eigh.

A field that fits no case is refused. Products are row-sparse: a row whose
entry in M (or v) is 0 is copied, and a product sums only its row's non-zero
entries, which keeps the signs of zero states. Times may be negative and may
vary per path. States are rows: a batch (n, paths) holds coordinate i of
every path in the contiguous row ``x[i]``, a per-path time (paths,)
broadcasts along the rows, and a single state (n,) works the same way.

Each case also reports its flow's footprint: the state rows the flow writes,
and the rows those written rows are computed from (its reads). A row it does
not write comes back bit-exact, and a written row depends on its reads and
the time alone:

1. the identity writes and reads no row;
2. a translation writes the rows with v_i != 0, each reading only itself,
   to which it adds t v_i;
3. a diagonal flow writes the rows with M_ii != 0, each reading only itself;
4. a nilpotent flow writes the rows of M with a non-zero entry, reading
   those rows and M's non-zero columns;
5. and 6. an involution or a symmetric flow writes and reads every row.

So two flows of which neither writes a row the other reads or writes give
the same bits in either order.
"""

from __future__ import annotations

import functools
import math
from typing import TYPE_CHECKING, Callable

import numpy as np

if TYPE_CHECKING:
    from .models import Problem

FlowMap = Callable[[np.ndarray | float, np.ndarray], np.ndarray]


class FlowExplosionError(RuntimeError):
    """A marched step produced a non-finite state.

    It names the scheme (or the limit SDE, whose driver re-raises it as a
    :class:`FloatingPointError`), the first recorded grid step with a
    non-finite state (``t`` is that step's time) and the first path index
    with a non-finite state at that step.
    """

    def __init__(self, problem: str, t: float, scheme: str, step: int, path: int):
        self.problem = problem
        self.t = t
        self.scheme = scheme
        self.step = step
        self.path = path
        super().__init__(
            f"non-finite state from scheme {scheme!r} on problem {problem!r}: "
            f"first at step {step} (t={t:.3g}), path {path}"
        )


def flow_unchecked(problem: Problem, field_index: int, t, x):
    """Flow evaluation without the finite-state check (trajectory drivers check
    once per step instead of once per flow)."""
    if (not isinstance(t, np.ndarray) or t.ndim == 0) and t == 0.0:
        return np.asarray(x, dtype=float)  # flow at time zero is the identity, bit-exact
    return problem.fields.exact_flows[field_index](t, x)


def _sparse_rows(M: np.ndarray) -> list:
    """For each row i of M, the list of its non-zero entries (j, M_ij)."""
    return [[(j, float(row[j])) for j in np.flatnonzero(row)] for row in M]


def _dot(terms, x):
    """(M x)_i from row i's non-zero entries (j, M_ij), summed in column order.
    An entry of 1.0 adds x_j itself: a product by 1.0 changes no bit."""
    out = None
    for j, m in terms:
        term = x[j] if m == 1.0 else m * x[j]
        out = term if out is None else out + term
    return out


def _linear_in_time(M: np.ndarray, v: np.ndarray) -> FlowMap:
    """x + t (M x + v), the flow when M (M x + v) = 0: a translation (M = 0) or
    a nilpotent M (M^2 = 0) with v = 0, so each row has terms or v_i, not both."""
    rows = [(i, terms, float(v[i])) for i, terms in enumerate(_sparse_rows(M)) if terms or v[i]]

    def flow(t, x):
        x = np.asarray(x, dtype=float)
        out = x.copy()
        for i, terms, vi in rows:
            if terms:
                out[i] += t * _dot(terms, x)
            else:
                out[i] += t if vi == 1.0 else t * vi  # a product by 1.0 changes no bit
        return out

    return flow


def _diagonal(M: np.ndarray) -> FlowMap:
    """x_i exp(M_ii t), with one exp per distinct non-zero rate M_ii."""
    rows_of = {}
    for i in np.flatnonzero(np.diag(M)):
        rows_of.setdefault(float(M[i, i]), []).append(i)
    rates = list(rows_of.items())

    def flow(t, x):
        t, out = np.asarray(t, dtype=float), np.array(x, dtype=float, copy=True)
        for m, rows in rates:
            growth = np.exp(m * t)
            for i in rows:
                out[i] *= growth
        return out

    return flow


def _involution(M: np.ndarray, k: float) -> FlowMap:
    rows = _sparse_rows(M / k)  # (M / k)^2 = I, so no row is zero

    def flow(t, x):
        x, kt = np.asarray(x, dtype=float), k * np.asarray(t, dtype=float)
        c, s = np.cosh(kt), np.sinh(kt)
        return np.array([c * x[i] + s * _dot(terms, x) for i, terms in enumerate(rows)])

    return flow


def _symmetric(M: np.ndarray) -> FlowMap:
    lam, Q = np.linalg.eigh(M)

    @functools.lru_cache(maxsize=64)
    def propagator(t: float) -> np.ndarray:
        # symmetric only up to rounding: the transpose applies it to rows as
        # x @ P applies it to path-major states
        return ((Q * np.exp(t * lam)) @ Q.T).T

    def flow(t, x):
        t, x = np.asarray(t, dtype=float), np.asarray(x, dtype=float)
        if t.ndim == 0:
            return propagator(float(t)) @ x  # drift flows run at a fixed half-step
        return Q @ ((Q.T @ x) * np.exp(np.multiply.outer(lam, t)))

    return flow


def _rows(mask: np.ndarray) -> frozenset[int]:
    return frozenset(int(i) for i in np.flatnonzero(mask))


def affine_flow(
    M: np.ndarray, v: np.ndarray, field: str
) -> tuple[FlowMap, frozenset[int], frozenset[int]]:
    """The flow (t, x) -> exp(t V) x of V(x) = M x + v in the first structural
    case it fits, with its footprint: ``(flow, writes, reads)``, the state rows
    the flow writes and the rows those are computed from, as frozensets.
    ``field`` names V in the error when it fits no case."""
    if not M.any():
        if not v.any():
            return (lambda t, x: x), frozenset(), frozenset()
        written = _rows(v)
        return _linear_in_time(M, v), written, written
    if v.any():
        raise ValueError(f"{field}: no closed-form flow for M != 0 with an offset v != 0")
    if not (M - np.diag(np.diag(M))).any():
        written = _rows(np.diag(M))
        return _diagonal(M), written, written
    M2 = M @ M
    if not M2.any():
        written = _rows(M.any(axis=1))
        return _linear_in_time(M, v), written, written | _rows(M.any(axis=0))
    every = frozenset(range(len(M)))
    if M2[0, 0] > 0 and not (M2 - M2[0, 0] * np.eye(len(M))).any():
        return _involution(M, math.sqrt(M2[0, 0])), every, every
    if (M == M.T).all():
        return _symmetric(M), every, every
    raise ValueError(f"{field}: no closed-form flow for M = {M.tolist()}, which fits no case")
