"""SDE problem definitions: affine coefficient fields and derived quantities.

An Ito SDE  dX = b(X) dt + sum_j sigma^j(X) dW^j  is described by a
:class:`VectorFieldSet`. Every field is affine: sigma^k(x) = A_k x + c_k, with
index 0 the Ito drift b, so a problem is the matrices A of shape (d+1, n, n)
and the offsets c of shape (d+1, n). The coefficient callables and each
field's flow exp(t sigma^k) (identity, translation, diagonal, nilpotent,
involution or symmetric; see :mod:`nvlab.flows`) are built from them. Like
the rest of the scheme layer the callables take states as rows (n, paths), a
single state as an (n, 1) column, and return values of the same shape; the
Jacobian callable of field k returns the constant (n, n) matrix A_k, entry
(i, l) = d sigma^{i k} / d x_l.

Derived quantities follow the Stratonovich calculus conventions used by
splitting schemes, and for affine fields they are affine too:

* drift after Ito -> Stratonovich conversion (field 0 of the flows):
  sigma^0 = b - 1/2 sum_j (d sigma^j) sigma^j
          = (A_0 - 1/2 sum_j A_j^2) x + c_0 - 1/2 sum_j A_j c_j
* Lie bracket of two Brownian fields, the matrices (C, e) that
  :meth:`VectorFieldSet.bracket_matrices` returns:
  [sigma^j, sigma^m] = (d sigma^m) sigma^j - (d sigma^j) sigma^m
                     = (A_m A_j - A_j A_m) x + A_m c_j - A_j c_m

Brownian field indices are 1-based throughout the public API (index 0 is
reserved for the drift), matching the usual notation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional

import numpy as np

from .flows import FlowMap, affine_flow

Field = Callable[[np.ndarray], np.ndarray]
MatrixField = Callable[[np.ndarray], np.ndarray]

# Desk scale: keeps catalog problems cheap and rules out accidental misuse.
MAX_DIMENSION = 16


def _affine_field(M: np.ndarray, v: np.ndarray) -> Field:
    return lambda x: M @ x + v[:, None]


def _constant_jacobian(M: np.ndarray) -> MatrixField:
    return lambda x: M


@dataclass(frozen=True)
class VectorFieldSet:
    """Affine drift and Brownian fields, their callables and closed-form flows.

    A[k] and c[k] define field k (0 = Ito drift b, 1..d = Brownian fields);
    build instances with :meth:`affine`, which derives the callables on state
    rows (n, paths) from them. exact_flows, derived from (A, c) at
    construction, maps each field index (0 = Stratonovich drift, 1..d =
    Brownian fields) to the flow map (t, x0) -> exp(t V) x0 of that field,
    vectorized over both a batch of states, as rows (n, paths), and a per-path
    vector of times (see :mod:`nvlab.flows`).

    flows_commute, derived with the flows, is True when every pair of
    Brownian flows commutes bit for bit: neither flow writes a state row the
    other reads or writes, by the footprints :func:`~nvlab.flows.affine_flow`
    reports. Then both nv sweep orders give the same bits, and a single
    Brownian field always qualifies.
    """

    A: np.ndarray
    c: np.ndarray
    b: Field
    sigma: tuple[Field, ...]
    jac_b: MatrixField
    jac_sigma: tuple[MatrixField, ...]
    exact_flows: Mapping[int, FlowMap] = field(init=False, repr=False, compare=False)
    flows_commute: bool = field(init=False, repr=False, compare=False)

    @classmethod
    def affine(cls, A, c) -> "VectorFieldSet":
        """Fields sigma^k(x) = A[k] x + c[k] with their constant Jacobians."""
        A = np.array(A, dtype=float)
        c = np.array(c, dtype=float)
        A.flags.writeable = c.flags.writeable = False
        # zip stops at the shorter array; __post_init__ rejects mismatched shapes
        fields = [_affine_field(M, v) for M, v in zip(A, c)]
        jacobians = [_constant_jacobian(M) for M in A]
        return cls(
            A=A,
            c=c,
            b=fields[0],
            sigma=tuple(fields[1:]),
            jac_b=jacobians[0],
            jac_sigma=tuple(jacobians[1:]),
        )

    def __post_init__(self):
        if self.A.ndim != 3 or self.A.shape[1:] != (self.n, self.n):
            raise ValueError(f"A must have shape (d+1, n, n), got {self.A.shape}")
        if self.c.shape != self.A.shape[:2]:
            raise ValueError(f"c must have shape {self.A.shape[:2]}, got {self.c.shape}")
        if not (1 <= self.n <= MAX_DIMENSION and 1 <= self.d <= MAX_DIMENSION):
            raise ValueError(f"dimensions must be in [1, {MAX_DIMENSION}]")
        if len(self.sigma) != self.d or len(self.jac_sigma) != self.d:
            raise ValueError("need exactly d Brownian fields and d Jacobians")
        A, c, brownian = self.A, self.c, range(1, self.d + 1)
        M0 = A[0] - 0.5 * sum(A[j] @ A[j] for j in brownian)  # the Stratonovich drift
        v0 = c[0] - 0.5 * sum(A[j] @ c[j] for j in brownian)
        derived = {0: affine_flow(M0, v0, "field 0 (the Stratonovich drift)")}
        derived.update((k, affine_flow(A[k], c[k], f"field {k}")) for k in brownian)
        object.__setattr__(self, "exact_flows", {k: flow for k, (flow, _, _) in derived.items()})
        footprints = [derived[k][1:] for k in brownian]  # (writes, reads) of each flow
        commute = all(
            not (writes & (writes_m | reads_m) or writes_m & reads)
            for i, (writes, reads) in enumerate(footprints)
            for writes_m, reads_m in footprints[:i]
        )
        object.__setattr__(self, "flows_commute", commute)

    @property
    def n(self) -> int:
        return self.A.shape[-1]

    @property
    def d(self) -> int:
        return self.A.shape[0] - 1

    @property
    def pairs(self) -> tuple[tuple[int, int], ...]:
        """The Brownian pairs (j, m), 1-based with m < j, ascending in j, then m."""
        return tuple((j, m) for j in range(2, self.d + 1) for m in range(1, j))

    def bracket_matrices(self, j: int, m: int) -> tuple[np.ndarray, np.ndarray]:
        """(C, e) with [sigma^j, sigma^m](x) = C x + e, 1-based, m < j."""
        if not 1 <= m < j <= self.d:
            raise ValueError(f"need 1 <= m < j <= d, got j={j}, m={m}, d={self.d}")
        A, c = self.A, self.c
        return A[m] @ A[j] - A[j] @ A[m], A[m] @ c[j] - A[j] @ c[m]


@dataclass(frozen=True)
class BracketTable:
    """All pairwise Brownian-field brackets, keyed by (j, m) with m < j."""

    entries: Mapping[tuple[int, int], Field]


def build_bracket_table(fields: VectorFieldSet) -> BracketTable:
    def make(j, m):
        C, e = fields.bracket_matrices(j, m)
        return lambda x: C @ x + e[:, None]

    return BracketTable(entries={p: make(*p) for p in fields.pairs})


# exact_solution signature: (problem, bundle, coarse) -> states (paths, N+1, n)
# at the grid times of ``coarse``, the bundle coarsened to N steps, from the
# bundle's fine increments and the coarse ones.
ExactSolution = Callable[["Problem", "object", "object"], np.ndarray]


@dataclass(frozen=True)
class Problem:
    """A catalog SDE problem: coefficients plus everything tests can anchor on."""

    name: str
    fields: VectorFieldSet
    x0: np.ndarray
    T: float
    exact_solution: Optional[ExactSolution] = None

    def __post_init__(self):
        x0 = np.asarray(self.x0, dtype=float)
        if x0.shape != (self.fields.n,):
            raise ValueError(f"x0 must have shape ({self.fields.n},)")
        if not self.T > 0:
            raise ValueError("horizon T must be > 0")
        object.__setattr__(self, "x0", x0)

    @property
    def n(self) -> int:
        return self.fields.n

    @property
    def d(self) -> int:
        return self.fields.d

    @property
    def commutative(self) -> bool:
        """True when every Brownian pair's bracket matrices (C, e) are exactly zero.

        This is the mathematical property: the fields commute, so the paper's
        limit error vanishes. The nv kernel's single sweep rests instead on
        the stricter :attr:`VectorFieldSet.flows_commute`, from the flows' row
        footprints, since flows of commuting fields can still round
        differently in the two orders.
        """
        f = self.fields
        return not any(M.any() for p in f.pairs for M in f.bracket_matrices(*p))

    def descriptor(self) -> dict:
        """JSON-ready summary used by the CLI problem listing."""
        return {
            "id": self.name,
            "n": self.n,
            "d": self.d,
            "T": self.T,
            "x0": self.x0.tolist(),
            "commutative_flag": self.commutative,
        }
