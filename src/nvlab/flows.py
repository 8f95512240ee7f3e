"""ODE flow maps exp(t V) x0 for the coefficient fields of a problem.

Every problem registers a closed-form flow for each of its fields 0..d (see
:class:`~nvlab.models.VectorFieldSet`), so a flow evaluation is exact up to
rounding. Times may be negative (Brownian increments have either sign) and
may vary per path.

Flows take states as rows: a batch of states has shape (n, paths), so a flow
reads coordinate i of every path as the contiguous row ``x[i]``, and a time
per path is a vector (paths,) that broadcasts along the rows. A single state
of shape (n,) is a batch of one and works the same way.
"""

from __future__ import annotations

import numpy as np

from .models import Problem


class FlowExplosionError(RuntimeError):
    """A scheme step built from flows produced a non-finite state.

    It names the scheme, the first recorded grid step with a non-finite state
    (``t`` is that step's time) and the first path index with a non-finite
    state at that step.
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
