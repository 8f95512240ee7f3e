"""Scheme kernels and trajectory drivers for the simulation schemes.

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
* ``exact``       - closed-form solution, for problems the catalog gives one;
                    without one the reference is :mod:`nvlab.analysis`'s nv
                    proxy, marched at the fine resolution.

States are rows: the scheme layer holds a batch of states as one (n, paths)
array, so coordinate i of every path is the contiguous row ``x[i]``. Every
scheme is one kernel run over the bundle that :func:`~nvlab.paths.coarsen`
gives at the scheme's grid, a step count N on the bundle's horizon T (step
T/N). There is one march, ``_march``, which knows no kernel and reads no
arrays: it applies a step function to state rows, feeding it each step of
the time-major blocks its caller's ``draw()`` returns, and names a failing
step by marching again from a fresh draw. A scheme's draw reads the coarse
bundle through :func:`~nvlab.paths.time_major_blocks`, each block's signs
turned into sweep rows in one call; the limit SDE and the nv proxy
reference (:func:`nv_march`) of :mod:`nvlab.analysis`, and an MLMC level's
two grids (:func:`coupled_terminals`), draw noise one block of steps at a
time (:func:`~nvlab.paths.normal_blocks`). The two grids of a level march
together as stacked state rows, the fine over the coarse, one coarse
step (two fine steps) at a time. A scheme's step hands its kernel the
state rows (n, paths), the step's increments as rows (d, paths) and one
boolean sweep row (paths,), True where the sign is +1. Where the Brownian
flows commute bit for bit (``VectorFieldSet.flows_commute``, derived from the
rows each flow writes and reads: a single field, or diag-comm's fields on
rows of their own) the ``nv`` kernel runs one ascending sweep, whose bits
are those of either order. Otherwise it runs both sweep orders over every
path and keeps one per path with ``np.where`` over whole rows; every flow
acts path by path, so this is bit-identical to sweeping each path alone. A
recorded state is written as one contiguous (n, paths) row of a time-major
record (records, n, paths); :class:`Trajectory` exposes it as (paths,
records, n).

Worked ordering example (``heisenberg``, fields s1=(1,0), s2=(0,x1), zero
drift): from x=(0,0) with sign +1 the s1 flow acts first, so the step lands on
(dW1, dW1*dW2); with sign -1 the s2 flow acts first on x1=0 and the step lands
on (dW1, 0). Getting these two swapped is the classic ordering bug.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .flows import FlowExplosionError, flow_unchecked
from .models import Problem
from .paths import PathBundle, coarsen, time_major_blocks

SCHEME_IDS = ("nv", "discrete-nv", "euler", "exact")


@dataclass(frozen=True)
class Trajectory:
    """Scheme states on an N-step grid, states[:, k] at time k * bundle.T / N.

    ``states`` is (paths, N+1, n). For a marched scheme it is a view of the
    march's time-major rows (N+1, n, paths), so ``states[:, k]`` is the
    transpose of one contiguous row; a closed form returns its own array.
    """

    states: np.ndarray  # (paths, N+1, n)

    def terminal(self) -> np.ndarray:
        return self.states[:, -1, :]


# ---------------------------------------------------------------------------
# one-step kernels, all with the signature (problem, x, dW, plus, h): the
# state rows (n, paths), the step's increments as rows (d, paths), so dW[j - 1]
# drives field j, and the boolean sweep row plus (paths,), True where the sign
# is +1; each returns the next state rows (n, paths)
# ---------------------------------------------------------------------------


def _nv_kernel(problem: Problem, x, dW, plus, h):
    half = 0.5 * h
    x = flow_unchecked(problem, 0, half, x)
    d = problem.d
    if problem.fields.flows_commute:
        # the Brownian flows commute bit for bit, so both sweep orders give
        # the same bits: one ascending sweep serves every path
        for j in range(1, d + 1):
            x = flow_unchecked(problem, j, dW[j - 1], x)
    else:
        # both sweeps over every path, then each path keeps its own: the flows
        # act path by path, so this equals sweeping each path alone
        x_plus = x_minus = x
        for j in range(1, d + 1):
            x_plus = flow_unchecked(problem, j, dW[j - 1], x_plus)
        for j in range(d, 0, -1):
            x_minus = flow_unchecked(problem, j, dW[j - 1], x_minus)
        x = np.where(plus, x_plus, x_minus)
    return flow_unchecked(problem, 0, half, x)


def _discrete_nv_kernel(problem: Problem, x, dW, plus, h):
    f = problem.fields
    sig = [s(x) for s in f.sigma]
    jac = [J(x) for J in f.jac_sigma]

    def corr(j, m):  # (d sigma^j) sigma^m = A_j (A_m x + c_m), 1-based indices
        return jac[j - 1] @ sig[m - 1]

    out = x + f.b(x) * h
    for j in range(1, problem.d + 1):
        w = dW[j - 1]
        out = out + sig[j - 1] * w
        out = out + 0.5 * corr(j, j) * (w * w - h)
    if problem.d > 1:
        # sign +1 sums the cross terms over m < j, sign -1 over m > j
        cross_plus = np.zeros_like(x)
        cross_minus = np.zeros_like(x)
        for j, m in f.pairs:
            w = dW[m - 1] * dW[j - 1]
            cross_plus = cross_plus + corr(j, m) * w
            cross_minus = cross_minus + corr(m, j) * w
        out = out + np.where(plus, cross_plus, cross_minus)
    return out


def _euler_kernel(problem: Problem, x, dW, plus, h):
    f = problem.fields
    out = x + f.b(x) * h
    for j in range(problem.d):
        out = out + f.sigma[j](x) * dW[j]
    return out


# ---------------------------------------------------------------------------
# trajectory drivers
# ---------------------------------------------------------------------------


def _steps(step, x, blocks):
    """``(k, x)`` after each step k = 1, 2, ...: ``x = step(x, *rows)`` on
    step k's rows of the time-major blocks ``(k0, *block)``."""
    for k0, *block in blocks:
        for k, rows in enumerate(zip(*block), start=k0 + 1):
            x = step(x, *rows)
            yield k, x
        # let go of the block before the next is read, so that a source
        # making each block anew never holds two
        block = rows = None


def _march(problem, label, step, x0, draw, paths, steps, h, record_stride=1, path_start=0):
    """Apply ``step(x, *rows)``, which returns new state rows and leaves ``x``
    alone, at every one of ``steps`` steps of ``paths`` paths, from the state
    ``x0`` (rows,) on every path. The records are time-major rows
    (steps // record_stride + 1, rows, paths): record k is the state at step
    k * record_stride, time k * record_stride * h.

    ``draw()`` returns time-major blocks ``(k0, *block)`` in step order, as
    :func:`~nvlab.paths.time_major_blocks` does: ``block_i[k]`` is step
    ``k0 + k``'s (..., paths) row of input i, handed to ``step`` as ``rows``.
    Every call gives the same bits, each stream being a function of the seed
    and the path. This is the one place a failing step is found: finiteness
    is checked once, at the end, and only if that fails does the march run
    again from ``draw()``, checking every step, and raise
    :class:`~nvlab.flows.FlowExplosionError` naming the problem, ``label``,
    the grid N = ``steps``, the first non-finite step and its time, and that
    step's first non-finite path.
    """
    records = np.empty((steps // record_stride + 1, len(x0), paths))
    records[0] = x0[:, None]
    for k, x in _steps(step, records[0], draw()):
        if k % record_stride == 0:
            records[k // record_stride] = x
    # non-finite values propagate through every step, so the last state
    # carries the evidence
    if np.all(np.isfinite(x)):
        return records
    for k, x in _steps(step, records[0], draw()):
        bad = ~np.isfinite(x).all(axis=0)
        if bad.any():
            break
    path = path_start + int(np.argmax(bad))
    raise FlowExplosionError(problem.name, label, steps, k, k * h, path)


def _check_grid(problem: Problem, bundle: PathBundle, N: int):
    if bundle.d != problem.d:
        raise ValueError(
            f"bundle has d={bundle.d} Brownian coordinates, problem has d={problem.d}"
        )
    if N < 1 or bundle.n_fine % N != 0:
        raise ValueError(f"grid N={N} is not a step count dividing N_fine={bundle.n_fine}")


def _march_kernel(problem, kernel, label, draw, paths, steps, h, record_stride, path_start):
    """``kernel`` marched from x0 at step h over ``draw()``'s time-major blocks
    ``(k0, dW rows, sign rows)``, recording every ``record_stride`` steps;
    each block's signs become sweep rows (True where +1) in one call."""

    def step(x, dW_k, plus_k):
        return kernel(problem, x, dW_k, plus_k, h)

    def sweeps():
        return ((k0, dW, eta > 0) for k0, dW, eta in draw())

    x0 = problem.x0
    return _march(problem, label, step, x0, sweeps, paths, steps, h, record_stride, path_start)


def _scheme(problem: Problem, kernel, label: str, bundle: PathBundle, N: int, record_stride=1):
    """The shared driver: ``kernel`` marched on the bundle coarsened to N steps,
    recording every ``record_stride`` steps."""
    _check_grid(problem, bundle, N)
    grid = coarsen(bundle, N)
    draw = partial(time_major_blocks, grid.dW, grid.eta)
    records = _march_kernel(
        problem, kernel, label, draw, grid.paths, N, grid.h, record_stride, grid.path_start
    )
    return Trajectory(states=np.moveaxis(records, -1, 0))


def nv_march(problem: Problem, draw, paths, steps, h, record_stride, path_start=0, label="nv"):
    """The records of nv at step h over the time-major blocks ``(k0, dW
    rows, sign rows)`` of ``steps`` steps that ``draw()`` returns in step
    order, recording every ``record_stride`` steps: the nv proxy reference
    (``"nv-proxy"``) and an MLMC level's grids, on noise drawn a block at a
    time (:func:`~nvlab.paths.normal_blocks`)."""
    return _march_kernel(
        problem, _nv_kernel, label, draw, paths, steps, h, record_stride, path_start
    )


def _pair_sums(first, second):
    """The increments of coarse steps from those of their two fine steps,
    ``np.add(first, 0.0) + second``: the bits of :func:`~nvlab.paths.coarsen`
    summing blocks of two steps at every d, signs of zero included."""
    out = np.add(first, 0.0)
    out += second
    return out


def coarse_blocks(blocks):
    """Time-major blocks ``(k0, dW rows, sign rows)`` of whole pairs of steps,
    each as the block of its coarse steps: coarse step k sums fine steps 2k
    and 2k + 1 (:func:`_pair_sums`) and takes the sign of step 2k, as
    :func:`~nvlab.paths.coarsen` does."""
    for k0, dW, eta in blocks:
        yield k0 // 2, _pair_sums(dW[0::2], dW[1::2]), eta[0::2]


def coupled_terminals(problem: Problem, draw, paths, N, path_start=0) -> np.ndarray:
    """nv's terminal states after N steps of T/N and after N // 2 steps of
    2T/N on the same noise, as rows (2n, paths): the fine states over the
    coarse ones.

    ``draw()`` returns time-major blocks ``(k0, dW rows, sign rows)`` of the
    N fine steps, each holding whole pairs of steps. The march takes one
    coarse step at a time on both grids, stacked as rows: two fine steps,
    and one coarse step on their summed increments (:func:`_pair_sums`) with
    the sign of the first, so each grid has the bits of its own march on
    the coarsened bundle. Only the terminal states are recorded; a
    non-finite state raises :class:`~nvlab.flows.FlowExplosionError`, which
    names the first coarse step where either grid is non-finite.
    """
    n = problem.n
    steps = N // 2
    h, h_coarse = problem.T / N, problem.T / steps

    def step(s, dW_pair, plus_pair):
        out = np.empty_like(s)
        fine = _nv_kernel(problem, s[:n], dW_pair[0], plus_pair[0], h)
        out[:n] = _nv_kernel(problem, fine, dW_pair[1], plus_pair[1], h)
        dW = _pair_sums(dW_pair[0], dW_pair[1])
        out[n:] = _nv_kernel(problem, s[n:], dW, plus_pair[0], h_coarse)
        return out

    def pairs():
        # each block's steps in pairs, and its signs as sweep rows in one call
        return (
            (k0 // 2, dW.reshape(len(dW) // 2, 2, *dW.shape[1:]), (eta > 0).reshape(-1, 2, paths))
            for k0, dW, eta in draw()
        )

    x0 = np.concatenate([problem.x0, problem.x0])
    return _march(problem, "nv", step, x0, pairs, paths, steps, h_coarse, steps, path_start)[-1]


def nv_trajectory(problem: Problem, bundle: PathBundle, N: int) -> Trajectory:
    return _scheme(problem, _nv_kernel, "nv", bundle, N)


def nv_terminal(problem: Problem, bundle: PathBundle, N: int) -> np.ndarray:
    """nv's terminal states (paths, n) at N steps on the bundle: its march
    records no other state."""
    return _scheme(problem, _nv_kernel, "nv", bundle, N, record_stride=N).terminal()


def discrete_nv_trajectory(problem: Problem, bundle: PathBundle, N: int) -> Trajectory:
    return _scheme(problem, _discrete_nv_kernel, "discrete-nv", bundle, N)


def exact_trajectory(problem: Problem, bundle: PathBundle, N: int) -> Trajectory:
    """The problem's closed form at the times of the N-step grid, evaluated
    from the bundle's fine increments, so iterated integrals are resolved at
    fine resolution. A problem without one (whose reference is the nv proxy
    of :mod:`nvlab.analysis`) is refused."""
    _check_grid(problem, bundle, N)
    if problem.exact_solution is None:
        raise ValueError(f"problem {problem.name!r} has no closed form")
    return Trajectory(states=problem.exact_solution(problem, bundle, coarsen(bundle, N)))


def trajectory(problem: Problem, scheme: str, bundle: PathBundle, N: int) -> Trajectory:
    """Run one scheme by selector string ("nv", "discrete-nv", "euler", "exact") at N steps."""
    # the named drivers are looked up as module globals on every call, so a
    # rebinding of them (tracing, say) also covers calls made through here
    if scheme == "nv":
        return nv_trajectory(problem, bundle, N)
    if scheme == "discrete-nv":
        return discrete_nv_trajectory(problem, bundle, N)
    if scheme == "euler":
        return _scheme(problem, _euler_kernel, "euler", bundle, N)
    if scheme == "exact":
        return exact_trajectory(problem, bundle, N)
    raise KeyError(f"unknown scheme {scheme!r}; known: {', '.join(SCHEME_IDS)}")
