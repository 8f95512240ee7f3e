"""Multilevel Monte Carlo on the splitting scheme, with level-variance profiling.

Levels use N_l = N0 * 2^l steps. The level-l correction couples the scheme at
N_l and N_{l-1} on the same noise (the coarse run consumes the summed
increments and inherits the sign of the first fine sub-step), which is what
makes the correction variance decay like 2^(-beta l) with beta twice the
strong order for Lipschitz payoffs. Sample counts per level are fixed, not
adaptive: the quantity under test is beta, and adaptive allocation would just
add noise to it.

A level's chunk draws its noise once, straight into time-major blocks
(:func:`~nvlab.paths.normal_blocks`), and marches both grids over those
blocks together (:func:`~nvlab.schemes.coupled_terminals`), recording only
their terminal states; the values are those of the scheme on the chunk's
bundle, coarsened for the coarse grid. A chunk therefore holds about one
block of noise and a few states a path, whatever the level.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from .flows import FlowExplosionError
from .models import Problem
from .paths import DW_DOMAIN, ETA_DOMAIN, noise_block, normal_blocks
from .schemes import coarse_blocks, coupled_terminals, nv_march
from .util import run_paths

Payoff = Callable[[np.ndarray], np.ndarray]

_CALL_RE = re.compile(r"^call\((?P<strike>[-+0-9.eE]+)\)$")

BETA_MIN_LEVEL = 2


def parse_payoff(name: str, n: int) -> Payoff:
    """Payoff registry: coord1, coord2, norm2, call(K). Terminal-state maps."""
    if name == "coord1":
        return lambda x: x[:, 0]
    if name == "coord2":
        if n < 2:
            raise ValueError("coord2 needs state dimension >= 2")
        return lambda x: x[:, 1]
    if name == "norm2":
        return lambda x: np.linalg.norm(x, axis=1)
    match = _CALL_RE.match(name)
    if match:
        strike = float(match.group("strike"))
        return lambda x: np.maximum(x[:, 0] - strike, 0.0)
    raise KeyError(f"unknown payoff {name!r}; known: coord1, coord2, norm2, call(K)")


@dataclass(frozen=True)
class LevelStats:
    """Statistics of the level correction f(X^{N_l}) - f(X^{N_{l-1}}).

    Level 0 stores plain f(X^{N_0}) statistics. cost counts simulated steps.
    """

    level: int
    N: int
    mean_diff: float
    var_diff: float
    cost: int


@dataclass(frozen=True)
class MlmcReport:
    levels: tuple[LevelStats, ...]
    estimate: float
    stderr: float
    total_cost: int
    beta_fit: float


def level_difference_samples(
    problem: Problem,
    payoff: str,
    level: int,
    paths: int,
    master_seed: int,
    n0: int = 1,
    threads: int = 1,
) -> np.ndarray:
    """Coupled samples f(fine_T) - f(coarse_T) at one level (plain f at level 0).

    Both discretizations march on the same noise, drawn once per chunk in
    time-major blocks of whole coarse steps; levels are kept independent by
    giving level l the path indices [l*paths, (l+1)*paths). A non-finite
    state raises :class:`~nvlab.flows.FlowExplosionError` naming the
    problem, the level, the grid N, and that grid's first non-finite step
    and path (:func:`_explosion`); a non-finite sample from finite states
    names the problem, the payoff, the level and the first such path.
    """
    if level < 0:
        raise ValueError("level must be >= 0")
    f = parse_payoff(payoff, problem.n)
    n_l = n0 * 2**level
    offset = level * paths
    n, d = problem.n, problem.d
    h = problem.T / n_l
    widths = ((DW_DOMAIN, d), (ETA_DOMAIN, 1))
    group = 2 if level else 1

    def worker(start, count):
        start += offset
        # the increments and signs of make_bundle_batch, in blocks of whole
        # sign words (8 steps) and whole coarse steps
        draw = partial(
            normal_blocks, master_seed, start, count, n_l, widths, math.sqrt(h), 8, group=group
        )
        try:
            if level:
                rows = coupled_terminals(problem, draw, count, n_l, start)
            else:
                rows = nv_march(problem, draw, count, n_l, h, n_l, start)[-1]
        except FlowExplosionError as exc:
            if level:  # the coupled march names a step of both grids at once
                exc = _explosion(problem, n_l, draw, start, count)
            raise FlowExplosionError(
                exc.problem, exc.scheme, exc.N, exc.step, exc.t, exc.path, level
            ) from None
        vals = f(rows[:n].T)
        if level:
            vals = vals - f(rows[n:].T)
        bad = ~np.isfinite(vals)
        if bad.any():
            raise FloatingPointError(
                f"non-finite {payoff} payoff on problem {problem.name!r} at level {level}: "
                f"first at path {start + int(np.argmax(bad))}"
            )
        return vals

    # one block of noise (d increments a step, and each step's sign a byte
    # as drawn, in its time-major copy and as a sweep row) and about ten
    # arrays of each grid's n states: the march's two records, a step's new
    # states and the nv kernel's temporaries
    block = noise_block(n_l, 8)
    per_path = block * d + 3 * -(-block // 8) + 10 * n * (2 if level else 1)
    return run_paths(paths, per_path, threads, worker)


def _explosion(problem, n_l, draw, start, count) -> FlowExplosionError:
    """The error of the grid, fine (n_l steps) or coarse, whose first
    non-finite state comes first in time (the fine one on a tie), of a
    level's chunk of paths start..start+count-1 whose coupled march went
    non-finite: each grid is marched alone on the chunk's noise
    (``draw()``), keeping only its terminal state."""
    found = []
    for N, grid_draw in ((n_l, draw), (n_l // 2, lambda: coarse_blocks(draw()))):
        try:
            nv_march(problem, grid_draw, count, N, problem.T / N, N, start)
        except FlowExplosionError as exc:
            found.append(exc)
    # the fine step each falls on, and the fine grid first on a tie
    return min(found, key=lambda exc: (exc.step * (n_l // exc.N), -exc.N))


def mlmc_estimate(
    problem: Problem,
    payoff: str,
    L_max: int,
    paths_per_level: int,
    master_seed: int,
    n0: int = 1,
    threads: int = 1,
) -> MlmcReport:
    """Telescoping estimator of E[f(X_T)] with fixed per-level sample counts.

    beta_fit is the OLS slope of -log2(var_diff) against the level, over
    levels >= BETA_MIN_LEVEL (all levels >= 1 if the ladder is too short).
    """
    if L_max < 1:
        raise ValueError("L_max must be >= 1")
    if paths_per_level < 2:
        raise ValueError("paths_per_level must be >= 2")
    levels = []
    estimate = 0.0
    variance = 0.0
    total_cost = 0
    for level in range(L_max + 1):
        samples = level_difference_samples(
            problem, payoff, level, paths_per_level, master_seed, n0, threads
        )
        n_l = n0 * 2**level
        mean = float(samples.mean())
        var = float(samples.var(ddof=1))
        cost = paths_per_level * (n_l + (n_l // 2 if level > 0 else 0))
        levels.append(LevelStats(level=level, N=n_l, mean_diff=mean, var_diff=var, cost=cost))
        estimate += mean
        variance += var / paths_per_level
        total_cost += cost
    fit_levels = [ls for ls in levels if ls.level >= BETA_MIN_LEVEL and ls.var_diff > 0]
    if len(fit_levels) < 2:
        fit_levels = [ls for ls in levels if ls.level >= 1 and ls.var_diff > 0]
    if len(fit_levels) >= 2:
        xs = np.array([ls.level for ls in fit_levels], dtype=float)
        ys = np.log2([ls.var_diff for ls in fit_levels])
        beta = -float(np.polyfit(xs, ys, 1)[0])
    else:
        beta = float("nan")
    return MlmcReport(
        levels=tuple(levels),
        estimate=estimate,
        stderr=math.sqrt(variance),
        total_cost=total_cost,
        beta_fit=beta,
    )
