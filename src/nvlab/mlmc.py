"""Multilevel Monte Carlo on the splitting scheme, with level-variance profiling.

Levels use N_l = N0 * 2^l steps. The level-l correction couples the scheme at
N_l and N_{l-1} through one shared bundle (the coarse run consumes the summed
increments and inherits the sign of the first fine sub-step), which is what
makes the correction variance decay like 2^(-beta l) with beta twice the
strong order for Lipschitz payoffs. Sample counts per level are fixed, not
adaptive: the quantity under test is beta, and adaptive allocation would just
add noise to it.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .models import Problem
from .paths import make_bundle_batch
from .schemes import nv_trajectory
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

    Both discretizations share one bundle; levels are kept independent by
    giving level l the path indices [l*paths, (l+1)*paths). A non-finite
    sample raises :class:`FloatingPointError` naming the problem, the payoff,
    the level and the first such path.
    """
    if level < 0:
        raise ValueError("level must be >= 0")
    f = parse_payoff(payoff, problem.n)
    n_l = n0 * 2**level
    offset = level * paths

    def worker(start, count):
        bundle = make_bundle_batch(master_seed, offset + start, count, n_l, problem.d, problem.T)
        vals = f(nv_trajectory(problem, bundle, n_l).terminal())
        if level > 0:
            vals = vals - f(nv_trajectory(problem, bundle, n_l // 2).terminal())
        bad = ~np.isfinite(vals)
        if bad.any():
            raise FloatingPointError(
                f"non-finite {payoff} payoff on problem {problem.name!r} at level {level}: "
                f"first at path {offset + start + int(np.argmax(bad))}"
            )
        return vals

    return run_paths(paths, n_l * (problem.d + 2), threads, worker)


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
