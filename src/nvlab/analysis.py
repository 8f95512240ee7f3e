"""Strong-error measurement and asymptotic-error-law verification.

The statistical core of the lab:

* coupled strong errors  E[max_k |X_{t_k} - X^scheme_{t_k}|^{2p}]^{1/(2p)}
  against an exact or refined reference sharing the same Brownian bundle;
  a whole step ladder shares one bundle and one reference per path (common
  random numbers across rungs);
* log-log rate fits over a step ladder;
* samples of the rescaled terminal error sqrt(N) (X_T - X^nv_T);
* an Euler simulator for the limiting affine SDE of that rescaled error,
    dV = sqrt(T/2) sum_{m<j} [s^j, s^m](X) dB^{jm}
         + (db)(X) V dt + sum_j (ds^j)(X) V dW^j,    V_0 = 0,
  driven by a fresh d(d-1)/2-dimensional Brownian motion B independent of W
  (Kurtz-Protter 1991); the fields are affine, so this is a constant-
  coefficient step on the matrices A_k and precomputed bracket matrices,
  run by the schemes' one march (``schemes._march``) on noise drawn one
  block of steps at a time;
* distribution comparison of two (samples, n) sample sets (moments +
  per-coordinate two-sample KS); scipy is imported only when a comparison
  runs, so no other estimator pays for it;
* the variance of the sign-ordered within-step integral
    Y^{j,m,N}_t = sqrt(N) ( int Psi1 (W^m - W^m-lagged) dW^j
                          + int Psi2 (W^j - W^j-lagged) dW^m ),
  with Psi1 = (eta - 1)/2 and Psi2 = (eta + 1)/2 selecting one term per step;
  its quadratic variation has mean T t / 2 at grid-aligned t for every N -
  the scalar fingerprint of the bracket source term.

Every estimator fills a per-path value array through one engine,
:func:`~nvlab.util.run_paths`, in memory-bounded chunks (chunk grouping cannot
change per-path values because all kernels act path-wise) and then reduces
over a fixed 20-slice batching, so results are byte-identical for any worker
count; the batch spread also supplies the standard errors. Where every
fine-grid pass is path-wise (a closed-form reference, the source term) the
fine noise is drawn one path tile at a time, so chunks are sized by what they
keep at the coarse grid (:func:`chunk_floats`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .flows import FlowExplosionError
from .models import Problem
from .paths import (
    AUX_DOMAIN,
    DW_DOMAIN,
    NOISE_BLOCK,
    PathBundle,
    coarsen,
    make_bundle_batch,
    normal_blocks,
    path_tiles,
)
from .schemes import _march, trajectory
from .util import STAT_BATCHES, run_paths, split_paths

# Seed stride separating the limit-SDE sample stream from the scheme stream,
# so the two sides of the KS comparison are independent.
LIMIT_SEED_STRIDE = 2**32

# The fewest ladder points a rate fit takes.
MIN_RATE_POINTS = 3


def _batch_mean_se(values: np.ndarray) -> tuple[float, float]:
    """Grand mean and its standard error from contiguous batch means."""
    slices = split_paths(len(values), STAT_BATCHES)
    means = np.array([values[s : s + c].mean() for s, c in slices])
    grand = float(values.mean())
    if len(means) < 2:
        return grand, 0.0
    return grand, float(np.std(means, ddof=1) / math.sqrt(len(means)))


def _batch_var_se(values: np.ndarray) -> tuple[float, float]:
    """Sample variance and its standard error from contiguous batch variances."""
    var = float(np.var(values, ddof=1))
    slices = [(s, c) for s, c in split_paths(len(values), STAT_BATCHES) if c >= 2]
    if len(slices) < 2:
        return var, 0.0
    bvars = np.array([np.var(values[s : s + c], ddof=1) for s, c in slices])
    return var, float(np.std(bvars, ddof=1) / math.sqrt(len(bvars)))


@dataclass(frozen=True)
class ErrorPoint:
    """One rung of a convergence ladder: L^{2p} max-over-grid coupled error."""

    N: int
    err: float
    stderr: float
    p: int = 1


@dataclass(frozen=True)
class RateFit:
    """OLS fit of log(err) against log(h); slope is the empirical strong order.

    Over the correlated rungs of a :func:`strong_error` ladder, ``r_squared``
    describes the fit but does not test independent residuals.
    """

    slope: float
    intercept: float
    r_squared: float
    excluded: tuple[int, ...] = ()  # N values dropped because err == 0


@dataclass(frozen=True)
class SourceTermEstimate:
    N: int
    j: int
    m: int
    t: float
    var_est: float
    stderr: float
    theory: float


@dataclass(frozen=True)
class LimitLawReport:
    """Moment and KS comparison of rescaled scheme error vs simulated limit law."""

    mean_scheme: np.ndarray
    mean_limit: np.ndarray
    cov_scheme: np.ndarray
    cov_limit: np.ndarray
    ks_stat: np.ndarray
    ks_pvalue: np.ndarray


def _check_reference(problem: Problem, refine_factor: int):
    if refine_factor < 1:
        raise ValueError("refine_factor must be >= 1")
    if problem.exact_solution is None and refine_factor < 2:
        raise ValueError(
            f"problem {problem.name!r} has no closed form; a refined proxy reference "
            "needs refine_factor >= 2"
        )


def _check_ladder(Ns: Sequence[int]) -> int:
    """The finest rung of a step ladder; every rung must divide it, once."""
    if not Ns:
        raise ValueError("the step ladder is empty")
    if any(N < 1 for N in Ns):
        raise ValueError(f"ladder rung N={min(Ns)} is not >= 1")
    N_max = max(Ns)
    for i, N in enumerate(Ns):
        if N in Ns[:i]:
            raise ValueError(f"ladder rung N={N} is repeated")
        if N_max % N != 0:
            raise ValueError(f"ladder rung N={N} does not divide the finest rung N={N_max}")
    return N_max


def _error_point(values: np.ndarray, N: int, p: int) -> ErrorPoint:
    """The L^{2p} error from per-path values |gap|^{2p}, with its batch standard error."""
    grand, se = _batch_mean_se(values)
    if grand > 0.0:
        err = grand ** (1.0 / (2 * p))
        stderr = se * err / (2 * p * grand)
    else:
        err, stderr = 0.0, 0.0
    return ErrorPoint(N=N, err=err, stderr=stderr, p=p)


def chunk_floats(problem: Problem, Ns: Sequence[int], n_fine: int, states: int = 3) -> int:
    """Float64s one path takes at the peak of a chunk of an estimator that
    marches a scheme at the step counts ``Ns`` on noise drawn at ``n_fine``
    steps: the estimators' one footprint, which
    :func:`~nvlab.util.run_paths` sizes chunks by.

    Where the reference is a closed form (or the noise is not refined), the
    fine noise is drawn one path tile at a time (:func:`_closed_form_chunk`),
    so a chunk holds only coarse arrays: the bundle at max(Ns) steps (d
    increments and a sign per step, a float's room each), one array of
    max(Ns) + 1 states, and, while rung N is marched, the rung's own coarse
    bundle below max(Ns) and ``states - 1`` arrays of N + 1 states. By
    default these are the ladder's reference, rung states and gap. The proxy
    reference marches the whole fine bundle, so its chunks are still sized
    by it, at n_fine (d + 3) floats.
    """
    N_max = max(Ns)
    d, n = problem.d, problem.n
    if problem.exact_solution is None and n_fine > N_max:
        return n_fine * (d + 3)
    rung = max((N < N_max) * N * (d + 1) + (states - 1) * (N + 1) * n for N in Ns)
    return N_max * (d + 1) + (N_max + 1) * n + rung


def _closed_form_chunk(
    problem: Problem,
    master_seed: int,
    start: int,
    count: int,
    n_fine: int,
    N: int,
    terminal: bool = False,
) -> tuple[np.ndarray, PathBundle]:
    """The closed form's states at the N-step grid times (only the last with
    ``terminal``) and the bundle at N steps, of paths start..start+count-1.

    The bundle at ``n_fine`` steps is drawn one cache-sized tile of paths at
    a time; each tile is coarsened to N steps and the closed form evaluated
    on it, both written into the chunk's arrays, and the fine tile dropped.
    Every draw and pass is path-wise, so the values are those of the whole
    chunk's bundle.
    """
    d, n = problem.d, problem.n
    dW = np.empty((count, N, d))
    eta = np.empty((count, N), np.int8)
    ref = np.empty((count, n) if terminal else (count, N + 1, n))
    # a path's fine increments and signs, and the closed form's buffer
    for tile in path_tiles(count, 8 * n_fine * (d + 1), n_fine):
        fine = make_bundle_batch(
            master_seed, start + tile.start, tile.stop - tile.start, n_fine, d, problem.T
        )
        states = trajectory(problem, "exact", fine, N).states
        ref[tile] = states[:, -1] if terminal else states
        coarse = coarsen(fine, N)
        dW[tile], eta[tile] = coarse.dW, coarse.eta
    dW.setflags(write=False)
    eta.setflags(write=False)
    return ref, PathBundle(problem.T, dW, eta, start)


def _coupled_ladder(
    problem: Problem,
    reference: str,
    scheme: str,
    Ns: Sequence[int],
    refine_factor: int,
    paths: int,
    master_seed: int,
    p: int,
    threads: int,
) -> list[ErrorPoint]:
    """L^{2p} max-over-grid distance of ``scheme`` at every rung N of ``Ns``
    from ``reference`` at the finest rung N_max, on common random numbers.

    Each chunk holds its paths' bundle at N_max steps and the reference's
    states at those N_max steps. The scheme then runs at every rung on that
    bundle, so each rung sums the N_max increments, not the fine ones, and
    is compared with the reference at the rung's grid times; the rung's own
    coarse bundle and states are dropped once it is compared. A closed-form
    reference is evaluated on the fine bundle (N_max * refine_factor steps)
    one path tile at a time, so chunks are sized by the coarse grid
    (:func:`chunk_floats`); a scheme reference, the proxy included, marches
    the chunk's whole bundle.
    """
    N_max = _check_ladder(Ns)
    n_fine = N_max * refine_factor
    closed_form = reference == "exact" and problem.exact_solution is not None

    def rung_values(ref, rungs, N):
        # a bundle of its own on the rungs' arrays: the rung's coarse bundle
        # is memoised on it, so it goes once the rung is marched
        rung = PathBundle(rungs.T, rungs.dW, rungs.eta, rungs.path_start)
        # the Euclidean norm of the gap at each grid time, with the additions
        # of np.linalg.norm but in place of its two copies
        gap = ref[:, :: N_max // N] - trajectory(problem, scheme, rung, N).states
        gap *= gap
        norms = gap.sum(axis=2)
        np.sqrt(norms, out=norms)
        return norms.max(axis=1) ** (2 * p)

    def worker(start, count):
        if closed_form:
            ref, rungs = _closed_form_chunk(problem, master_seed, start, count, n_fine, N_max)
        else:
            bundle = make_bundle_batch(master_seed, start, count, n_fine, problem.d, problem.T)
            ref = trajectory(problem, reference, bundle, N_max).states
            rungs = coarsen(bundle, N_max)
            del bundle  # the fine increments are no longer needed
        out = np.empty((count, len(Ns)))
        for i, N in enumerate(Ns):
            out[:, i] = rung_values(ref, rungs, N)
        return out

    per_path = chunk_floats(problem, Ns, n_fine)
    values = run_paths(paths, per_path, threads, worker, width=len(Ns))
    return [_error_point(v, N, p) for v, N in zip(values.T, Ns)]


def strong_error(
    problem: Problem,
    scheme: str,
    N: int | Sequence[int],
    paths: int,
    master_seed: int,
    p: int = 1,
    refine_factor: int = 64,
    threads: int = 1,
) -> ErrorPoint | list[ErrorPoint]:
    """Coupled L^{2p} max-over-grid error of ``scheme`` at N steps, or, for a
    step ladder N, at every rung (a list with one point per rung).

    The scheme and the reference run on the same bundle, generated at
    max(N) * refine_factor fine steps; the reference is the closed form at
    max(N) steps or, for problems without one, the splitting scheme at full
    fine resolution (so refine_factor must be >= 2 for them). All rungs of a
    ladder share that bundle and that reference: each rung's increments are
    sums of the max(N) increments, and its error is read at its own grid
    times. Every rung must divide max(N), no rung may repeat, and a ladder
    may not measure ``scheme`` "exact", the reference itself: below the
    finest rung it would be evaluated on summed increments and report an
    error that is not one.

    The rungs are common random numbers, so their errors are correlated: the
    r^2 of a rate fit over them no longer tests independent residuals.
    """
    one = np.ndim(N) == 0
    Ns = (N,) if one else tuple(N)
    if scheme == "exact" and len(Ns) > 1:
        raise ValueError("scheme 'exact' is the reference; pick a scheme to measure")
    if paths < 100:
        raise ValueError("strong_error needs paths >= 100")
    if p < 1:
        raise ValueError("moment order p must be >= 1")
    _check_reference(problem, refine_factor)
    points = _coupled_ladder(
        problem, "exact", scheme, Ns, refine_factor, paths, master_seed, p, threads
    )
    return points[0] if one else points


def scheme_gap(
    problem: Problem,
    scheme_a: str,
    scheme_b: str,
    N: int,
    paths: int,
    master_seed: int,
    p: int = 1,
    threads: int = 1,
) -> ErrorPoint:
    """L^{2p} max-over-grid distance between two schemes run on shared bundles.

    No reference is involved: both schemes consume the same increments at the
    same resolution, so this directly measures how close the adapted surrogate
    tracks the splitting scheme.
    """
    if paths < 2:
        raise ValueError("scheme_gap needs paths >= 2")
    if p < 1:
        raise ValueError("moment order p must be >= 1")
    (point,) = _coupled_ladder(
        problem, scheme_a, scheme_b, (N,), 1, paths, master_seed, p, threads
    )
    return point


def fit_rate(points: Sequence[ErrorPoint], T: float = 1.0) -> RateFit:
    """OLS on (log h, log err). Zero-error points are excluded and flagged."""
    if len(points) < MIN_RATE_POINTS:
        raise ValueError(f"need at least {MIN_RATE_POINTS} ladder points")
    if len({pt.N for pt in points}) != len(points):
        raise ValueError("ladder points must have distinct N")
    usable = [pt for pt in points if pt.err > 0.0]
    excluded = tuple(pt.N for pt in points if pt.err <= 0.0)
    if len(usable) < 2:
        raise ValueError("fewer than 2 nonzero error points; nothing to fit")
    x = np.log([T / pt.N for pt in usable])
    y = np.log([pt.err for pt in usable])
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - float(np.sum(resid**2)) / ss_tot
    return RateFit(
        slope=float(slope),
        intercept=float(intercept),
        r_squared=r2,
        excluded=excluded,
    )


def normalized_error_samples(
    problem: Problem,
    N: int,
    paths: int,
    master_seed: int,
    refine_factor: int = 64,
    threads: int = 1,
) -> np.ndarray:
    """Per-path rescaled terminal error sqrt(N)(X_T - X^nv_T), shape (paths, n).

    With a closed form the fine noise is drawn one path tile at a time and a
    chunk keeps its bundle at N steps and the reference's terminal state
    (:func:`_closed_form_chunk`); the proxy reference marches the chunk's
    whole bundle.
    """
    if N < 1:
        raise ValueError("normalized_error_samples needs N >= 1")
    if paths < 2:
        raise ValueError("normalized_error_samples needs paths >= 2")
    _check_reference(problem, refine_factor)
    n_fine = N * refine_factor
    scale = math.sqrt(N)

    def worker(start, count):
        if problem.exact_solution is None:
            bundle = make_bundle_batch(master_seed, start, count, n_fine, problem.d, problem.T)
            ref = trajectory(problem, "exact", bundle, N).terminal()
        else:
            ref, bundle = _closed_form_chunk(
                problem, master_seed, start, count, n_fine, N, terminal=True
            )
        nv = trajectory(problem, "nv", bundle, N).terminal()
        return scale * (ref - nv)

    # the nv run's states; the reference keeps only its terminal state
    per_path = chunk_floats(problem, (N,), n_fine, states=1)
    return run_paths(paths, per_path, threads, worker, width=problem.n)


def simulate_limit_sde(
    problem: Problem,
    paths: int,
    n_fine: int = 4096,
    master_seed: int = 0,
    threads: int = 1,
) -> np.ndarray:
    """Terminal samples of the limiting affine error SDE, shape (paths, n).

    A constant-coefficient Euler step: every field is affine, so the drift
    and diffusion of V are the matrices A_k, and each bracket source is
    C x + e with C = A_m A_j - A_j A_m and e = A_m c_j - A_j c_m, computed
    once; no coefficient callable is evaluated. The schemes' march
    (``schemes._march``) runs the step on the base SDE X (Ito form) and V
    stacked as state rows (2n, paths), recording only the terminal state.
    X is stepped only when some bracket matrix C is non-zero; otherwise the
    sources are constant, X never reaches V and its rows keep x0. The
    increments dW are those of :func:`~nvlab.paths.make_bundle_batch`, drawn
    without its signs. The bracket sources are driven by fresh increments of
    an independent d(d-1)/2-dimensional Brownian motion drawn from each
    path's auxiliary stream. Both are drawn one block of steps at a time
    (:func:`~nvlab.paths.normal_blocks`), each path's streams continuing
    across blocks, so a chunk holds one block of noise, not its whole
    n_fine steps, and the values do not depend on the block size. For
    commuting Brownian fields the source vanishes and V stays exactly zero.
    A non-finite terminal state, of X or of V, raises :class:`FloatingPointError` naming the problem, the step
    and the first such path; the step is the first recorded one with a
    non-finite state, which is always n_fine (time T), since only the
    terminal state is recorded.
    """
    if n_fine < 1:
        raise ValueError("n_fine must be >= 1")
    if paths < 2:
        raise ValueError("simulate_limit_sde needs paths >= 2")
    f = problem.fields
    A = f.A
    c = f.c[:, :, None]
    brackets = [f.bracket_matrices(*p) for p in f.pairs]
    n_pairs = len(brackets)
    march_x = any(C.any() for C, _ in brackets)
    delta = problem.T / n_fine
    coef = math.sqrt(problem.T / 2.0)
    n = problem.n

    def step(s, dW_k, dB_k):
        x, v = s[:n], s[n:]  # s stacks X over V as rows (2n, paths)
        dv = (A[0] @ v) * delta
        for j in range(1, problem.d + 1):
            dv = dv + (A[j] @ v) * dW_k[j - 1]
        for idx, (C, e) in enumerate(brackets):
            dv = dv + coef * (C @ x + e[:, None]) * dB_k[idx]
        out = np.empty_like(s)
        np.add(v, dv, out=out[n:])
        if march_x:
            dx = (A[0] @ x + c[0]) * delta
            for j in range(1, problem.d + 1):
                dx = dx + (A[j] @ x + c[j]) * dW_k[j - 1]
            np.add(x, dx, out=out[:n])
        else:
            out[:n] = x
        return out

    widths = ((DW_DOMAIN, problem.d), (AUX_DOMAIN, n_pairs))
    x0 = np.concatenate([problem.x0, np.zeros(n)])

    def worker(start, count):
        # the increments of make_bundle_batch, without its signs, and the
        # auxiliary noise, drawn one block of steps at a time
        blocks = normal_blocks(master_seed, start, count, n_fine, widths, math.sqrt(delta))
        try:
            records = _march(
                problem, "limit SDE", step, x0, blocks, count, n_fine, delta, n_fine, start
            )
        except FlowExplosionError as exc:
            raise FloatingPointError(
                f"non-finite state from the limit SDE on problem {problem.name!r}: "
                f"first at step {exc.step * n_fine} (t={exc.t:.3g}), path {exc.path}"
            ) from None
        return records[-1, n:].T

    # a block of noise and the records, x0 and the terminal state (2n rows each)
    per_path = min(n_fine, NOISE_BLOCK) * (problem.d + max(1, n_pairs)) + 4 * n
    return run_paths(paths, per_path, threads, worker, width=problem.n)


def compare_distributions(a: np.ndarray, b: np.ndarray) -> LimitLawReport:
    """Moments plus per-coordinate two-sample Kolmogorov-Smirnov comparison.

    Each sample set is a 2-D array (samples, n) with at least 2 samples, so
    that its covariance is defined; both sets share n.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim != 2 or b.ndim != 2:
        raise ValueError("sample sets must be 2-dimensional arrays (samples, n)")
    if a.shape[0] < 2 or b.shape[0] < 2:
        raise ValueError("sample sets need at least 2 samples each")
    if a.shape[1] != b.shape[1]:
        raise ValueError(f"dimension mismatch: {a.shape[1]} vs {b.shape[1]}")
    # imported here, not at module level: scipy.stats costs most of the
    # package's import time and memory, and only this comparison uses it
    from scipy.stats import ks_2samp

    n = a.shape[1]
    ks_stat = np.empty(n)
    ks_p = np.empty(n)
    for i in range(n):
        res = ks_2samp(a[:, i], b[:, i], method="asymp")
        ks_stat[i] = res.statistic
        ks_p[i] = res.pvalue
    cov_a = np.atleast_2d(np.cov(a, rowvar=False))
    cov_b = np.atleast_2d(np.cov(b, rowvar=False))
    return LimitLawReport(
        mean_scheme=a.mean(axis=0),
        mean_limit=b.mean(axis=0),
        cov_scheme=cov_a,
        cov_limit=cov_b,
        ks_stat=ks_stat,
        ks_pvalue=ks_p,
    )


def limit_law_study(
    problem: Problem,
    N: int,
    paths: int,
    master_seed: int,
    n_fine_limit: int = 4096,
    refine_factor: int = 64,
    threads: int = 1,
) -> LimitLawReport:
    """Full pipeline: rescaled scheme error vs simulated limit, on separate seeds.

    The step and path counts are checked before either side is simulated.
    """
    if n_fine_limit < 1:
        raise ValueError("limit_law_study needs n_fine_limit >= 1")
    if paths < 2:
        raise ValueError("limit_law_study needs paths >= 2")
    scheme_samples = normalized_error_samples(
        problem, N, paths, master_seed, refine_factor, threads
    )
    limit_samples = simulate_limit_sde(
        problem, paths, n_fine_limit, master_seed + LIMIT_SEED_STRIDE, threads
    )
    return compare_distributions(scheme_samples, limit_samples)


def source_term_variance(
    N: int,
    j: int,
    m: int,
    t: float,
    paths: int,
    master_seed: int,
    substeps: int = 64,
    T: float = 1.0,
    threads: int = 1,
) -> SourceTermEstimate:
    """Sample variance of the sign-ordered within-step integral Y^{j,m,N}_t.

    Within-step stochastic integrals are resolved by sub-discretization with
    ``substeps`` points per step (left-endpoint sums), which biases the
    variance down by exactly the factor (1 - 1/substeps) at grid-aligned t.
    The analytic target is T*t/2, independent of N at grid-aligned t.

    The pair (j, m) only labels the estimate: Y^{j,m,N} is built from two
    independent Brownian coordinates and one sign per step, so every valid
    pair (1 <= m < j) has the same law. The estimator therefore always draws
    a 2-dimensional bundle (coordinate 1 plays W^m, coordinate 2 plays W^j),
    and two valid pairs give the same estimate at a fixed seed.

    The bundle is drawn one cache-sized tile of paths at a time, reduced to
    the tile's values and dropped, so a chunk keeps one value per path.
    """
    if not 1 <= m < j:
        raise ValueError(f"need 1 <= m < j, got j={j}, m={m}")
    if N < 1 or substeps < 2:
        raise ValueError("need N >= 1 and substeps >= 2")
    if paths < 2:
        raise ValueError("source_term_variance needs paths >= 2")
    if t < 0 or t > T:
        raise ValueError(f"t must lie in [0, {T}]")
    theory = 0.5 * T * t
    if t == 0.0:
        return SourceTermEstimate(N, j, m, t, 0.0, 0.0, theory)

    n_fine = N * substeps
    delta = T / n_fine
    kept = min(n_fine, int(math.floor(t / delta + 1e-9)))
    # substep (k, i) enters iff its right endpoint is <= t
    mask = (np.arange(n_fine) < kept).reshape(N, substeps).astype(float)
    scale = math.sqrt(N)

    def worker(start, count):
        out = np.empty(count)
        # the tiles of _source_term_values, so that each draw feeds one of them
        for tile in path_tiles(count, 5 * 8 * n_fine, n_fine):
            fine = make_bundle_batch(
                master_seed, start + tile.start, tile.stop - tile.start, n_fine, 2, T
            )
            out[tile] = _source_term_values(fine, mask, scale)
        return out

    # a chunk keeps one value per path: its fine noise lives one tile at a time
    values = run_paths(paths, 1, threads, worker)
    var_est, stderr = _batch_var_se(values)
    return SourceTermEstimate(N, j, m, t, var_est, stderr, theory)


def _source_term_values(bundle: PathBundle, mask: np.ndarray, scale: float) -> np.ndarray:
    """``scale`` times Y^{j,m,N}_t of every path of a 2-dimensional bundle.

    ``mask`` (N, substeps) keeps the substeps that enter. Coordinate 1 plays
    W^m and coordinate 2 W^j; in step k the lagged sum is the increment's
    running sum within the step before each substep, and the step's first
    sign picks its left-point sum of lag_m dW^j (-1) or of lag_j dW^m (+1).
    The paths run one tile at a time through buffers of one tile.
    """
    N, substeps = mask.shape
    eta = bundle.eta[:, ::substeps]  # the sign of each step's first substep
    dW = bundle.dW.reshape(bundle.paths, N, substeps, 2)
    # a path reads its increments (2 floats a substep) and three buffers
    tiles = path_tiles(bundle.paths, 5 * 8 * bundle.n_fine, bundle.n_fine)
    lags = np.zeros((2, tiles[0].stop, N, substeps))  # substep 0 keeps its 0
    prod = np.empty((tiles[0].stop, N, substeps))
    out = np.empty(bundle.paths)
    for tile in tiles:
        count = tile.stop - tile.start
        dWm, dWj = dW[tile, :, :, 0], dW[tile, :, :, 1]
        lag_m, lag_j, p = lags[0, :count], lags[1, :count], prod[:count]
        np.cumsum(dWm[:, :, :-1], axis=2, out=lag_m[:, :, 1:])
        np.cumsum(dWj[:, :, :-1], axis=2, out=lag_j[:, :, 1:])
        minus = np.einsum("pks,ks->pk", np.multiply(lag_m, dWj, out=p), mask)
        plus = np.einsum("pks,ks->pk", np.multiply(lag_j, dWm, out=p), mask)
        out[tile] = scale * np.sum(np.where(eta[tile] < 0, -minus, plus), axis=1)
    return out
