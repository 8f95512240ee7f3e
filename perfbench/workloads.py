"""The benchmark's workloads: their operations, sizes and correctness checks.

An operation is one study call: one CLI command (through ``nvlab.cli.main``)
or one ``scheme_gap`` call. It fails if it raises, exits non-zero, misses its
correctness check, or gives outputs that differ from the run's first
repetition (every repetition uses the same seed).

Each check holds the statistic to the acceptance window of its criterion in
the paper, widened where the workload runs fewer paths than the criterion:
a window never gets narrower than K_SIGMA standard errors at the workload's
own path count, so a correct program fails a check on a fresh seed with
negligible probability while a wrong rate or a wrong variance still fails.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import math
import statistics
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import nvlab.analysis
import nvlab.cli
from nvlab.analysis import ErrorPoint
from nvlab.report import csv_body

import speed
from instrument import layer_metrics

K_SIGMA = 6.0

# looked up at call time, so that a traced run gets the traced problem copies
# (the package re-exports the catalog() function under the submodule's name)
catalog_module = importlib.import_module("nvlab.catalog")

# speed probes timed before each repetition (about 25 ms each)
PROBES_PER_REP = 3

# Sizes. Each repetition of a workload takes roughly 2-4 s on a 2-core machine,
# so a run repeats it several times and reports the median.
LADDER_CLOSED_PATHS = 1000
LADDER_PROXY_PATHS = 1000
GAP_PATHS = 1000
GAP_LADDER = (8, 16, 32, 64, 128)
LIMIT_LAW_PATHS = 1000
SOURCE_TERM_PATHS = {4: 10000, 64: 1000}
MLMC_PATHS_PER_LEVEL = 5000


class OpFailed(Exception):
    """A CLI command exited with a non-zero code."""


@dataclass(frozen=True)
class Op:
    """One operation: ``run()`` is timed; ``check`` and ``digest`` run afterwards.

    ``check(result, earlier)`` returns the problems found, where ``earlier``
    holds the results of the preceding operations of the same repetition.
    ``digest(result)`` gives the bytes that must repeat exactly.
    """

    name: str
    run: Callable[[], object]
    check: Callable[[object, list], list[str]]
    digest: Callable[[object], bytes]


def cli_op(name: str, argv: list[str], out: Path, stem: str, check) -> Op:
    """A CLI command writing ``<stem>.csv`` and ``<stem>.json`` under ``out/name``."""
    outdir = out / name
    full = argv + ["--out", str(outdir)]

    def run():
        with contextlib.redirect_stdout(io.StringIO()):  # stdout carries the result line
            code = nvlab.cli.main(full)
        if code != 0:
            raise OpFailed(f"nvlab {' '.join(full)} exited with code {code}")
        return outdir

    return Op(
        name=name,
        run=run,
        check=lambda d, earlier: check(json.loads((d / f"{stem}.json").read_text())),
        digest=lambda d: csv_body(d / f"{stem}.csv").encode(),
    )


def gap_op(N: int, seed: int, last: bool) -> Op:
    """One scheme_gap rung (criterion 4); the last rung also checks the ladder's slope."""

    def run():
        problem = catalog_module.get_problem("linear-nc")
        return nvlab.analysis.scheme_gap(problem, "nv", "discrete-nv", N, GAP_PATHS, seed)

    def check(pt: ErrorPoint, earlier):
        problems = _finite_positive(f"gap N={pt.N}", pt.err, pt.stderr)
        if last and not problems:
            ladder = [r for r in earlier if isinstance(r, ErrorPoint)] + [pt]
            rows = [{"N": p.N, "err": p.err, "stderr": p.stderr} for p in ladder]
            slope, _ = fit_slope(rows)
            if not slope >= 0.8:
                problems.append(f"linear-nc surrogate gap slope {slope:.4f} < 0.8")
        return problems

    return Op(
        name=f"scheme-gap-N{N}",
        run=run,
        check=check,
        digest=lambda pt: repr((pt.N, pt.err, pt.stderr)).encode(),
    )


# ---------------------------------------------------------------------------
# statistics and checks
# ---------------------------------------------------------------------------


def _finite_positive(label: str, value: float, stderr: float) -> list[str]:
    if not (math.isfinite(value) and value > 0 and math.isfinite(stderr) and stderr >= 0):
        return [f"{label}: value {value!r} or stderr {stderr!r} is not finite and positive"]
    return []


def fit_slope(rows) -> tuple[float, float]:
    """OLS slope of log(err) on log(h) and its standard error from per-rung stderrs.

    The stderr treats rungs as independent; they share paths, which correlates
    their errors positively and so makes the true slope error smaller.
    """
    x = np.log([1.0 / r["N"] for r in rows])
    y = np.log([r["err"] for r in rows])
    rel = np.array([r["stderr"] / r["err"] for r in rows])
    xc = x - x.mean()
    slope = float(np.sum(xc * (y - y.mean())) / np.sum(xc**2))
    se = float(math.sqrt(np.sum(xc**2 * rel**2)) / np.sum(xc**2))
    return slope, se


def in_window(label: str, value: float, lo: float, hi: float, se: float) -> list[str]:
    """``value`` in [lo, hi], widened to K_SIGMA * se around the window's centre."""
    centre = 0.5 * (lo + hi)
    half = max(0.5 * (hi - lo), K_SIGMA * se)
    if not abs(value - centre) <= half:
        return [f"{label} {value:.5g} outside [{centre - half:.5g}, {centre + half:.5g}]"]
    return []


def check_rate(lo: float, hi: float, r2_min: float = 0.0):
    """Convergence ladder: every rung sane, slope in the criterion's window."""

    def check(payload) -> list[str]:
        rows = payload["rows"]
        problems = [
            p for r in rows for p in _finite_positive(f"rung N={r['N']}", r["err"], r["stderr"])
        ]
        if problems:
            return problems
        slope, se = fit_slope(rows)
        problems += in_window("slope", slope, lo, hi, se)
        r2 = payload["fit"]["r_squared"]
        if not r2 >= r2_min:
            problems.append(f"fit r2 {r2:.4f} < {r2_min}")
        return problems

    return check


def _variance_se(var: float, paths: int) -> float:
    """Standard error of a Gaussian sample variance."""
    return var * math.sqrt(2.0 / (paths - 1))


def check_limit_law(paths: int):
    """Criterion 5: coordinate 2 variances near T^2/2 = 0.5 and KS agreement;
    coordinate 1 of the heisenberg error is exactly zero on both sides."""
    target = 0.5
    se = _variance_se(target, paths)

    def check(payload) -> list[str]:
        rows = {r["coord"]: r for r in payload["rows"]}
        problems = []
        for key in ("var_scheme", "var_limit"):
            if not abs(rows[1][key]) <= 1e-20:
                problems.append(f"coord 1 {key} {rows[1][key]!r} is not zero")
        r = rows[2]
        problems += in_window("coord 2 var_scheme", r["var_scheme"], 0.45, 0.55, se)
        problems += in_window("coord 2 var_limit", r["var_limit"], 0.49, 0.51, se)
        # the criterion's p > 0.01 would fail one seed in a hundred
        if not r["ks_pvalue"] > 1e-4:
            problems.append(f"coord 2 KS p-value {r['ks_pvalue']:.3g} <= 1e-4")
        return problems

    return check


def check_source_term(paths: int):
    """Criterion 7: variance T*t/2, less the known sub-discretisation bias
    factor (1 - 1/substeps), within K_SIGMA of the estimator's own stderr."""

    def check(payload) -> list[str]:
        (r,) = payload["rows"]
        cfg = payload["metadata"]["config"]
        problems = []
        if r["theory"] != 0.5 * r["t"]:
            problems.append(f"theory {r['theory']!r} != T*t/2 = {0.5 * r['t']!r}")
        expected = r["theory"] * (1.0 - 1.0 / cfg["substeps"])
        # the batch stderr comes from 20 batches; never trust it below the Gaussian value
        se = max(r["stderr"], _variance_se(expected, paths))
        if not abs(r["var_est"] - expected) <= K_SIGMA * se:
            problems.append(
                f"N={r['N']} var {r['var_est']:.5f} not within {K_SIGMA}*{se:.2e} of {expected:.5f}"
            )
        return problems

    return check


def check_mlmc(lo: float, hi: float):
    """Criterion 8: level-variance decay exponent beta in the criterion's window."""

    def check(payload) -> list[str]:
        problems = []
        for r in payload["rows"]:
            if not (math.isfinite(r["mean_diff"]) and math.isfinite(r["var_diff"])):
                problems.append(f"level {r['level']} is not finite")
            elif r["level"] > 0 and not r["var_diff"] > 0:
                problems.append(f"level {r['level']} correction variance is {r['var_diff']!r}")
        beta = payload["beta_fit"]
        if not lo <= beta <= hi:
            problems.append(f"beta {beta:.4f} outside [{lo}, {hi}]")
        return problems

    return check


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


def _common(seed: int) -> list[str]:
    return ["--seed", str(seed), "--threads", "1"]


def ladder_closed(seed: int, out: Path) -> list[Op]:
    """Criterion 1 ladder on heisenberg: a few long streams at 64x refinement
    against the closed form.

    One thread, like every workload: the speed probe runs on one core, so it
    cannot track a run spread over both (see speed.py).
    """
    argv = ["convergence", "--problem", "heisenberg", "--scheme", "nv"]
    argv += ["--nladder", "8,16,32,64,128,256", "--refine", "64"]
    argv += ["--paths", str(LADDER_CLOSED_PATHS)] + _common(seed)
    return [cli_op("convergence-heisenberg", argv, out, "rate", check_rate(0.35, 0.65, 0.95))]


def ladder_proxy(seed: int, out: Path) -> list[Op]:
    """Criterion 2 ladder on diag-comm against the nv proxy reference at 64x,
    then the criterion 4 surrogate-gap ladder on linear-nc (discrete-nv)."""
    argv = ["convergence", "--problem", "diag-comm", "--scheme", "nv"]
    argv += ["--nladder", "8,16,32,64", "--refine", "64"]
    argv += ["--paths", str(LADDER_PROXY_PATHS)] + _common(seed)
    ops = [cli_op("convergence-diag-comm", argv, out, "rate", check_rate(0.85, 1.15))]
    ops += [gap_op(N, seed, N == GAP_LADDER[-1]) for N in GAP_LADDER]
    return ops


def limit_law(seed: int, out: Path) -> list[Op]:
    """Criteria 5 and 7: the rescaled-error law against the limit SDE, and the
    bracket source-term variance at N = 4 and N = 64."""
    argv = ["limit-law", "--problem", "heisenberg", "--N", "256", "--refine", "32"]
    argv += ["--paths", str(LIMIT_LAW_PATHS)] + _common(seed)
    ops = [cli_op("limit-law-heisenberg", argv, out, "limitlaw", check_limit_law(LIMIT_LAW_PATHS))]
    for N, paths in SOURCE_TERM_PATHS.items():
        argv = ["source-term", "--N", str(N), "--j", "2", "--m", "1", "--t", "1.0"]
        argv += ["--paths", str(paths)] + _common(seed)
        ops.append(cli_op(f"source-term-N{N}", argv, out, "sourceterm", check_source_term(paths)))
    return ops


def mlmc_shallow(seed: int, out: Path) -> list[Op]:
    """Criterion 8: many one-to-64-step paths per level, where the fixed
    per-path cost of the noise streams dominates."""
    ops = []
    cases = (("heisenberg", "coord2", 0.7, 1.4), ("diag-comm", "norm2", 1.6, 2.5))
    for problem, payoff, lo, hi in cases:
        argv = ["mlmc", "--problem", problem, "--payoff", payoff, "--levels", "6", "--n0", "1"]
        argv += ["--paths-per-level", str(MLMC_PATHS_PER_LEVEL)] + _common(seed)
        ops.append(cli_op(f"mlmc-{problem}-{payoff}", argv, out, "mlmc", check_mlmc(lo, hi)))
    return ops


WORKLOADS = {
    "ladder-closed": ladder_closed,
    "ladder-proxy": ladder_proxy,
    "limit-law": limit_law,
    "mlmc-shallow": mlmc_shallow,
}


# ---------------------------------------------------------------------------
# running
# ---------------------------------------------------------------------------


def run_ops(ops: list[Op]) -> list[object]:
    """Run every operation in order; an exception is recorded as that op's result."""
    results = []
    for op in ops:
        try:
            results.append(op.run())
        except Exception as exc:  # a failing operation is counted, not fatal to the run
            results.append(exc)
    return results


def verify(ops: list[Op], results: list[object]) -> tuple[list[str], list[str]]:
    """Per-op problems (empty string = passed) and per-op output digests."""
    problems, digests, earlier = [], [], []
    for op, res in zip(ops, results):
        if isinstance(res, Exception):
            problems.append(f"{op.name}: raised {type(res).__name__}: {res}")
            digests.append("")
        else:
            try:
                found = op.check(res, earlier)
                digests.append(hashlib.sha256(op.digest(res)).hexdigest())
            except Exception as exc:  # unreadable or malformed output fails the op
                found = [f"check raised {type(exc).__name__}: {exc}"]
                digests.append("")
            problems.append("; ".join(f"{op.name}: {p}" for p in found))
        earlier.append(res)
    return problems, digests


def workload_digest(ops: list[Op], digests: list[str]) -> str:
    """One sha256 over every operation's CSV body or scheme_gap values."""
    h = hashlib.sha256()
    for op, d in zip(ops, digests):
        h.update(f"{op.name}={d}\n".encode())
    return h.hexdigest()


@dataclass
class Rep:
    """One repetition: wall time, per-op problems and digests, the speed
    probes timed before it; if traced, its per-layer metrics and packed spans."""

    wall_ns: int
    problems: list[str]
    digests: list[str]
    probe_s: list[float]
    layers: dict[str, float] | None = None
    spans: np.ndarray | None = None


def repeat(ops, budget_s: float, tracer=None) -> list[Rep]:
    """Repeat the workload until another repetition would overrun ``budget_s``."""
    reps: list[Rep] = []
    start = time.perf_counter()
    while True:
        probe_s = [speed.probe() for _ in range(PROBES_PER_REP)]
        if tracer is not None:
            tracer.drain()
        t0 = time.perf_counter_ns()
        results = run_ops(ops)
        wall_ns = time.perf_counter_ns() - t0
        rep = Rep(wall_ns, *verify(ops, results), probe_s)
        if tracer is not None:
            spans = tracer.drain()
            rep.layers = layer_metrics(spans, wall_ns)
            rep.spans = tracer.pack(spans)
        reps.append(rep)
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(r.wall_ns for r in reps) / 1e9 > budget_s:
            return reps


def tally(ops, reps: list[Rep]) -> tuple[int, list[str]]:
    """Failed operations over all repetitions, and what failed."""
    first = reps[0].digests
    failed, notes = 0, []
    for k, rep in enumerate(reps, 1):
        for op, problem, digest, ref in zip(ops, rep.problems, rep.digests, first):
            if not problem and digest != ref:
                problem = f"{op.name}: output differs from repetition 1"
            if problem:
                failed += 1
                notes.append(f"repetition {k}: {problem}")
    return failed, notes
