"""End-to-end acceptance suite.

Each criterion runs at its stated tolerance and prints one PASS/FAIL line
(run with ``pytest tests/test_acceptance.py -v -s`` to see them live). The
checks are statistical but pinned to fixed seeds, so they are reproducible.
"""

import time

import numpy as np
import pytest

from nvlab import (
    GridSpec,
    exact_trajectory,
    fit_rate,
    get_problem,
    limit_law_study,
    make_bundle_batch,
    mlmc_estimate,
    normalized_error_samples,
    nv_trajectory,
    scheme_gap,
    simulate_limit_sde,
    source_term_variance,
    strong_error_ladder,
)
from nvlab.cli import main
from nvlab.report import csv_body

pytestmark = pytest.mark.acceptance

LADDER = (8, 16, 32, 64, 128, 256, 512)


def _report(num: int, ok: bool, detail: str) -> bool:
    print(f"\nACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def test_criterion_1_strong_order_half_noncommutative():
    heis = get_problem("heisenberg")
    t0 = time.perf_counter()
    points = strong_error_ladder(heis, "nv", LADDER, 10000, 42)
    fit = fit_rate(points, T=heis.T)
    elapsed = time.perf_counter() - t0
    ok = 0.35 <= fit.slope <= 0.65 and fit.r_squared >= 0.95 and elapsed <= 120.0
    assert _report(
        1,
        ok,
        f"heisenberg nv slope={fit.slope:.4f} (want [0.35,0.65]), "
        f"r2={fit.r_squared:.4f} (want >=0.95), runtime={elapsed:.0f}s (cap 120s)",
    )


def test_criterion_2_strong_order_one_commutative():
    dc = get_problem("diag-comm")
    t0 = time.perf_counter()
    points = strong_error_ladder(dc, "nv", LADDER, 10000, 42, refine_factor=64)
    fit = fit_rate(points, T=dc.T)
    elapsed = time.perf_counter() - t0
    ok = 0.85 <= fit.slope <= 1.15 and elapsed <= 300.0
    assert _report(
        2,
        ok,
        f"diag-comm nv slope={fit.slope:.4f} (want [0.85,1.15]), "
        f"runtime={elapsed:.0f}s (cap 300s)",
    )


def test_criterion_3_scheme_exactness_gbm():
    gbm = get_problem("gbm1d")
    t0 = time.perf_counter()
    worst = 0.0
    for N in (1, 3, 8, 77, 512):
        bundle = make_bundle_batch(7, 0, 8, N, 1, gbm.T)
        grid = GridSpec(N, gbm.T)
        gap = np.abs(
            nv_trajectory(gbm, bundle, grid).states - exact_trajectory(gbm, bundle, grid).states
        )
        worst = max(worst, float(gap.max()))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and elapsed <= 1.0
    assert _report(
        3, ok, f"gbm1d nv max grid error={worst:.2e} (want <=1e-12), runtime={elapsed:.2f}s"
    )


def test_criterion_4_surrogate_proximity():
    heis = get_problem("heisenberg")
    points = [scheme_gap(heis, "nv", "discrete-nv", N, 10000, 42) for N in (8, 16, 32, 64, 128, 256)]
    gaps = [pt.err for pt in points]
    noise_floor = 1e-12
    if max(gaps) <= noise_floor:
        # on this catalog problem the surrogate reproduces the scheme exactly
        # (nilpotent fields), which satisfies the proximity bound outright;
        # the decay-rate fit is exercised on the non-degenerate linear problem
        detail = f"heisenberg max L2 gap={max(gaps):.2e} <= {noise_floor:.0e} (surrogate exact)"
        ok = True
    else:
        fit = fit_rate(points, T=heis.T)
        detail = f"heisenberg surrogate gap slope={fit.slope:.4f} (want >=0.8)"
        ok = fit.slope >= 0.8
    lin = get_problem("linear-nc")
    lin_points = [scheme_gap(lin, "nv", "discrete-nv", N, 10000, 42) for N in (8, 16, 32, 64, 128, 256)]
    lin_fit = fit_rate(lin_points, T=lin.T)
    ok = ok and lin_fit.slope >= 0.8
    assert _report(4, ok, detail + f"; linear-nc witness slope={lin_fit.slope:.4f} (want >=0.8)")


def test_criterion_5_limit_law_heisenberg():
    # refine 32 resolves the reference's iterated integrals: the rescaled-error
    # variance equals T^2/2 exactly at every substep resolution (the unresolved
    # within-substep remainder cancels against the scheme's capture term)
    heis = get_problem("heisenberg")
    t0 = time.perf_counter()
    rep = limit_law_study(
        heis, N=256, paths=100000, master_seed=123, n_fine_limit=4096, refine_factor=32
    )
    elapsed = time.perf_counter() - t0
    var_scheme = float(rep.cov_scheme[1, 1])
    var_limit = float(rep.cov_limit[1, 1])
    pval = float(rep.ks_pvalue[1])
    ok = (
        0.45 <= var_scheme <= 0.55
        and 0.49 <= var_limit <= 0.51
        and pval > 0.01
        and elapsed <= 300.0
    )
    assert _report(
        5,
        ok,
        f"heisenberg var_scheme={var_scheme:.4f} (want [0.45,0.55]), "
        f"var_limit={var_limit:.4f} (want [0.49,0.51]), ks_p={pval:.4f} (want >0.01), "
        f"runtime={elapsed:.0f}s (cap 300s)",
    )


def test_criterion_6_commutative_collapse():
    dc = get_problem("diag-comm")
    limit = simulate_limit_sde(dc, paths=20000, n_fine=2048, master_seed=42)
    exactly_zero = bool(np.all(limit == 0.0))
    scaled_var = {}
    for N in (64, 256):
        samples = normalized_error_samples(dc, N, 10000, 42, refine_factor=64)
        # samples are sqrt(N) * err, so their total variance is N * Var(err_T)
        scaled_var[N] = float(np.trace(np.atleast_2d(np.cov(samples, rowvar=False))))
    decays = scaled_var[256] <= 0.5 * scaled_var[64]
    ok = exactly_zero and decays
    assert _report(
        6,
        ok,
        f"diag-comm limit samples zero={exactly_zero}, "
        f"N*Var(err_T): N=64 -> {scaled_var[64]:.3e}, N=256 -> {scaled_var[256]:.3e} "
        f"(want second <= half of first)",
    )


def test_criterion_7_source_term_variance():
    results = {}
    for N in (4, 64):
        est = source_term_variance(N=N, j=2, m=1, t=1.0, paths=200000, master_seed=42)
        results[N] = est
    ok = all(0.48 <= est.var_est <= 0.52 for est in results.values())
    detail = ", ".join(
        f"N={N}: var={est.var_est:.4f}+-{est.stderr:.4f}" for N, est in results.items()
    )
    assert _report(7, ok, detail + " (want [0.48,0.52], analytic 0.5)")


def test_criterion_8_mlmc_variance_decay():
    heis = mlmc_estimate(
        get_problem("heisenberg"), "coord2", L_max=6, paths_per_level=10000, master_seed=42
    )
    dc = mlmc_estimate(
        get_problem("diag-comm"), "norm2", L_max=6, paths_per_level=10000, master_seed=42
    )
    ok = 0.7 <= heis.beta_fit <= 1.4 and 1.6 <= dc.beta_fit <= 2.5
    assert _report(
        8,
        ok,
        f"beta heisenberg/coord2={heis.beta_fit:.3f} (want [0.7,1.4]), "
        f"beta diag-comm/norm2={dc.beta_fit:.3f} (want [1.6,2.5])",
    )


def test_criterion_9_thread_count_determinism(tmp_path):
    runs = {
        "convergence": [
            "convergence",
            "--problem",
            "heisenberg",
            "--scheme",
            "nv",
            "--nladder",
            "8,16,32",
            "--paths",
            "400",
            "--refine",
            "8",
            "--seed",
            "42",
        ],
        "mlmc": [
            "mlmc",
            "--problem",
            "diag-comm",
            "--payoff",
            "norm2",
            "--levels",
            "3",
            "--paths-per-level",
            "500",
            "--seed",
            "42",
        ],
    }
    stems = {"convergence": "rate", "mlmc": "mlmc"}
    ok = True
    details = []
    for name, args in runs.items():
        bodies = []
        for threads in (1, 4):
            out = tmp_path / f"{name}-t{threads}"
            assert main(args + ["--threads", str(threads), "--out", str(out)]) == 0
            bodies.append(csv_body(out / f"{stems[name]}.csv"))
        same = bodies[0] == bodies[1]
        ok = ok and same
        details.append(f"{name}: byte-identical={same}")
    assert _report(9, ok, "; ".join(details))
