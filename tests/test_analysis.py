import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from nvlab import (
    ErrorPoint,
    FlowExplosionError,
    PathBundle,
    Problem,
    VectorFieldSet,
    analysis,
    cli,
    compare_distributions,
    fit_rate,
    get_problem,
    level_difference_samples,
    limit_law_study,
    normalized_error_samples,
    scheme_gap,
    simulate_limit_sde,
    source_term_variance,
    strong_error,
    trajectory,
    util,
)
import nvlab.paths as paths_module
from nvlab.paths import AUX_DOMAIN, DW_DOMAIN, StreamPool, coarsen, make_bundle_batch

from oracles import (
    assert_same_bits,
    exploding_problem,
    first_explosion,
    fixed_tiles,
    jacobian_bracket,
    ladder_rows_whole_chunk,
    normalized_errors_whole_chunk,
    nv_every_step,
    reference_states,
    source_term_values_whole_chunk,
)

# ---------------------------------------------------------------------------
# strong error
# ---------------------------------------------------------------------------


def test_strong_error_gbm_scheme_exact(gbm):
    pt = strong_error(gbm, "nv", 32, 200, 1, refine_factor=1)
    assert pt.err <= 1e-12
    assert pt.stderr == 0.0 or pt.stderr <= 1e-12


def test_strong_error_heisenberg_order_half_ratio(heisenberg):
    e64 = strong_error(heisenberg, "nv", 64, 3000, 7)
    e256 = strong_error(heisenberg, "nv", 256, 3000, 7)
    ratio = e64.err / e256.err
    assert 1.5 <= ratio <= 2.5  # h^(1/2) scaling: 4x steps halve the error


def test_strong_error_diag_comm_order_one_ratio(diag_comm):
    e64 = strong_error(diag_comm, "nv", 64, 2000, 7)
    e256 = strong_error(diag_comm, "nv", 256, 2000, 7)
    ratio = e64.err / e256.err
    assert 2.8 <= ratio <= 5.2  # h^1 scaling: 4x steps quarter the error


def test_strong_error_input_validation(heisenberg, diag_comm):
    with pytest.raises(ValueError):
        strong_error(heisenberg, "nv", 8, 50, 0)  # too few paths
    with pytest.raises(ValueError):
        strong_error(diag_comm, "nv", 8, 200, 0, refine_factor=1)  # no reference
    with pytest.raises(ValueError):
        strong_error(heisenberg, "nv", 8, 200, 0, p=0)
    with pytest.raises(ValueError, match="N=12 does not divide"):
        strong_error(heisenberg, "nv", (8, 12, 16), 200, 0)
    with pytest.raises(ValueError, match="N=8 is repeated"):
        strong_error(heisenberg, "nv", (8, 16, 8), 200, 0)
    with pytest.raises(ValueError, match="reference"):
        strong_error(heisenberg, "exact", (8, 16), 200, 0)


@pytest.mark.parametrize("name, scheme", [("heisenberg", "nv"), ("diag-comm", "discrete-nv")])
def test_strong_error_ladder_matches_per_rung_oracle(name, scheme):
    # every rung runs on sums of the finest rung's increments of one bundle
    # and is compared with one reference at the finest rung's grid
    problem = get_problem(name)
    Ns, N_max, refine, paths, seed = (4, 16, 8), 16, 4, 100, 3
    points = strong_error(problem, scheme, Ns, paths, seed, refine_factor=refine)
    bundle = make_bundle_batch(seed, 0, paths, N_max * refine, problem.d, problem.T)
    ref = reference_states(problem, bundle, N_max)
    top = coarsen(bundle, N_max)
    for pt, N in zip(points, Ns):
        block = N_max // N
        rung = PathBundle(
            T=problem.T,
            dW=top.dW.reshape(paths, N, block, problem.d).sum(axis=2),
            eta=top.eta[:, ::block],
        )
        states = trajectory(problem, scheme, rung, N).states
        sup_sq = np.sum((ref[:, ::block] - states) ** 2, axis=2).max(axis=1)
        assert pt.N == N
        assert pt.err == pytest.approx(math.sqrt(sup_sq.mean()), rel=1e-12)
    # the finest rung is exactly the one-rung estimate, and a ladder given to
    # strong_error is the same run
    assert points[1] == strong_error(problem, scheme, N_max, paths, seed, refine_factor=refine)
    assert strong_error(problem, scheme, list(Ns), paths, seed, refine_factor=refine) == points


def test_strong_error_higher_moment_order(heisenberg):
    pt = strong_error(heisenberg, "nv", 16, 500, 3, p=2, refine_factor=16)
    assert pt.p == 2 and pt.err > 0


def test_scheme_gap_same_scheme_is_zero(heisenberg):
    gap = scheme_gap(heisenberg, "nv", "nv", 16, 300, 5)
    assert gap.err == 0.0


@pytest.mark.parametrize("paths", [-1, 0, 1])
def test_estimators_reject_fewer_than_two_paths(heisenberg, paths):
    # one path gave a zero standard error, none failed in split_paths
    with pytest.raises(ValueError, match="scheme_gap needs paths >= 2"):
        scheme_gap(heisenberg, "nv", "discrete-nv", 8, paths, 0)
    with pytest.raises(ValueError, match="normalized_error_samples needs paths >= 2"):
        normalized_error_samples(heisenberg, 8, paths, 0)
    # zero paths gave an empty (0, n) array
    with pytest.raises(ValueError, match="simulate_limit_sde needs paths >= 2"):
        simulate_limit_sde(heisenberg, paths, n_fine=8)


def test_normalized_error_samples_names_N(heisenberg):
    with pytest.raises(ValueError, match="normalized_error_samples needs N >= 1"):
        normalized_error_samples(heisenberg, 0, 100, 0)


def _record_draws(monkeypatch):
    """The path count of every bundle the estimators draw, in order."""
    sizes = []

    def draw(master_seed, path_start, n_paths, *rest, **kwargs):
        sizes.append(n_paths)
        return make_bundle_batch(master_seed, path_start, n_paths, *rest, **kwargs)

    monkeypatch.setattr(analysis, "make_bundle_batch", draw)
    return sizes


def _record_chunks(monkeypatch):
    """The chunk sizes of every run_paths call of the estimators."""
    layouts = []

    def compute_chunks(*args):
        chunks = compute(*args)
        layouts.append([count for _, count in chunks])
        return chunks

    compute = util.compute_chunks
    monkeypatch.setattr(util, "compute_chunks", compute_chunks)
    return layouts


def _record_rows(monkeypatch):
    """The per-path values of every run_paths call of the estimators."""
    rows = []

    def run_paths(*args, **kwargs):
        rows.append(util.run_paths(*args, **kwargs))
        return rows[-1]

    monkeypatch.setattr(analysis, "run_paths", run_paths)
    return rows


def _check_tiles(sizes, paths, tile_bytes):
    # one-path tiles, or tiles that do not divide the path count
    assert sum(sizes) == paths
    if tile_bytes == 1:
        assert set(sizes) == {1}
    else:
        assert len(sizes) > 1 and paths % sizes[0] != 0


# 1024 fine steps: one path a tile at 1 byte a tile, a few at 100 kB; no tile
# of 2, 4 or 6 paths divides 101
@pytest.mark.parametrize("tile_bytes", [1, 100_000])
@pytest.mark.parametrize("name", ["heisenberg", "gbm1d"])
def test_closed_form_tiles_equal_whole_chunk(monkeypatch, name, tile_bytes):
    problem = get_problem(name)
    paths, Ns, refine, seed = 101, (4, 8, 16), 64, 23
    ladder = ladder_rows_whole_chunk(problem, "nv", Ns, refine, paths, seed)
    errors = normalized_errors_whole_chunk(problem, 16, refine, paths, seed)
    monkeypatch.setattr(paths_module, "PATH_TILE_BYTES", tile_bytes)
    sizes, rows = _record_draws(monkeypatch), _record_rows(monkeypatch)
    strong_error(problem, "nv", Ns, paths, seed, refine_factor=refine)
    _check_tiles(sizes, paths, tile_bytes)
    assert_same_bits(rows[-1], ladder)
    sizes.clear()
    got = normalized_error_samples(problem, 16, paths, seed, refine_factor=refine)
    _check_tiles(sizes, paths, tile_bytes)
    assert_same_bits(got, errors)


@pytest.mark.parametrize("budget", [None, 1])
@pytest.mark.parametrize("name", ["diag-comm", "linear-nc"])
def test_proxy_normalized_errors_equal_whole_chunk(monkeypatch, name, budget):
    # the proxy reference marches each chunk whole: one chunk of 50 paths,
    # or four chunks of at most 16 paths (the budget's floor), split evenly
    # and not dividing them, give the bits of one bundle of every path
    problem = get_problem(name)
    paths, N, refine, seed = 50, 8, 4, 31
    want = normalized_errors_whole_chunk(problem, N, refine, paths, seed)
    if budget is not None:
        monkeypatch.setattr(util, "CHUNK_FLOAT_BUDGET", budget)
    layouts = _record_chunks(monkeypatch)
    got = normalized_error_samples(problem, N, paths, seed, refine_factor=refine)
    assert layouts == [[paths] if budget is None else [13, 13, 12, 12]]
    assert_same_bits(got, want)


def _no_closed_form(name):
    problem = get_problem(name)
    return dataclasses.replace(problem, exact_solution=None)


# (N, refine, NOISE_BLOCK) and the blocks the proxy draws: 8-step blocks, 24
# steps that do not divide n_fine, one block of n_fine, and n_fine = 20 and
# 21, no multiple of 8 (the coarse steps of 7 make a block of 56 at least)
PROXY_BLOCKS = [
    ((64, 4, 8), [8] * 32),
    ((64, 4, 24), [24] * 10 + [16]),
    ((64, 4, 1024), [256]),
    ((5, 4, 8), [8, 8, 4]),
    ((3, 7, 8), [21]),
]


@pytest.mark.parametrize("read", ["tiled", "blocked"])
@pytest.mark.parametrize("grid, blocks", PROXY_BLOCKS)
@pytest.mark.parametrize("name", ["gbm1d", "diag-comm", "linear-nc"])
def test_streamed_proxy_equals_whole_bundle(monkeypatch, name, grid, blocks, read):
    # the proxy reference marched block by block, and the bundle at N summed
    # block by block, equal the proxy's oracle on one whole bundle and
    # coarsen's sums (pairwise at d = 1), signs of zero included; the blocks
    # are drawn in path tiles (37 paths: the tiles do not divide them) or
    # whole and read in short blocks
    problem = _no_closed_form(name)  # gbm1d without its closed form: d = 1
    (N, refine, noise_block), paths, start, seed = grid, 37, 5, 13
    n_fine = N * refine
    bundle = make_bundle_batch(seed, start, paths, n_fine, problem.d, problem.T)
    states = reference_states(problem, bundle, N)
    coarse = coarsen(bundle, N)
    monkeypatch.setattr(paths_module, "NOISE_BLOCK", noise_block)
    if read == "blocked":
        monkeypatch.setattr(paths_module, "TIME_MAJOR_READ_BYTES", 0)
    drawn = []
    normal_blocks = analysis.normal_blocks

    def recording(*args):
        *rest, each_tile = args

        def each(k0, p0, fine_dW, fine_eta):
            if p0 == 0:
                drawn.append(fine_dW.shape[1])
            each_tile(k0, p0, fine_dW, fine_eta)

        return normal_blocks(*rest, each)

    monkeypatch.setattr(analysis, "normal_blocks", recording)
    for terminal in (False, True):
        drawn.clear()
        ref, got = analysis._reference_chunk(
            problem, "exact", seed, start, paths, n_fine, N, terminal
        )
        assert drawn == blocks
        assert_same_bits(ref, states[:, -1] if terminal else states)
        assert_same_bits(got.dW, coarse.dW)
        np.testing.assert_array_equal(got.eta, coarse.eta)
        assert got.path_start == start and not got.dW.flags.writeable


def test_proxy_ladder_chunk_peaks_at_what_chunk_floats_counts(diag_comm):
    # one 200-path chunk of a proxy ladder at 8192 fine steps holds its bundle
    # and reference at 64 steps and one 1024-step block of noise, near what
    # chunk_floats counts and far under the chunk's fine bundle, which it
    # held whole when the proxy marched a whole bundle
    paths, Ns, refine = 200, (16, 32, 64), 128
    fine_bundle = max(Ns) * refine * (diag_comm.d + 1)
    footprint = analysis.chunk_floats(diag_comm, Ns, max(Ns) * refine)
    tracemalloc.start()
    try:
        strong_error(diag_comm, "nv", Ns, paths, 3, refine_factor=refine)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert 0.9 * footprint < peak / (8 * paths) < 1.1 * footprint
    assert footprint < fine_bundle / 5


def test_closed_form_ladder_chunk_holds_one_fine_tile(heisenberg):
    # the ladder's peak allocation over one chunk (200 paths are one) stays
    # under a quarter of its paths' fine bundle, which the chunk held whole
    # when it drew every path at once
    paths, Ns, refine = 200, (16, 32, 64), 64
    tracemalloc.start()
    try:
        strong_error(heisenberg, "nv", Ns, paths, 3, refine_factor=refine)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < paths * max(Ns) * refine * heisenberg.d * 8 / 4


def test_closed_form_reference_sums_each_fine_tile_once(monkeypatch, heisenberg):
    # one-path tiles of 1024 fine steps: each is coarsened once, for both the
    # closed form and the chunk's bundle at the finest rung
    paths, Ns, refine = 101, (4, 8, 16), 64
    n_fine = max(Ns) * refine
    block_sums, fine_sums = paths_module._block_sums, []

    def counted(dW, block):
        if dW.shape[1] == n_fine:
            fine_sums.append(dW.shape[0])
        return block_sums(dW, block)

    monkeypatch.setattr(paths_module, "PATH_TILE_BYTES", 1)
    monkeypatch.setattr(paths_module, "_block_sums", counted)
    sizes = _record_draws(monkeypatch)
    strong_error(heisenberg, "nv", Ns, paths, 23, refine_factor=refine)
    assert set(sizes) == {1} and fine_sums == sizes


def test_ladder_chunk_peak_is_what_chunk_floats_counts(heisenberg):
    # each rung's coarse bundle goes once the rung is compared, so one chunk
    # of the 8..512 ladder peaks under its bundle at 512 steps, three arrays
    # of 513 states and the largest lower rung's bundle, and chunk_floats
    # counts that peak
    paths, Ns, refine = 2000, (8, 16, 32, 64, 128, 256, 512), 2
    d, n = heisenberg.d, heisenberg.n
    held = 512 * (d + 1) + 3 * 513 * n + 256 * (d + 1)
    footprint = analysis.chunk_floats(heisenberg, Ns, 512 * refine)
    tracemalloc.start()
    try:
        strong_error(heisenberg, "nv", Ns, paths, 3, refine_factor=refine)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert 0.8 * footprint < peak / (8 * paths) <= footprint <= held


def test_error_samples_chunk_peak_is_what_chunk_floats_counts(heisenberg):
    # one chunk of 1000 paths at N = 256: nv reads its coarse bundle as one
    # time-major copy (4.4 MB, under TIME_MAJOR_READ_BYTES) beside the bundle
    paths, N, refine = 1000, 256, 8
    footprint = analysis.chunk_floats(heisenberg, (N,), N * refine, terminal=True)
    tracemalloc.start()
    try:
        normalized_error_samples(heisenberg, N, paths, 3, refine_factor=refine)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert 0.8 * footprint < peak / (8 * paths) <= footprint


# ---------------------------------------------------------------------------
# rate fitting
# ---------------------------------------------------------------------------


def _ladder(err_of_h, Ns=(8, 16, 32, 64)):
    return [ErrorPoint(N=N, err=err_of_h(1.0 / N), stderr=0.0) for N in Ns]


def test_fit_rate_recovers_linear():
    fit = fit_rate(_ladder(lambda h: h))
    assert abs(fit.slope - 1.0) <= 1e-12
    assert abs(fit.r_squared - 1.0) <= 1e-12


def test_fit_rate_recovers_square_root():
    fit = fit_rate(_ladder(lambda h: np.sqrt(h)))
    assert abs(fit.slope - 0.5) <= 1e-12


def test_fit_rate_intercept_and_horizon():
    # err = 3 h: intercept log(3) when T=1
    fit = fit_rate(_ladder(lambda h: 3.0 * h), T=1.0)
    assert abs(fit.intercept - np.log(3.0)) <= 1e-12
    # the slope is invariant under the horizon convention
    fit2 = fit_rate(_ladder(lambda h: 3.0 * h), T=2.0)
    assert abs(fit2.slope - 1.0) <= 1e-12


def test_fit_rate_excludes_zero_points():
    points = _ladder(lambda h: h) + [ErrorPoint(N=128, err=0.0, stderr=0.0)]
    fit = fit_rate(points)
    assert fit.excluded == (128,)
    assert abs(fit.slope - 1.0) <= 1e-12


def test_fit_rate_validation():
    with pytest.raises(ValueError):
        fit_rate(_ladder(lambda h: h, Ns=(8, 16)))
    with pytest.raises(ValueError):
        fit_rate([ErrorPoint(8, 0.1, 0.0), ErrorPoint(8, 0.2, 0.0), ErrorPoint(16, 0.1, 0.0)])
    zeros = [ErrorPoint(N, 0.0, 0.0) for N in (8, 16, 32)]
    with pytest.raises(ValueError):
        fit_rate(zeros)


# ---------------------------------------------------------------------------
# rescaled terminal error
# ---------------------------------------------------------------------------


def test_normalized_error_gbm_collapses(gbm):
    samples = normalized_error_samples(gbm, N=64, paths=500, master_seed=3, refine_factor=1)
    assert np.max(np.abs(samples)) <= 1e-10 * np.sqrt(64)


def test_normalized_error_heisenberg_first_coordinate_exact(heisenberg):
    # coordinate 1 is integrated without error by the constant-field flow, and
    # the reference accumulates the same coarse increments in the same order
    samples = normalized_error_samples(heisenberg, N=32, paths=800, master_seed=4)
    assert np.max(np.abs(samples[:, 0])) == 0.0


def test_normalized_error_heisenberg_second_coordinate_variance(heisenberg):
    samples = normalized_error_samples(heisenberg, N=64, paths=15000, master_seed=11)
    var = samples[:, 1].var(ddof=1)
    assert abs(var - 0.5) <= 0.05  # T^2/2 target, 10% window


# ---------------------------------------------------------------------------
# limiting affine SDE simulator
# ---------------------------------------------------------------------------


def test_limit_sde_commutative_exactly_zero(diag_comm, gbm):
    for prob in (diag_comm, gbm):
        v = simulate_limit_sde(prob, paths=400, n_fine=128, master_seed=2)
        assert np.array_equal(v, np.zeros_like(v))


def test_limit_sde_heisenberg_law(heisenberg):
    v = simulate_limit_sde(heisenberg, paths=20000, n_fine=1024, master_seed=6)
    assert np.max(np.abs(v[:, 0])) == 0.0  # no feedback into coordinate 1
    var = v[:, 1].var(ddof=1)
    se = 0.5 * np.sqrt(2.0 / 20000)
    assert abs(var - 0.5) <= 3 * se


def _limit_sde_by_callables(problem, paths, n_fine, master_seed):
    """The limit-SDE Euler loop as first written: path-major states, the
    coefficient callables (which take state rows, hence ``x.T``) and their
    Jacobian-formula brackets evaluated at every step. Returns X and V at
    every step, as (paths, n_fine + 1, 2n), with no finiteness check."""
    f = problem.fields
    pairs = f.pairs
    delta = problem.T / n_fine
    coef = math.sqrt(problem.T / 2.0)
    bundle = make_bundle_batch(master_seed, 0, paths, n_fine, problem.d, problem.T)
    dB = np.empty((paths, n_fine, len(pairs)))
    pool = StreamPool(master_seed)
    for i in range(paths if pairs else 0):
        pool.seek(i, AUX_DOMAIN).standard_normal(dB.shape[1:], out=dB[i])
    dB *= math.sqrt(delta)
    x = np.broadcast_to(problem.x0, (paths, problem.n)).copy()
    v = np.zeros((paths, problem.n))
    states = [np.concatenate([x, v], axis=1)]
    for k in range(n_fine):
        dx = f.b(x.T).T * delta
        dv = np.einsum("...ik,...k->...i", f.jac_b(x.T), v) * delta
        for j in range(problem.d):
            w = bundle.dW[:, k, j][:, None]
            dx = dx + f.sigma[j](x.T).T * w
            dv = dv + np.einsum("...ik,...k->...i", f.jac_sigma[j](x.T), v) * w
        for idx, (j, m) in enumerate(pairs):
            dv = dv + coef * jacobian_bracket(f, j, m, x) * dB[:, k, idx][:, None]
        x = x + dx
        v = v + dv
        states.append(np.concatenate([x, v], axis=1))
    return np.stack(states, axis=1)


def _affine_test_problem():
    """Three non-commuting fields, one with an offset, and a drift, so X reaches
    V: a symmetric A_1, a nilpotent A_2 and a translation c_3, with all three
    brackets non-zero. A_0 = S + 1/2 sum_j A_j^2 makes the Stratonovich drift
    the symmetric field S x, so every field has a closed-form flow."""
    rng = np.random.default_rng(5)
    S, A1 = (0.15 * (G + G.T) for G in rng.standard_normal((2, 2, 2)))
    A2 = np.array([[0.0, 0.3 * rng.standard_normal()], [0.0, 0.0]])
    A = [S + 0.5 * (A1 @ A1), A1, A2, np.zeros((2, 2))]
    c = [np.zeros(2), np.zeros(2), np.zeros(2), 0.5 * rng.standard_normal(2)]
    fields = VectorFieldSet.affine(A=A, c=c)
    return Problem("affine-nc", fields, x0=np.array([0.2, -0.4]), T=0.8)


def _blowup_problem():
    """heisenberg's Brownian fields with the stiff drift A_0 = diag(0, -1e300):
    the exact drift flow decays the second coordinate to 0, so the scheme
    side of the limit-law study stays finite, but the limit SDE's Euler step
    multiplies V by -1e300 h and overflows it."""
    heis = get_problem("heisenberg").fields
    return Problem(
        "blowup",
        VectorFieldSet.affine(A=[np.diag([0.0, -1e300]), *heis.A[1:]], c=heis.c),
        x0=np.zeros(2),
        T=1.0,
    )


def test_limit_sde_overflow_raises(tmp_path, monkeypatch, capsys):
    blowup = _blowup_problem()
    with np.errstate(over="ignore", invalid="ignore"):
        # the limit records only its terminal state, but its error names the
        # first non-finite step, which the march finds by marching again
        match = (
            r"^non-finite state from limit SDE on problem 'blowup', grid N=8: "
            r"first at step 3 \(t=0.375\), path 0$"
        )
        with pytest.raises(FloatingPointError, match=match):
            simulate_limit_sde(blowup, paths=6, n_fine=8, master_seed=1)
        # a chunk of paths 3..5 run first names its global path 3, not its row 0
        monkeypatch.setattr(util, "compute_chunks", lambda *args: [(3, 3), (0, 3)])
        with pytest.raises(FloatingPointError, match="path 3$"):
            simulate_limit_sde(blowup, paths=6, n_fine=8, master_seed=1)
        monkeypatch.undo()
        monkeypatch.setattr(cli, "get_problem", lambda name: blowup)
        args = ["limit-law", "--problem", "blowup", "--N", "2", "--paths", "6", "--nfine", "8"]
        assert cli.main(args + ["--refine", "2", "--out", str(tmp_path)]) == cli.EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert "numerical failure: non-finite state from limit SDE on problem 'blowup'" in err
    assert not (tmp_path / "limitlaw.csv").exists()


# one chunk of the exploding problem x0 exp(400 W) (x0 = 1), where about one
# path in twelve overflows: its ladder, error samples and gap at seed 2, and
# an MLMC level of 64 paths at seed 1; the limit SDE runs the blowup problem
EXPLODING = (128, 2, (4, 8, 16), 4)  # paths, seed, ladder, refine
EXPLODING_CASES = [
    "ladder-closed", "ladder-proxy", "gap", "samples-closed", "samples-proxy",
    "limit-sde", "mlmc-0", "mlmc-3",
]


def _first_grid(problem, bundle, grids, key=None):
    """("nv", N, step, path) of a grid N of ``grids`` whose nv march on
    ``bundle``, recording every step, goes non-finite: the first such grid
    in ``grids`` order, or the least by ``key`` of each one's (N, step)."""
    found = []
    for N in grids:
        at = first_explosion(nv_every_step(problem, bundle, N))
        if at is not None:
            found.append((N, at[0], bundle.path_start + at[1]))
    return ("nv", *(min(found, key=key) if key else found[0]))


def _exploding_case(case):
    """One marching estimator on an exploding problem: the problem, the call,
    the (label, N, step, path) that a whole-bundle march recording every
    step finds on the call's noise, and the CLI arguments of the same run
    (None for scheme_gap, which no command runs)."""
    closed = case.endswith("closed")
    problem = exploding_problem(1.0, closed_form=closed)
    paths, seed, Ns, refine = EXPLODING
    fine = make_bundle_batch(seed, 0, paths, max(Ns) * refine, 1, 1.0)
    proxy = ("nv-proxy", fine.n_fine, *first_explosion(nv_every_step(problem, fine, fine.n_fine)))
    study = ["--problem", "exploding", "--paths", str(paths), "--seed", str(seed)]
    study += ["--refine", str(refine)]
    if case.startswith("ladder"):
        def run():
            strong_error(problem, "nv", Ns, paths, seed, refine_factor=refine)

        want = _first_grid(problem, coarsen(fine, max(Ns)), Ns) if closed else proxy
        args = ["convergence", "--scheme", "nv", "--nladder", "4,8,16", *study]
    elif case.startswith("samples"):
        def run():
            normalized_error_samples(problem, 16, paths, seed, refine_factor=refine)

        want = _first_grid(problem, fine, (16,)) if closed else proxy
        args = ["limit-law", "--N", "16", "--nfine", "8", *study]
    elif case == "gap":
        def run():
            scheme_gap(problem, "nv", "discrete-nv", 16, paths, seed)

        want = _first_grid(problem, make_bundle_batch(seed, 0, paths, 16, 1, 1.0), (16,))
        args = None
    elif case == "limit-sde":
        problem = _blowup_problem()

        def run():
            simulate_limit_sde(problem, 6, 8, seed)

        want = ("limit SDE", 8, *first_explosion(_limit_sde_by_callables(problem, 6, 8, seed)))
        args = ["limit-law", "--problem", "blowup", "--N", "2", "--paths", "6"]
        args += ["--nfine", "8", "--refine", "2"]
    else:
        level = int(case[-1])
        n_l = 2**level

        def run():
            level_difference_samples(problem, "coord1", level, 64, 1)

        # the grid whose first non-finite state comes first in time, the
        # fine one on a tie
        bundle = make_bundle_batch(1, level * 64, 64, n_l, 1, 1.0)
        grids = (n_l, n_l // 2)[: level + 1]
        want = _first_grid(problem, bundle, grids, key=lambda f: (f[1] * n_l // f[0], -f[0]))
        args = ["mlmc", "--problem", "exploding", "--payoff", "coord1", "--levels"]
        args += [str(max(level, 1)), "--paths-per-level", "64", "--seed", "1"]
    return problem, run, want, args


@pytest.mark.parametrize("case", EXPLODING_CASES)
def test_every_march_names_its_first_non_finite_step(case, tmp_path, monkeypatch):
    # each marching estimator names the label, the grid N, the first
    # non-finite step and its time, and that step's first path, as a march
    # over the whole bundle that records every step finds them on the same
    # noise; the CLI exits with code 2 on each that a command runs
    with np.errstate(over="ignore", invalid="ignore"):
        problem, run, want, args = _exploding_case(case)
        with pytest.raises(FlowExplosionError) as info:
            run()
        err = info.value
        label, N, step, path = want
        assert (err.scheme, err.N, err.step, err.path) == want
        assert err.t == step * problem.T / N
        assert str(err).startswith(f"non-finite state from {label} on problem {problem.name!r}")
        assert str(err).endswith(f"grid N={N}: first at step {step} (t={err.t:.3g}), path {path}")
        if args is not None:
            monkeypatch.setattr(cli, "get_problem", lambda name: problem)
            assert cli.main(args + ["--out", str(tmp_path)]) == cli.EXIT_NUMERICAL


def test_limit_sde_seeks_increments_and_aux_only(heisenberg, monkeypatch):
    # two streams per path, each opened once: its increments and its
    # auxiliary noise, no signs
    opened = []
    open_stream = paths_module._open_stream

    def counting_open(master_seed, path_index, domain):
        opened.append((path_index, domain))
        return open_stream(master_seed, path_index, domain)

    monkeypatch.setattr(paths_module, "_open_stream", counting_open)
    monkeypatch.setattr(paths_module, "NOISE_BLOCK", 3)  # three blocks a stream
    simulate_limit_sde(heisenberg, 5, n_fine=8, master_seed=3)
    assert sorted(opened) == sorted((i, dom) for i in range(5) for dom in (DW_DOMAIN, AUX_DOMAIN))


@pytest.mark.parametrize("name", ["heisenberg", "diag-comm", "gbm1d", "linear-nc", "affine-nc"])
def test_limit_sde_matches_callable_loop(name, monkeypatch):
    # paths run in one chunk; 40 paths x 100 steps fit TIME_MAJOR_READ_BYTES,
    # so each noise block is read as one block, and with the read size at 0
    # a whole-run block is read in 16 blocks of 6 steps and a partial one of
    # 4 (gbm1d has no pairs: its dB has width 0); the noise is drawn whole
    # and in blocks of 7 steps, the last one partial
    prob = _affine_test_problem() if name == "affine-nc" else get_problem(name)
    ref = _limit_sde_by_callables(prob, 40, 100, 4)[:, -1, prob.n :]
    for read_bytes, noise_block in ((paths_module.TIME_MAJOR_READ_BYTES, 7), (0, 100), (0, 7)):
        monkeypatch.setattr(paths_module, "TIME_MAJOR_READ_BYTES", read_bytes)
        monkeypatch.setattr(paths_module, "NOISE_BLOCK", noise_block)
        new = simulate_limit_sde(prob, paths=40, n_fine=100, master_seed=4)
        if name in ("heisenberg", "diag-comm", "gbm1d"):
            np.testing.assert_array_equal(new, ref)
            np.testing.assert_array_equal(np.signbit(new), np.signbit(ref))
        else:
            assert np.any(new != 0.0)
            np.testing.assert_allclose(new, ref, rtol=1e-12, atol=1e-12 * np.abs(ref).max())


def test_limit_sde_same_bits_across_threads_and_chunks(heisenberg, monkeypatch):
    # one 70-path chunk drawn whole, two threads' 35-path chunks and 14-path
    # chunks (the budget's floor of 16, split evenly), both in 40-step noise
    # blocks, draw each path's same streams, so every layout gives the same
    # bits
    want = simulate_limit_sde(heisenberg, paths=70, n_fine=96, master_seed=5, threads=1)
    monkeypatch.setattr(paths_module, "NOISE_BLOCK", 40)
    got = [simulate_limit_sde(heisenberg, paths=70, n_fine=96, master_seed=5, threads=2)]
    monkeypatch.setattr(util, "CHUNK_FLOAT_BUDGET", 1)
    got.append(simulate_limit_sde(heisenberg, paths=70, n_fine=96, master_seed=5, threads=1))
    for v in got:
        np.testing.assert_array_equal(v, want)
        np.testing.assert_array_equal(np.signbit(v), np.signbit(want))


def test_limit_sde_chunk_holds_one_noise_block(heisenberg):
    # a 200-path x 4096-step chunk draws its d + 1 = 3 normals a step one
    # NOISE_BLOCK of 1024 steps at a time, a few paths at a time, into one
    # time-major buffer that every block reuses: its peak is near one block
    # of noise (a path-major copy beside it would double it), far under the
    # 4096 x 3 floats a path of the whole noise
    paths, n_fine = 200, 4096
    whole = paths * n_fine * 3 * 8
    block = paths * paths_module.NOISE_BLOCK * 3 * 8
    tracemalloc.start()
    try:
        simulate_limit_sde(heisenberg, paths, n_fine=n_fine, master_seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.2 * block < whole / 3


def test_limit_sde_self_consistent_in_resolution(heisenberg):
    # Euler bias control: doubling the grid moves the variance by noise only
    v1 = simulate_limit_sde(heisenberg, paths=10000, n_fine=512, master_seed=8)
    v2 = simulate_limit_sde(heisenberg, paths=10000, n_fine=1024, master_seed=9)
    var1, var2 = v1[:, 1].var(ddof=1), v2[:, 1].var(ddof=1)
    se = 0.5 * np.sqrt(2.0 / 10000) * np.sqrt(2.0)
    assert abs(var1 - var2) <= 2 * se


# ---------------------------------------------------------------------------
# distribution comparison
# ---------------------------------------------------------------------------


def test_compare_identical_samples():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((500, 2))
    rep = compare_distributions(a, a)
    np.testing.assert_array_equal(rep.ks_stat, np.zeros(2))
    np.testing.assert_array_equal(rep.ks_pvalue, np.ones(2))
    np.testing.assert_array_equal(rep.mean_scheme, rep.mean_limit)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_compare_independent_normal_samples_accept(seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((10000, 1))
    b = rng.standard_normal((10000, 1))
    rep = compare_distributions(a, b)
    assert rep.ks_pvalue[0] > 0.01


def test_compare_rejects_sample_sets_not_two_dimensional():
    # a flat vector could be m scalar samples or one m-dimensional sample
    two_d = np.zeros((10, 1))
    for bad in (np.zeros(10), np.zeros((10, 1, 1)), 0.0):
        with pytest.raises(ValueError):
            compare_distributions(bad, two_d)
        with pytest.raises(ValueError):
            compare_distributions(two_d, bad)


def test_compare_dimension_mismatch():
    with pytest.raises(ValueError):
        compare_distributions(np.zeros((10, 2)), np.zeros((10, 3)))
    with pytest.raises(ValueError):
        compare_distributions(np.zeros((0, 2)), np.zeros((10, 2)))
    # one sample has no covariance
    with pytest.raises(ValueError):
        compare_distributions(np.zeros((10, 2)), np.zeros((1, 2)))


def test_compare_covariances_symmetric_psd(heisenberg):
    v = simulate_limit_sde(heisenberg, paths=2000, n_fine=256, master_seed=14)
    rng = np.random.default_rng(0)
    rep = compare_distributions(v, rng.standard_normal((2000, 2)))
    for cov in (rep.cov_scheme, rep.cov_limit):
        assert np.max(np.abs(cov - cov.T)) <= 1e-10
        assert np.min(np.linalg.eigvalsh(cov)) >= -1e-10


def _ks_cases():
    rng = np.random.default_rng(31)
    a = rng.standard_normal(300)
    ties = rng.integers(0, 5, 400).astype(float)
    return {
        "identical": (a, a.copy()),
        "identical-zeros": (np.zeros(200), np.zeros(200)),
        "unequal-sizes": (a, rng.standard_normal(170) + 0.1),
        "unequal-sizes-swapped": (rng.standard_normal(170) + 0.1, a),
        "ties": (ties[:150], ties[150:]),
        "ties-across-sets": (np.array([0.0, 1.0, 1.0, 2.0]), np.array([1.0, 1.0, 2.0, 3.0, 3.0])),
    }


@pytest.mark.parametrize("case", sorted(_ks_cases()))
def test_ks_statistic_is_scipys_bit_for_bit(case):
    from scipy.stats import ks_2samp  # the oracle only

    x, y = _ks_cases()[case]
    rep = compare_distributions(x[:, None], y[:, None])
    # signs compared too: identical samples give scipy's +0.0, not -0.0
    assert_same_bits(rep.ks_stat[0], ks_2samp(x, y, method="asymp").statistic)


def test_ks_pvalue_is_the_kolmogorov_distribution():
    from scipy.special import kolmogorov  # the oracle only

    lam = np.linspace(0.0, 4.0, 801)  # crosses the switch of series at 1
    got = np.array([analysis._kolmogorov_sf(x) for x in lam])
    np.testing.assert_allclose(got, kolmogorov(lam), rtol=0, atol=1e-13)
    # compare_distributions reads it at sqrt(m n / (m + n)) D
    x, y = _ks_cases()["unequal-sizes"]
    rep = compare_distributions(x[:, None], y[:, None])
    scale = math.sqrt(len(x) * len(y) / (len(x) + len(y)))
    assert abs(rep.ks_pvalue[0] - kolmogorov(scale * rep.ks_stat[0])) <= 1e-13


@pytest.mark.parametrize("size", [200, 1000])
def test_ks_pvalue_is_near_the_exact_one(size):
    from scipy.stats import ks_2samp  # the oracle only

    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        a, b = rng.standard_normal((2, size))
        rep = compare_distributions(a[:, None], b[:, None])
        worst = max(worst, abs(rep.ks_pvalue[0] - ks_2samp(a, b, method="exact").pvalue))
    assert worst <= 0.005


def test_limit_law_study_pipeline(heisenberg):
    rep = limit_law_study(heisenberg, N=32, paths=4000, master_seed=20, n_fine_limit=512)
    assert rep.ks_pvalue.shape == (2,)
    # coordinate 2 carries the bracket-driven error; a modest run already agrees
    assert rep.ks_pvalue[1] > 0.001


@pytest.mark.slow
def test_ks_pvalues_uniform_under_null():
    # calibration: identical input laws must give uniform p-values
    pvals = []
    for seed in range(200):
        rng = np.random.default_rng(1000 + seed)
        a = rng.standard_normal((2000, 1))
        b = rng.standard_normal((2000, 1))
        pvals.append(compare_distributions(a, b).ks_pvalue[0])
    pvals = np.array(pvals)
    for q in (0.1, 0.5, 0.9):
        assert abs(np.mean(pvals <= q) - q) <= 0.1
    assert np.mean(pvals > 0.01) >= 0.95


# ---------------------------------------------------------------------------
# source-term variance
# ---------------------------------------------------------------------------


def _check_source(est, target, substeps=64):
    # statistical window plus the quantified sub-discretization bias
    bias = target / substeps
    assert abs(est.var_est - target) <= 3 * max(est.stderr, 1e-12) + bias + 0.002


def test_source_term_full_horizon_small_N():
    est = source_term_variance(N=4, j=2, m=1, t=1.0, paths=40000, master_seed=15)
    assert est.theory == 0.5
    _check_source(est, 0.5)


def test_source_term_full_horizon_larger_N():
    est = source_term_variance(N=16, j=2, m=1, t=1.0, paths=20000, master_seed=16, substeps=32)
    _check_source(est, 0.5, substeps=32)


def test_source_term_half_horizon():
    est = source_term_variance(N=4, j=2, m=1, t=0.5, paths=40000, master_seed=17)
    assert est.theory == 0.25
    _check_source(est, 0.25)


def test_source_term_zero_time_degenerate():
    est = source_term_variance(N=4, j=2, m=1, t=0.0, paths=100, master_seed=0)
    assert est.var_est == 0.0 and est.theory == 0.0


def test_source_term_pairs_identical_in_law():
    a = source_term_variance(N=4, j=2, m=1, t=1.0, paths=500, master_seed=21)
    b = source_term_variance(N=4, j=5, m=3, t=1.0, paths=500, master_seed=21)
    assert (a.var_est, a.stderr) == (b.var_est, b.stderr)
    assert (b.j, b.m) == (5, 3)


@pytest.mark.parametrize("tile", [None, 1, 3, 16])
@pytest.mark.parametrize("N, substeps, kept", [(4, 64, 256), (8, 8, 37), (1, 2, 1)])
def test_source_term_tiles_equal_whole_chunk(monkeypatch, N, substeps, kept, tile):
    # 250 paths: no tile of 3 or 16 divides them, nor the default tile of
    # 102 paths at 256 fine steps; t = kept / n_fine keeps the first kept
    # substeps
    paths, seed, n_fine = 250, 19, N * substeps
    bundle = make_bundle_batch(seed, 0, paths, n_fine, 2, 1.0)
    mask = (np.arange(n_fine) < kept).reshape(N, substeps).astype(float)
    want = source_term_values_whole_chunk(bundle, mask, math.sqrt(N))
    if tile is not None:
        monkeypatch.setattr(analysis, "path_tiles", fixed_tiles(tile))
    sizes, rows = _record_draws(monkeypatch), _record_rows(monkeypatch)
    source_term_variance(
        N=N, j=2, m=1, t=kept / n_fine, paths=paths, master_seed=seed, substeps=substeps
    )
    assert sum(sizes) == paths and (tile is None or max(sizes) == tile)
    assert_same_bits(rows[-1], want)


@pytest.mark.parametrize("tile_bytes", [1, 100_000])
def test_source_term_draws_equal_whole_chunk(monkeypatch, tile_bytes):
    # 1024 fine steps: one path a tile at 1 byte a tile, two at 100 kB
    paths, N, substeps, seed = 101, 16, 64, 29
    bundle = make_bundle_batch(seed, 0, paths, N * substeps, 2, 1.0)
    mask = np.ones((N, substeps))
    want = source_term_values_whole_chunk(bundle, mask, math.sqrt(N))
    monkeypatch.setattr(paths_module, "PATH_TILE_BYTES", tile_bytes)
    sizes, rows = _record_draws(monkeypatch), _record_rows(monkeypatch)
    source_term_variance(N=N, j=2, m=1, t=1.0, paths=paths, master_seed=seed, substeps=substeps)
    _check_tiles(sizes, paths, tile_bytes)
    assert_same_bits(rows[-1], want)


def test_source_term_draws_short_sign_streams_once_a_chunk(monkeypatch):
    # 256 signs a path are evaluated by philox_words, whose cost is mostly
    # fixed: one call a chunk (chunks of at most 16 paths, the budget's
    # floor), not one a 3-path tile; 1024 signs a path are read per tile,
    # with no call
    philox_words, calls = paths_module.philox_words, []

    def spy(master_seed, domain, path_start, n_paths, words):
        calls.append(n_paths)
        return philox_words(master_seed, domain, path_start, n_paths, words)

    monkeypatch.setattr(paths_module, "philox_words", spy)
    monkeypatch.setattr(analysis, "path_tiles", fixed_tiles(3))
    monkeypatch.setattr(util, "CHUNK_FLOAT_BUDGET", 1)
    layouts, sizes = _record_chunks(monkeypatch), _record_draws(monkeypatch)
    source_term_variance(N=4, j=2, m=1, t=1.0, paths=50, master_seed=7)
    assert calls == layouts[0] == [13, 13, 12, 12] and max(sizes) == 3
    calls.clear()
    source_term_variance(N=16, j=2, m=1, t=1.0, paths=50, master_seed=7)
    assert calls == [] and max(sizes) == 3


def test_source_term_validation():
    with pytest.raises(ValueError):
        source_term_variance(N=4, j=1, m=1, t=1.0, paths=100, master_seed=0)
    with pytest.raises(ValueError):
        source_term_variance(N=4, j=1, m=2, t=1.0, paths=100, master_seed=0)
    with pytest.raises(ValueError):
        source_term_variance(N=4, j=2, m=1, t=1.5, paths=100, master_seed=0)
    with pytest.raises(ValueError):
        source_term_variance(N=0, j=2, m=1, t=1.0, paths=100, master_seed=0)
    with pytest.raises(ValueError):
        source_term_variance(N=4, j=2, m=1, t=1.0, paths=1, master_seed=0)
