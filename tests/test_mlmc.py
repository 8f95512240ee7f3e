import tracemalloc

import numpy as np
import pytest

import nvlab.mlmc as mlmc_module
import nvlab.paths as paths_module
from nvlab import (
    Problem,
    VectorFieldSet,
    cli,
    get_problem,
    level_difference_samples,
    make_bundle_batch,
    mlmc_estimate,
    parse_payoff,
    util,
)
from nvlab.catalog import GBM_MU
from nvlab.flows import FlowExplosionError
from nvlab.schemes import nv_trajectory
from oracles import assert_same_bits, exploding_problem, mlmc_level_whole_bundle


def test_payoff_registry():
    x = np.array([[1.5, -2.0], [0.5, 3.0]])
    np.testing.assert_array_equal(parse_payoff("coord1", 2)(x), [1.5, 0.5])
    np.testing.assert_array_equal(parse_payoff("coord2", 2)(x), [-2.0, 3.0])
    np.testing.assert_allclose(parse_payoff("norm2", 2)(x), np.linalg.norm(x, axis=1))
    np.testing.assert_array_equal(parse_payoff("call(1.0)", 2)(x), [0.5, 0.0])
    with pytest.raises(KeyError):
        parse_payoff("lookback", 2)
    with pytest.raises(ValueError):
        parse_payoff("coord2", 1)


def test_gbm_level_differences_vanish(gbm):
    # the splitting scheme solves this problem exactly at every resolution,
    # and both resolutions see the same total increments
    for level in (1, 3, 5):
        diff = level_difference_samples(gbm, "coord1", level, 300, 9)
        assert np.max(np.abs(diff)) <= 1e-12


def test_level_zero_is_plain_payoff(gbm):
    vals = level_difference_samples(gbm, "coord1", 0, 300, 9, n0=2)
    assert vals.shape == (300,)
    assert np.all(vals > 0)  # geometric paths stay positive


def test_levels_use_disjoint_streams(heisenberg):
    a = level_difference_samples(heisenberg, "coord2", 2, 200, 31)
    b = level_difference_samples(heisenberg, "coord2", 3, 200, 31)
    assert not np.array_equal(a, b)


def test_telescoping_identity(heisenberg):
    rep = mlmc_estimate(heisenberg, "coord2", L_max=3, paths_per_level=400, master_seed=12)
    assert rep.estimate == sum(ls.mean_diff for ls in rep.levels)
    assert rep.total_cost == sum(ls.cost for ls in rep.levels)


def test_cost_accounting(heisenberg):
    rep = mlmc_estimate(heisenberg, "coord2", L_max=2, paths_per_level=100, master_seed=1, n0=2)
    assert [ls.N for ls in rep.levels] == [2, 4, 8]
    assert rep.levels[0].cost == 100 * 2
    assert rep.levels[1].cost == 100 * (4 + 2)
    assert rep.levels[2].cost == 100 * (8 + 4)


def test_heisenberg_martingale_payoffs_have_zero_mean(heisenberg):
    # E[W^1_T] = 0 and the iterated integral is a mean-zero martingale
    for payoff in ("coord1", "coord2"):
        rep = mlmc_estimate(heisenberg, payoff, L_max=4, paths_per_level=2500, master_seed=18)
        assert abs(rep.estimate) <= 3 * rep.stderr


def test_gbm_estimate_matches_known_mean(gbm):
    rep = mlmc_estimate(gbm, "coord1", L_max=4, paths_per_level=4000, master_seed=19)
    target = gbm.x0[0] * np.exp(GBM_MU * gbm.T)
    assert abs(rep.estimate - target) <= 3 * rep.stderr


def test_variance_decay_exponents_quick(heisenberg, diag_comm):
    # coarse version of the level-variance profile; the acceptance suite runs
    # the full levels 2..6 profile at 1e4 paths per level
    rep_h = mlmc_estimate(heisenberg, "coord2", L_max=4, paths_per_level=3000, master_seed=22)
    assert 0.5 <= rep_h.beta_fit <= 1.6
    rep_d = mlmc_estimate(diag_comm, "norm2", L_max=4, paths_per_level=3000, master_seed=22)
    assert 1.3 <= rep_d.beta_fit <= 2.8


def test_level_chunk_peak_is_what_its_count_holds(monkeypatch, heisenberg):
    # one chunk of 2000 paths at level 5 (32 steps, one block of noise)
    # peaks under its noise (d normals a step, and a step's sign a byte as
    # drawn, in its time-major copy and as a sweep row) and about ten arrays
    # of each grid's states, which its chunks are sized by; only terminal
    # states are recorded, so a payoff that views them (coord2) peaks no
    # higher than one that computes a new array from them (norm2)
    paths, n_l, d, n = 2000, 32, heisenberg.d, heisenberg.n
    held = n_l * d + 3 * n_l // 8 + 2 * 10 * n
    counts, peaks = [], {}

    def run_paths(paths, per_path, *args, **kwargs):
        counts.append(per_path)
        return util.run_paths(paths, per_path, *args, **kwargs)

    monkeypatch.setattr(mlmc_module, "run_paths", run_paths)
    for payoff in ("coord2", "norm2"):
        tracemalloc.start()
        try:
            level_difference_samples(heisenberg, payoff, 5, paths, 3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        peaks[payoff] = peak / (8 * paths)
    assert counts == [held, held]
    assert all(0.8 * held < peak <= held for peak in peaks.values())
    assert peaks["coord2"] <= 1.01 * peaks["norm2"]


def test_failing_level_peaks_within_its_count(monkeypatch):
    # one chunk of 1000 paths at level 11 (2048 steps, two noise blocks) of
    # x0 exp(400 W), where about one path in twelve overflows: the marches
    # that find the failing grid, step and path each draw the chunk's noise
    # afresh and keep only terminal states, so the chunk peaks within its
    # count, with slack for the two generators a path that no count holds
    problem = exploding_problem(1.0)
    paths, counts = 1000, []

    def run_paths(paths, per_path, *args, **kwargs):
        counts.append(per_path)
        return util.run_paths(paths, per_path, *args, **kwargs)

    monkeypatch.setattr(mlmc_module, "run_paths", run_paths)
    tracemalloc.start()
    try:
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(FlowExplosionError):
            level_difference_samples(problem, "coord1", 11, paths, 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak / (8 * paths) <= 1.1 * counts[0]


def _record_terminals(monkeypatch):
    """Have each chunk's march hand back, besides its result, its terminal
    state rows by their global path: {path_start: rows}."""
    seen = {}

    def recording(march, rows_of):
        def call(*args):
            out = march(*args)
            seen[args[-1]] = rows_of(out).copy()
            return out

        return call

    march, coupled = mlmc_module.nv_march, mlmc_module.coupled_terminals
    monkeypatch.setattr(mlmc_module, "nv_march", recording(march, lambda out: out[-1]))
    monkeypatch.setattr(mlmc_module, "coupled_terminals", recording(coupled, lambda out: out))
    return seen


# level 5 is 32 steps: one block by default, four 8-step blocks, or two
# 16-step blocks; a block is read whole or (READ_BYTES 0) in sub-blocks, the
# odd TIME_MAJOR_BLOCK of 7 cut to 6 steps, whole coarse steps: 32 steps as
# 6 * 5 + 2, 16 as 6, 6, 4. n0 = 3 at level 2 is 12 steps: one block, or
# blocks of 8 and 4 steps (sub-blocks 6, 2 and 4)
SUB_BLOCKS = {"TIME_MAJOR_READ_BYTES": 0, "TIME_MAJOR_BLOCK": 7, "TIME_MAJOR_FRACTION": 1}
READS = {
    "one whole block": {},
    "one block in sub-blocks": SUB_BLOCKS,
    "whole blocks": {"NOISE_BLOCK": 8},
    "blocks in sub-blocks": {"NOISE_BLOCK": 16, **SUB_BLOCKS},
}
PAYOFFS = [("gbm1d", "coord1"), ("heisenberg", "coord2"), ("diag-comm", "norm2")]


@pytest.mark.parametrize("name, payoff", PAYOFFS)
@pytest.mark.parametrize("level, n0", [(0, 1), (1, 1), (5, 1), (2, 3)])
@pytest.mark.parametrize("read", list(READS))
@pytest.mark.parametrize("threads", [1, 2])
def test_level_equals_whole_bundle_oracle(name, payoff, level, n0, read, threads, monkeypatch):
    # 23 paths in chunks of 8, 8 and 7: each grid's terminal states and the
    # level's samples are those of nv on one bundle of every path and on it
    # coarsened, bit for bit and signs of zero included, whatever the blocks
    # and the threads
    problem, paths, seed = get_problem(name), 23, 7
    for constant, value in READS[read].items():
        monkeypatch.setattr(paths_module, constant, value)
    monkeypatch.setattr(util, "compute_chunks", lambda total, *_: util.split_paths(total, 3))
    seen = _record_terminals(monkeypatch)
    got = level_difference_samples(problem, payoff, level, paths, seed, n0, threads)
    fine, coarse = mlmc_level_whole_bundle(problem, level, paths, seed, n0)
    starts = [level * paths + start for start, _ in util.split_paths(paths, 3)]
    assert sorted(seen) == starts
    rows = np.concatenate([seen[start] for start in starts], axis=1)
    n = problem.n
    assert_same_bits(rows[:n].T, fine)
    f = parse_payoff(payoff, n)
    want = f(fine)
    if level:
        assert_same_bits(rows[n:].T, coarse)
        want = want - f(coarse)
    assert_same_bits(got, want)


def test_mlmc_validation(heisenberg):
    with pytest.raises(ValueError):
        mlmc_estimate(heisenberg, "coord2", L_max=0, paths_per_level=100, master_seed=0)
    with pytest.raises(ValueError):
        mlmc_estimate(heisenberg, "coord2", L_max=2, paths_per_level=1, master_seed=0)
    with pytest.raises(KeyError):
        mlmc_estimate(heisenberg, "nope", L_max=2, paths_per_level=100, master_seed=0)


def _saturating_problem():
    """One state from x0 = 1e160 under a zero drift and a zero Brownian field:
    the states stay finite, but norm2 squares them to inf."""
    return Problem(
        "saturating",
        VectorFieldSet.affine(A=np.zeros((2, 1, 1)), c=np.zeros((2, 1))),
        x0=np.array([1e160]),
        T=1.0,
    )


def test_payoff_overflow_raises(tmp_path, monkeypatch, capsys):
    problem = _saturating_problem()
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(
            FloatingPointError,
            match="norm2 payoff on problem 'saturating' at level 0: first at path 0$",
        ):
            level_difference_samples(problem, "norm2", 0, 6, 1)
        # level 1 holds global paths 6..11 (inf - inf there); a chunk of its
        # paths 3..5 run first names its global path 9, not its row 0
        monkeypatch.setattr(util, "compute_chunks", lambda *args: [(3, 3), (0, 3)])
        with pytest.raises(FloatingPointError, match="at level 1: first at path 9$"):
            level_difference_samples(problem, "norm2", 1, 6, 1)
        monkeypatch.undo()
        # finite payoffs of the same states pass
        assert np.all(level_difference_samples(problem, "coord1", 0, 6, 1) == 1e160)
        monkeypatch.setattr(cli, "get_problem", lambda name: problem)
        args = ["mlmc", "--problem", "saturating", "--payoff", "norm2", "--levels", "1"]
        assert cli.main(args + ["--paths-per-level", "6", "--out", str(tmp_path)]) == (
            cli.EXIT_NUMERICAL
        )
    assert "numerical failure: non-finite norm2 payoff" in capsys.readouterr().err
    assert not (tmp_path / "mlmc.csv").exists()


def _first_explosions(problem, level, paths, seed):
    """{N: (step, path)} of each grid whose nv march on the whole bundle goes
    non-finite: its first such step and that step's first such path."""
    n_l = 2**level
    bundle = make_bundle_batch(seed, level * paths, paths, n_l, problem.d, problem.T)
    found = {}
    for N in (n_l, n_l // 2) if level else (n_l,):
        try:
            nv_trajectory(problem, bundle, N)
        except FlowExplosionError as exc:
            found[N] = (exc.step, exc.path)
    return found


@pytest.mark.parametrize(
    "x0, level, seed, grid",
    [
        (1.0, 0, 1, 1),  # level 0 has one grid
        (1.0, 3, 1, 8),  # the fine grid first: its step 5, the coarse grid's 2.5
        (1.0, 1, 3, 2),  # both grids at time T: the fine one is named
        (1e-300, 1, 3, 1),  # only the coarse grid: its summed increment overflows
    ],
)
def test_explosion_names_level_grid_step_and_path(
    x0, level, seed, grid, tmp_path, monkeypatch, capsys
):
    # 64 paths in one chunk, level l's global paths 64 l .. 64 l + 63: the
    # error names the grid whose first non-finite state comes first in time,
    # its step and its path, as nv on the whole bundle finds them
    problem = exploding_problem(x0)
    with np.errstate(over="ignore", invalid="ignore"):
        found = _first_explosions(problem, level, 64, seed)
        step, path = found[grid]
        assert min(found, key=lambda N: (found[N][0] * 2**level // N, -N)) == grid
        t = step / grid
        with pytest.raises(
            FloatingPointError,
            match=rf"^non-finite state from nv on problem 'exploding' at level {level}, "
            rf"grid N={grid}: first at step {step} \(t={t:.3g}\), path {path}$",
        ):
            level_difference_samples(problem, "coord1", level, 64, seed)
        assert 64 * level <= path < 64 * (level + 1)
        monkeypatch.setattr(cli, "get_problem", lambda name: problem)
        args = ["mlmc", "--problem", "exploding", "--payoff", "coord1"]
        args += ["--levels", str(max(level, 1)), "--paths-per-level", "64", "--seed", str(seed)]
        assert cli.main(args + ["--out", str(tmp_path)]) == cli.EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert "numerical failure: non-finite state from nv on problem 'exploding'" in err
