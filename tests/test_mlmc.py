import numpy as np
import pytest

from nvlab import (
    Problem,
    VectorFieldSet,
    cli,
    level_difference_samples,
    mlmc_estimate,
    parse_payoff,
    util,
)
from nvlab.catalog import GBM_MU


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
