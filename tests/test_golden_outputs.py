"""Golden CLI outputs: sha256 of every command's CSV body on small runs.

The digests were recorded before the Monte Carlo engine, the scheme driver
and the flow layer were consolidated; a refactor that changes any per-path
value, chunk reduction or float formatting changes a digest. Metadata lines
(config hash, git revision) are excluded, so the digests pin results only.
"""

import hashlib

import pytest

from nvlab import get_problem, scheme_gap
from nvlab.cli import main
from nvlab.report import csv_body

COMMON = ["--seed", "11", "--threads", "1", "--format", "csv"]

RUNS = {
    "problems": (["problems"], "problems"),
    "convergence-heisenberg-nv": (
        ["convergence", "--problem", "heisenberg", "--scheme", "nv"]
        + ["--nladder", "4,8,16", "--paths", "200", "--refine", "8"],
        "rate",
    ),
    "convergence-diag-comm-discrete-nv": (
        ["convergence", "--problem", "diag-comm", "--scheme", "discrete-nv"]
        + ["--nladder", "4,8,16", "--paths", "200", "--refine", "4"],
        "rate",
    ),
    "convergence-gbm1d-euler": (
        ["convergence", "--problem", "gbm1d", "--scheme", "euler"]
        + ["--nladder", "4,8,16", "--paths", "200", "--refine", "1"],
        "rate",
    ),
    "limit-law-heisenberg": (
        ["limit-law", "--problem", "heisenberg", "--N", "8", "--paths", "200"]
        + ["--nfine", "64", "--refine", "4"],
        "limitlaw",
    ),
    "source-term": (
        ["source-term", "--N", "4", "--t", "0.6", "--paths", "400", "--substeps", "8"],
        "sourceterm",
    ),
    "mlmc-diag-comm": (
        ["mlmc", "--problem", "diag-comm", "--payoff", "norm2", "--levels", "3"]
        + ["--paths-per-level", "200"],
        "mlmc",
    ),
}

GOLDEN = {
    "problems": "36aef452abfea2c0efdbbe4288151a48dccde799a22208bc8492f736451f9e78",
    "convergence-heisenberg-nv": "25cc3dbb2ed4eeea56dcd482bac8e2f2666dfbfebf86a089112fe472a2448949",
    "convergence-diag-comm-discrete-nv": "6d3a86f17db016c538789142da75d691323bcef253edf9c6576079f04da22dcf",
    "convergence-gbm1d-euler": "99a43abf6bdffce6b77171bb2d3572cf5629e0137da8a042d36cceb09ece5d65",
    "limit-law-heisenberg": "a3b5be507a3aa31c0fd1f170992e7a5ccea9439002a1b02d5a7b54d87248d855",
    "source-term": "5b99316aeb26c476130c5234e971f90ff0ac2a866c00998a64bbb592dcdc582b",
    "mlmc-diag-comm": "b81d8ae05537a9309035fd047849d762ecffdae17cc37925f76ede2a2cb7df81",
}

GOLDEN_GAP = "ErrorPoint(N=8, err=0.02644560106130768, stderr=0.004543891509242418, p=1)"


@pytest.mark.parametrize("name", sorted(RUNS))
def test_golden_csv_body(name, tmp_path, capsys):
    argv, stem = RUNS[name]
    assert main(argv + COMMON + ["--out", str(tmp_path)]) == 0
    capsys.readouterr()
    body = csv_body(tmp_path / f"{stem}.csv")
    assert hashlib.sha256(body.encode()).hexdigest() == GOLDEN[name]


def test_golden_scheme_gap():
    pt = scheme_gap(get_problem("linear-nc"), "nv", "discrete-nv", 8, 200, 11)
    assert repr(pt) == GOLDEN_GAP
