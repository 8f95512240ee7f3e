"""Golden CLI outputs: sha256 of every command's CSV body on small runs.

The digests were recorded before the Monte Carlo engine, the scheme driver
and the flow layer were consolidated; a refactor that changes any per-path
value, chunk reduction or float formatting changes a digest. Metadata lines
(config hash, git revision) are excluded, so the digests pin results only.

The three ``convergence-*`` digests were re-recorded when the rungs of a
ladder came to share one bundle and one reference per path (common random
numbers); the finest rung's row kept its value. The one-rung estimators are
pinned separately by their ``ErrorPoint`` values, recorded before that change.
"""

import hashlib

import pytest

from nvlab import get_problem, paths, scheme_gap, strong_error
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
    "convergence-heisenberg-nv": "36863c87abe0e69b59a06be385658eea71829d3434fc08ed5b7510ff8ff53028",
    "convergence-diag-comm-discrete-nv": "f3c65cd45dccba01db5d8ddee6cf3730ddd6cc5f019a8f6c0e1af4541b7c9d66",
    "convergence-gbm1d-euler": "fa90f81c74279ada878315e468de9f7bbb879177386e5d73fae04267d4a00f6c",
    "limit-law-heisenberg": "f2da72e165d9cac76a89a49025f1d00905ca515a0224c8fbb8d78ad109cb23cc",
    "source-term": "5b99316aeb26c476130c5234e971f90ff0ac2a866c00998a64bbb592dcdc582b",
    "mlmc-diag-comm": "b81d8ae05537a9309035fd047849d762ecffdae17cc37925f76ede2a2cb7df81",
}

GOLDEN_GAP = "ErrorPoint(N=8, err=0.02644560106130768, stderr=0.004543891509242418, p=1)"

# strong_error(problem, scheme, N, 300 paths, seed 11, refine_factor=refine)
GOLDEN_STRONG = {
    ("gbm1d", "euler", 16, 4): "ErrorPoint(N=16, err=0.060963922967151855, "
    "stderr=0.0034237877471746535, p=1)",
    ("heisenberg", "nv", 16, 8): "ErrorPoint(N=16, err=0.2101975297147711, "
    "stderr=0.005354451135617842, p=1)",
    ("diag-comm", "nv", 8, 8): "ErrorPoint(N=8, err=0.029083600330527343, "
    "stderr=0.0013497330211562665, p=1)",
    ("linear-nc", "discrete-nv", 8, 4): "ErrorPoint(N=8, err=0.1492926695788376, "
    "stderr=0.006466733252977858, p=1)",
    # the kernel cases above leave unpinned: offsets c != 0 under euler and
    # discrete-nv (heisenberg), an off-diagonal A under euler (linear-nc)
    ("heisenberg", "discrete-nv", 16, 8): "ErrorPoint(N=16, err=0.2101975297147711, "
    "stderr=0.005354451135617843, p=1)",
    ("heisenberg", "euler", 16, 8): "ErrorPoint(N=16, err=0.20033320524306358, "
    "stderr=0.005759864715428225, p=1)",
    ("linear-nc", "euler", 8, 4): "ErrorPoint(N=8, err=0.15330272995882196, "
    "stderr=0.005602811164949212, p=1)",
}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_golden_csv_body(name, tmp_path, capsys):
    argv, stem = RUNS[name]
    assert main(argv + COMMON + ["--out", str(tmp_path)]) == 0
    capsys.readouterr()
    body = csv_body(tmp_path / f"{stem}.csv")
    assert hashlib.sha256(body.encode()).hexdigest() == GOLDEN[name]


def test_golden_limit_law_in_short_noise_blocks(tmp_path, capsys, monkeypatch):
    # the limit SDE's 64 steps drawn in blocks of 7, the last one partial
    monkeypatch.setattr(paths, "NOISE_BLOCK", 7)
    argv, stem = RUNS["limit-law-heisenberg"]
    assert main(argv + COMMON + ["--out", str(tmp_path)]) == 0
    capsys.readouterr()
    body = csv_body(tmp_path / f"{stem}.csv")
    assert hashlib.sha256(body.encode()).hexdigest() == GOLDEN["limit-law-heisenberg"]


# ids name the key (problem-scheme-N-refine), so a new pinned case renames no other
@pytest.mark.parametrize("case", sorted(GOLDEN_STRONG), ids=lambda case: "-".join(map(str, case)))
def test_golden_strong_error(case):
    name, scheme, N, refine = case
    pt = strong_error(get_problem(name), scheme, N, 300, 11, refine_factor=refine)
    assert repr(pt) == GOLDEN_STRONG[case]


def test_golden_scheme_gap():
    pt = scheme_gap(get_problem("linear-nc"), "nv", "discrete-nv", 8, 200, 11)
    assert repr(pt) == GOLDEN_GAP
