import argparse
import dataclasses
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from nvlab import analysis, cli, get_problem, report, strong_error, util
from nvlab.cli import main
from nvlab.config import FILE_KEYS, RunConfig
from nvlab.report import csv_body


def read_json(path):
    return json.loads(path.read_text())


def test_problems_lists_catalog(capsys, tmp_path):
    assert main(["problems", "--out", str(tmp_path)]) == 0
    listing = json.loads(capsys.readouterr().out)
    assert [d["id"] for d in listing] == ["gbm1d", "heisenberg", "diag-comm", "linear-nc"]
    heis = next(d for d in listing if d["id"] == "heisenberg")
    assert heis == {
        "id": "heisenberg",
        "n": 2,
        "d": 2,
        "T": 1.0,
        "x0": [0.0, 0.0],
        "commutative_flag": False,
    }
    assert (tmp_path / "problems.csv").exists()
    assert (tmp_path / "problems.json").exists()


def test_convergence_euler_baseline(tmp_path, capsys):
    code = main(
        [
            "convergence",
            "--problem",
            "gbm1d",
            "--scheme",
            "euler",
            "--nladder",
            "8,16,32,64",
            "--paths",
            "2000",
            "--refine",
            "1",
            "--out",
            str(tmp_path),
        ]
    )
    assert code == 0
    payload = read_json(tmp_path / "rate.json")
    assert 0.35 <= payload["fit"]["slope"] <= 0.65
    body = csv_body(tmp_path / "rate.csv")
    header, *rows = body.strip().splitlines()
    assert header == "problem,scheme,N,h,err,stderr,p"
    assert len(rows) == 4


def test_determinism_across_thread_counts(tmp_path):
    base = [
        "convergence",
        "--problem",
        "heisenberg",
        "--scheme",
        "nv",
        "--nladder",
        "8,16,32",
        "--paths",
        "200",
        "--refine",
        "8",
        "--seed",
        "5",
    ]
    out1, out3 = tmp_path / "t1", tmp_path / "t3"
    assert main(base + ["--threads", "1", "--out", str(out1)]) == 0
    assert main(base + ["--threads", "3", "--out", str(out3)]) == 0
    assert csv_body(out1 / "rate.csv") == csv_body(out3 / "rate.csv")


def test_source_term_determinism_and_value(tmp_path):
    base = [
        "source-term",
        "--N",
        "4",
        "--j",
        "2",
        "--m",
        "1",
        "--t",
        "1.0",
        "--paths",
        "4000",
        "--seed",
        "3",
    ]
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(base + ["--threads", "1", "--out", str(out1)]) == 0
    assert main(base + ["--threads", "4", "--out", str(out2)]) == 0
    assert csv_body(out1 / "sourceterm.csv") == csv_body(out2 / "sourceterm.csv")
    row = csv_body(out1 / "sourceterm.csv").strip().splitlines()[1].split(",")
    assert abs(float(row[4]) - 0.5) < 0.1
    assert float(row[6]) == 0.5


def test_rerun_with_changed_config_refused(tmp_path):
    args = [
        "convergence",
        "--problem",
        "gbm1d",
        "--scheme",
        "nv",
        "--nladder",
        "8,16,32",
        "--refine",
        "1",
        "--paths",
        "200",
        "--out",
        str(tmp_path),
    ]
    assert main(args) == 0
    changed = [arg if arg != "200" else "400" for arg in args]
    assert main(changed) == 3
    assert main(changed + ["--force"]) == 0


def _never_called(*args, **kwargs):
    raise AssertionError("the study ran before the refusal")


def test_refusals_come_before_the_study(tmp_path, monkeypatch, capsys):
    out = str(tmp_path)
    args = ["convergence", "--problem", "gbm1d", "--nladder", "4,8,16", "--refine", "1"]
    assert main(args + ["--paths", "100", "--out", out]) == 0
    lock = (tmp_path / report.LOCK_NAME).read_text()
    capsys.readouterr()
    monkeypatch.setattr(cli, "strong_error", _never_called)
    monkeypatch.setattr(analysis, "normalized_error_samples", _never_called)
    not_a_dir = tmp_path / "results.csv"
    not_a_dir.write_text("")
    # locks that are not JSON, or JSON but not an object
    corrupt = [tmp_path / "garbage", tmp_path / "list"]
    for d, text in zip(corrupt, ("garbage", "[1]")):
        d.mkdir()
        (d / report.LOCK_NAME).write_text(text)
    cases = [
        (args + ["--paths", "200", "--out", out], 3, "i/o error: "),
        (args + ["--paths", "100", "--out", str(not_a_dir)], 3, "i/o error: "),
        *(
            (args + ["--paths", "100", "--out", str(d)], 3, f"i/o error: {d / report.LOCK_NAME}: ")
            for d in corrupt
        ),
        (["convergence", "--nladder", "64,128"], 1, "usage error: need at least 3"),
        (["limit-law", "--nfine", "0", "--N", "64"], 1, "usage error: "),
        (["limit-law", "--paths", "1", "--N", "64"], 1, "usage error: "),
    ]
    for argv, code, prefix in cases:
        assert main(argv) == code, argv
        assert capsys.readouterr().err.startswith(prefix), argv
    assert (tmp_path / report.LOCK_NAME).read_text() == lock


def test_same_config_rerun_allowed(tmp_path):
    args = [
        "problems",
        "--out",
        str(tmp_path),
    ]
    assert main(args) == 0
    assert main(args) == 0
    # thread count is an execution knob, not part of the config identity
    assert main(args + ["--threads", "2"]) == 0


def test_usage_errors_exit_one(capsys):
    assert main(["convergence", "--problem", "unknown-problem"]) == 1
    assert main(["convergence", "--problem", "gbm1d", "--scheme", "rk7"]) == 1
    assert main(["mlmc", "--problem", "gbm1d", "--payoff", "basket"]) == 1
    assert main(["source-term", "--j", "1", "--m", "1"]) == 1
    assert main(["frobnicate"]) == 1
    assert main(["convergence", "--no-such-flag"]) == 1


@pytest.mark.parametrize(
    "argv, stem",
    [
        (["mlmc", "--payoff", "coord2", "--levels", "2", "--paths-per-level", "0"], "mlmc"),
        (["mlmc", "--payoff", "coord2", "--levels", "2", "--paths-per-level", "1"], "mlmc"),
        (["source-term", "--N", "4", "--paths", "1"], "sourceterm"),
        (["limit-law", "--paths", "1"], "limitlaw"),
        (["limit-law", "--N", "4", "--paths", "10", "--nfine", "0"], "limitlaw"),
    ],
)
def test_too_few_paths_or_steps_exit_one(argv, stem, tmp_path, capsys):
    # a variance needs two samples and a march needs a step: no nan and no traceback
    assert main(argv + ["--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err.startswith("usage error: ")
    assert not (tmp_path / f"{stem}.csv").exists()


def test_config_file_supplies_defaults_and_flags_override(tmp_path):
    cfg = tmp_path / "lab.cfg"
    cfg.write_text(
        "problem = gbm1d\n"
        "scheme = nv\n"
        "nladder = 8,16,32\n"
        "paths = 200\n"
        "refine = 1\n"
        "seed = 9  # inline comment\n"
    )
    out = tmp_path / "out"
    assert main(["convergence", "--config", str(cfg), "--out", str(out)]) == 0
    meta = read_json(out / "rate.json")["metadata"]
    assert meta["seed"] == 9
    assert meta["config"]["paths"] == 200

    out2 = tmp_path / "out2"
    assert main(["convergence", "--config", str(cfg), "--seed", "11", "--out", str(out2)]) == 0
    assert read_json(out2 / "rate.json")["metadata"]["seed"] == 11


def test_bad_config_file_rejected(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("nonsense line without equals\n")
    assert main(["problems", "--config", str(cfg)]) == 1
    cfg.write_text("unknown_key = 3\n")
    assert main(["problems", "--config", str(cfg)]) == 1
    # a file value is held to the flag's choices
    cfg.write_text("format = xml\n")
    assert main(["problems", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
    assert not (tmp_path / "out").exists()


def test_flags_and_config_keys_share_one_name_table():
    # every option flag is stored under its config-file key, and the keys name
    # every RunConfig field but the command and the flag-only --force
    parser = cli._build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    dests = {a.dest for p in sub.choices.values() for a in p._actions}
    assert dests - {"help", "config", "force"} == set(FILE_KEYS)
    fields = {f.name for f in dataclasses.fields(RunConfig)}
    assert set(FILE_KEYS.values()) == fields - {"command", "force"}
    args = parser.parse_args(["convergence", "--nladder", "8,16", "--paths", "300"])
    cfg = cli._resolve_config(args)
    assert (cfg.n_ladder, cfg.paths, cfg.force) == ((8, 16), 300, False)


def test_convergence_rejects_ladder_rung_not_dividing_the_finest(tmp_path, capsys):
    args = ["convergence", "--problem", "heisenberg", "--nladder", "8,12,16", "--paths", "200"]
    assert main(args + ["--out", str(tmp_path)]) == 1
    assert "N=12" in capsys.readouterr().err
    assert not (tmp_path / "rate.csv").exists()


@pytest.mark.parametrize("problem", ["heisenberg", "diag-comm"])
def test_ladder_outputs_identical_across_chunk_layouts(problem, tmp_path, monkeypatch):
    # the chunk plan is forced through the memory budget, so this holds on any
    # core count: one chunk, 16-path chunks, and ragged 43/43/42 chunks
    paths, Ns, refine = 128, (8, 16, 32), 4
    per_path = analysis.chunk_floats(get_problem(problem), Ns, 32 * refine)  # the ladder's
    layouts = {"one": 2**40, "sixteen": 1, "ragged": 50 * per_path}
    expected = {"one": [128], "sixteen": [16] * 8, "ragged": [43, 43, 42]}
    args = ["convergence", "--problem", problem, "--scheme", "nv", "--nladder", "8,16,32"]
    args += ["--paths", str(paths), "--refine", str(refine), "--threads", "1", "--format", "csv"]
    points, bodies = {}, {}
    for name, budget in layouts.items():
        monkeypatch.setattr(util, "CHUNK_FLOAT_BUDGET", budget)
        assert [c for _, c in util.compute_chunks(paths, per_path, 1)] == expected[name]
        points[name] = strong_error(get_problem(problem), "nv", Ns, paths, 9, 1, refine)
        out = tmp_path / name
        assert main(args + ["--out", str(out)]) == 0
        bodies[name] = csv_body(out / "rate.csv")
    assert points["one"] == points["sixteen"] == points["ragged"]
    assert bodies["one"] == bodies["sixteen"] == bodies["ragged"]


def test_format_selection(tmp_path):
    args = ["problems", "--format", "json", "--out", str(tmp_path / "j")]
    assert main(args) == 0
    assert (tmp_path / "j" / "problems.json").exists()
    assert not (tmp_path / "j" / "problems.csv").exists()
    args = ["problems", "--format", "csv", "--out", str(tmp_path / "c")]
    assert main(args) == 0
    assert (tmp_path / "c" / "problems.csv").exists()
    assert not (tmp_path / "c" / "problems.json").exists()


def test_flow_options_are_gone(tmp_path):
    # flows are closed forms only: no flow-check command, no RK4 settings
    assert main(["flow-check", "--problem", "heisenberg"]) == 1
    assert main(["problems", "--trials", "10"]) == 1
    for line in ("flows.delta_max = 0.1\n", "trials = 50\n"):
        cfg = tmp_path / "old.cfg"
        cfg.write_text(line)
        assert main(["problems", "--config", str(cfg)]) == 1


def test_limit_law_cli_gbm_collapses(tmp_path):
    code = main(
        [
            "limit-law",
            "--problem",
            "gbm1d",
            "--N",
            "16",
            "--paths",
            "500",
            "--nfine",
            "64",
            "--refine",
            "1",
            "--out",
            str(tmp_path),
        ]
    )
    assert code == 0
    rows = csv_body(tmp_path / "limitlaw.csv").strip().splitlines()[1:]
    assert len(rows) == 1
    fields = rows[0].split(",")
    assert float(fields[5]) <= 1e-18  # var_scheme
    assert float(fields[6]) <= 1e-18  # var_limit


def test_limit_law_cli_heisenberg(tmp_path):
    code = main(
        [
            "limit-law",
            "--problem",
            "heisenberg",
            "--N",
            "16",
            "--paths",
            "2000",
            "--nfine",
            "256",
            "--out",
            str(tmp_path),
        ]
    )
    assert code == 0
    rows = csv_body(tmp_path / "limitlaw.csv").strip().splitlines()[1:]
    assert len(rows) == 2
    coord2 = rows[1].split(",")
    assert abs(float(coord2[5]) - 0.5) < 0.1
    assert abs(float(coord2[6]) - 0.5) < 0.1


def test_mlmc_cli(tmp_path):
    code = main(
        [
            "mlmc",
            "--problem",
            "heisenberg",
            "--payoff",
            "coord2",
            "--levels",
            "3",
            "--paths-per-level",
            "400",
            "--out",
            str(tmp_path),
        ]
    )
    assert code == 0
    body = csv_body(tmp_path / "mlmc.csv").strip().splitlines()
    assert body[0] == "level,N,mean_diff,var_diff,cost"
    assert len(body) == 5  # levels 0..3
    payload = read_json(tmp_path / "mlmc.json")
    assert "beta_fit" in payload and "estimate" in payload


def test_csv_metadata_block_has_config_hash(tmp_path):
    assert main(["problems", "--out", str(tmp_path)]) == 0
    text = (tmp_path / "problems.csv").read_text()
    assert "# config_hash = " in text
    assert "# rng = philox4x64-10" in text


def test_git_describe_reads_the_package_checkout(tmp_path, monkeypatch):
    package_dir = Path(report.__file__).resolve().parent
    try:
        res = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            cwd=package_dir,
            capture_output=True,
            text=True,
        )
    except OSError:
        pytest.skip("git is not available")
    expected = res.stdout.strip() if res.returncode == 0 else "unknown"
    monkeypatch.chdir(tmp_path)  # not a checkout: the cwd must not matter
    assert report.git_describe() == expected


def test_git_describe_ignores_an_enclosing_repository_not_tracking_the_package(tmp_path):
    # a copy of the package inside an unrelated repository is not that
    # repository's code until the repository tracks it
    identity = ["-c", "user.name=t", "-c", "user.email=t@t", "-c", "commit.gpgsign=false"]

    def git(*args):
        return subprocess.run(
            ["git", *identity, *args], cwd=tmp_path, capture_output=True, text=True, check=True
        ).stdout.strip()

    try:
        git("init", "-q")
    except (OSError, subprocess.CalledProcessError):
        pytest.skip("git is not available")
    (tmp_path / "README").write_text("unrelated\n")
    git("add", "README")
    git("commit", "-q", "-m", "unrelated")
    shutil.copytree(
        Path(report.__file__).resolve().parent,
        tmp_path / "nvlab",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    probe = "import nvlab, nvlab.report as r; print(nvlab.__file__); print(r.git_describe())"
    env = {**os.environ, "PYTHONPATH": str(tmp_path)}

    def describe():
        res = subprocess.run(
            [sys.executable, "-c", probe], cwd=tmp_path, env=env,
            capture_output=True, text=True, check=True,
        )
        module, revision = res.stdout.split()
        assert Path(module).parent == tmp_path / "nvlab"
        return revision

    assert describe() == "unknown"
    git("add", "nvlab")
    git("commit", "-q", "-m", "track the copy")
    assert describe() == git("describe", "--always", "--dirty")


def test_metadata_paths_is_the_command_path_count():
    cfg = RunConfig(command="mlmc", paths=10000, paths_per_level=300)
    assert report.run_metadata(cfg)["paths"] == 300
    cfg = RunConfig(command="convergence", paths=1200, paths_per_level=300)
    assert report.run_metadata(cfg)["paths"] == 1200


_FRESH_INTERPRETER = """
import sys
import nvlab.cli
argv = ["limit-law", "--problem", "heisenberg", "--N", "8", "--paths", "200", "--nfine", "64"]
assert nvlab.cli.main(argv + ["--refine", "4", "--out", sys.argv[1]]) == 0
loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
assert not loaded, f"a limit-law run loaded {loaded}"
"""


def test_limit_law_run_loads_no_scipy(tmp_path):
    # a fresh interpreter: this test session has long since imported scipy
    src = Path(cli.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    res = subprocess.run(
        [sys.executable, "-c", _FRESH_INTERPRETER, str(tmp_path)],
        env=env,
        capture_output=True,
        text=True,
    )
    assert res.returncode == 0, res.stderr
    assert (tmp_path / "limitlaw.csv").exists()
