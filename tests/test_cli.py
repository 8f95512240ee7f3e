import json
import subprocess
from pathlib import Path

import pytest

from nvlab import get_problem, report, strong_error_ladder, util
from nvlab.cli import main
from nvlab.config import RunConfig
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


def test_convergence_rejects_ladder_rung_not_dividing_the_finest(tmp_path, capsys):
    args = ["convergence", "--problem", "heisenberg", "--nladder", "8,12,16", "--paths", "200"]
    assert main(args + ["--out", str(tmp_path)]) == 1
    assert "N=12" in capsys.readouterr().err
    assert not (tmp_path / "rate.csv").exists()


@pytest.mark.parametrize("problem", ["heisenberg", "diag-comm"])
def test_ladder_outputs_identical_across_chunk_layouts(problem, tmp_path, monkeypatch):
    # the chunk plan is forced through the memory budget, so this holds on any
    # core count: one chunk, 16-path chunks, and ragged 50/50/28 chunks
    paths, Ns, refine = 128, (8, 16, 32), 4
    per_path = 32 * refine * (2 + 3)  # the ladder's footprint: n_fine * (d + 3)
    layouts = {"one": 2**40, "sixteen": 1, "ragged": 50 * per_path}
    expected = {"one": [128], "sixteen": [16] * 8, "ragged": [50, 50, 28]}
    args = ["convergence", "--problem", problem, "--scheme", "nv", "--nladder", "8,16,32"]
    args += ["--paths", str(paths), "--refine", str(refine), "--threads", "1", "--format", "csv"]
    points, bodies = {}, {}
    for name, budget in layouts.items():
        monkeypatch.setattr(util, "CHUNK_FLOAT_BUDGET", budget)
        assert [c for _, c in util.compute_chunks(paths, per_path, 1)] == expected[name]
        points[name] = strong_error_ladder(get_problem(problem), "nv", Ns, paths, 9, 1, refine)
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


def test_metadata_paths_is_the_command_path_count():
    cfg = RunConfig(command="mlmc", paths=10000, paths_per_level=300)
    assert report.run_metadata(cfg)["paths"] == 300
    cfg = RunConfig(command="convergence", paths=1200, paths_per_level=300)
    assert report.run_metadata(cfg)["paths"] == 1200
