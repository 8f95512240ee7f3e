"""Time-to-verdict benchmark of nvlab.

    python3 perfbench/run.py --workload NAME [--seed 42] [--seconds S] [--trace 0|1]

Runs one workload (see workloads.py) in this process, through
``nvlab.cli.main`` and ``nvlab.analysis.scheme_gap``, repeating it for
``--seconds`` with the same seed, and checks every operation's output. The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it carries the
details: per-repetition samples, failures, the output digest and provenance.

With ``--trace 0`` the metrics are the end-to-end ones named in
BENCHMARK.json, and no wrapper is installed. With ``--trace 1`` the workload
first repeats untraced for half the time, then repeats with span wrappers
installed (instrument.py); the metrics are the per-layer ones, medians over
the traced repetitions, plus the tracing overhead. The spans are written to
``perfbench/runs/<workload>-spans.npz`` at exit.

Times are reported in reference-speed seconds: each is scaled by
``speed.REFERENCE_S / median(probe times)``, where the probe (speed.py) is a
fixed kernel timed between repetitions, so that drift in the host's speed
cancels. The raw times and the scale are in the detail line.

Exit code 0 whenever a result is printed (``correct`` says whether outputs
passed); 2 when nvlab cannot be set up from ``src/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path

import setup_probe

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = HERE / "runs"

# fresh-interpreter set-up samples, besides the one this process takes
SETUP_PROBES = 4
# metric units that are times, reported in reference-speed units (speed.py)
TIME_UNITS = ("s", "us", "ns")


def _probe_setup() -> tuple[float, float]:
    """(set-up seconds, speed probe seconds) from a fresh interpreter."""
    res = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py")],
        capture_output=True,
        text=True,
        timeout=120,
        cwd=ROOT,
        check=True,
    )
    seconds, probe = json.loads(res.stdout.strip().splitlines()[-1])
    return seconds, probe


def _proc_field(path: str, key: str) -> str:
    try:
        with open(path) as fh:
            for line in fh:
                name, _, value = line.partition(":")
                if name.strip() == key:
                    return value.strip()
    except OSError:
        pass
    return "unknown"


def _git_revision() -> str:
    """HEAD of the measured tree, if the tree is itself a git checkout."""

    def git(*args):
        return subprocess.run(
            ["git", "-C", str(ROOT), *args], capture_output=True, text=True, timeout=10
        )

    try:
        top = git("rev-parse", "--show-toplevel")
        if top.returncode != 0 or Path(top.stdout.strip()).resolve() != ROOT:
            return "unknown (not a git checkout)"
        rev = git("rev-parse", "HEAD").stdout.strip()
        dirty = git("status", "--porcelain", "--", "src").stdout.strip()
        return rev + ("-dirty" if dirty else "")
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def provenance() -> dict:
    # imported after set-up, so that set-up time includes these imports
    import numpy
    import scipy

    src = hashlib.sha256()
    for path in sorted((setup_probe.SRC / "nvlab").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    mem_kib = _proc_field("/proc/meminfo", "MemTotal").split()[0]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "ram_gib": round(int(mem_kib) / 2**20, 2) if mem_kib.isdigit() else "unknown",
        "cpu_model": _proc_field("/proc/cpuinfo", "model name"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_revision": _git_revision(),
        "src_sha256": src.hexdigest(),
    }


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")

    try:
        setups = [(setup_probe.setup(), setup_probe.probe_speed())]
        setups += [_probe_setup() for _ in range(SETUP_PROBES)]
    except Exception:  # no usable nvlab under src/: report and print no result
        traceback.print_exc()
        print(f"perfbench: cannot set up nvlab from {setup_probe.SRC}", file=sys.stderr)
        return 2

    # these import nvlab and numpy, which set-up times and makes importable
    import instrument
    import spans
    import speed
    import workloads

    out = RUNS / args.workload
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    ops = workloads.WORKLOADS[args.workload](args.seed, out)

    detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace}
    if args.trace == 0:
        reps = measured = workloads.repeat(ops, args.seconds)
    else:
        untraced = workloads.repeat(ops, args.seconds / 2)
        tracer = spans.Tracer()
        with instrument.instrument(tracer):
            traced = workloads.repeat(ops, args.seconds / 2, tracer)
        reps = untraced + traced
        measured = traced
        detail["untraced_wall_s"] = [r.wall_ns / 1e9 for r in untraced]

    failed, notes = workloads.tally(ops, reps)
    attempted = len(ops) * len(reps)
    factor = speed.scale([p for r in measured for p in r.probe_s])
    if args.trace == 0:
        computed = {
            "wall_s": statistics.median(r.wall_ns for r in measured) / 1e9 * factor,
            # each sample scaled by the probes its own interpreter timed after it
            "setup_s": statistics.median(t * speed.scale([p]) for t, p in setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "ok_frac": 1.0 - failed / attempted,
        }
        section = "end_to_end"
    else:
        computed = {k: statistics.median(r.layers[k] for r in traced) for k in traced[0].layers}
        for m in spec["per_layer"]:
            if m["unit"] in TIME_UNITS:
                computed[m["name"]] *= factor
        # unscaled: the two halves are seconds apart, and each scale adds probe noise
        computed["trace.overhead_frac"] = statistics.median(
            r.wall_ns for r in traced
        ) / statistics.median(r.wall_ns for r in untraced) - 1.0
        section = "per_layer"
        spans.save(RUNS / f"{args.workload}-spans.npz", tracer.names, [r.spans for r in traced])
    metrics = {m["name"]: {"value": computed[m["name"]], "unit": m["unit"]} for m in spec[section]}

    detail.update(
        {
            "wall_s": [r.wall_ns / 1e9 for r in measured],
            "speed_scale": factor,
            "probe_s": [p for r in measured for p in r.probe_s],
            "setup_s": [t for t, _ in setups],
            "setup_probe_s": [p for _, p in setups],
            "fail_frac": failed / attempted,
            "failures": notes[:20],
            "digest": workloads.workload_digest(ops, reps[0].digests),
            "op_digests": dict(zip((op.name for op in ops), reps[0].digests)),
            "provenance": provenance(),
        }
    )
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    (RUNS / f"{args.workload}-trace{args.trace}.json").write_text(
        json.dumps({"detail": detail, "result": result}, indent=2) + "\n"
    )
    print(json.dumps(detail))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
