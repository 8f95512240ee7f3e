#!/usr/bin/env python3
"""Alternating parent/change pairs of the end-to-end benchmark.

    python3 scripts/bench_pairs.py PARENT_DIR CHANGE_DIR --workload W --pairs N
        [--seconds S] [--seed 42]

PARENT_DIR and CHANGE_DIR are two checkouts of the repository. Each pair runs
``perfbench/run.py --trace 0`` once in each checkout, one process at a time;
odd pairs run the parent first and even pairs the change first, so drift in
the host's speed falls on both sides alike. Every run uses the benchmark
code of its own checkout.

Writes ``bench/BENCH_<workload>.json`` next to this script's repository:
every pair's end-to-end metrics, each side's median and quartiles, how many
pairs the change won (ties count for neither side), and each side's output
digests. Exits 1 if a run printed no result or reported a failed operation.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def run_once(checkout: Path, workload: str, seed: int, seconds: int | None) -> dict:
    """One untraced benchmark run in ``checkout``: its metrics, digest and
    provenance, from the two JSON lines it prints last."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--trace", "0"]
    cmd += ["--seed", str(seed)]
    if seconds is not None:
        cmd += ["--seconds", str(seconds)]
    res = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = res.stdout.strip().splitlines()
    if res.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{checkout}: {' '.join(cmd)} exited {res.returncode}\n{res.stderr}")
    detail, result = json.loads(lines[-2]), json.loads(lines[-1])
    return {
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
        "correct": result["correct"],
        "digest": detail["digest"],
        "git_revision": detail["provenance"]["git_revision"],
        "src_sha256": detail["provenance"]["src_sha256"],
    }


def spread(values: list[float]) -> dict:
    """Median and quartiles (the median alone below two values)."""
    median = statistics.median(values)
    if len(values) < 2:
        return {"median": median}
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarise(pairs: list[dict], end_to_end: list[dict]) -> dict:
    out = {}
    for metric in end_to_end:
        name, lower = metric["name"], metric["better"] == "lower"
        values = {side: [p[side]["metrics"][name] for p in pairs] for side in SIDES}
        wins = sum(
            (c < p) if lower else (c > p) for p, c in zip(values["parent"], values["change"])
        )
        ties = sum(p == c for p, c in zip(values["parent"], values["change"]))
        out[name] = {
            "unit": metric["unit"],
            "better": metric["better"],
            "bound": metric["bound"],
            **{side: spread(values[side]) for side in SIDES},
            "change_wins": wins,
            "ties": ties,
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=int, help="run length (default: the benchmark's)")
    parser.add_argument("--seed", type=int, default=42)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for side, path in checkouts.items():
        if not (path / "perfbench" / "run.py").is_file():
            parser.error(f"{side} checkout {path} has no perfbench/run.py")
    end_to_end = json.loads((checkouts["change"] / "BENCHMARK.json").read_text())["end_to_end"]

    pairs = []
    for i in range(args.pairs):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        pair = {"pair": i + 1, "first": order[0]}
        for side in order:
            pair[side] = run_once(checkouts[side], args.workload, args.seed, args.seconds)
        pairs.append(pair)
        print(
            f"pair {i + 1}/{args.pairs}: "
            + ", ".join(f"{side} wall_s {pair[side]['metrics']['wall_s']:.3f}" for side in SIDES),
            file=sys.stderr,
        )

    digests = {side: sorted({p[side]["digest"] for p in pairs}) for side in SIDES}
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "checkouts": {
            side: {
                "git_revision": pairs[0][side]["git_revision"],
                "src_sha256": pairs[0][side]["src_sha256"],
            }
            for side in SIDES
        },
        "summary": summarise(pairs, end_to_end),
        "digests": digests,
        "digests_equal": digests["parent"] == digests["change"],
        "pairs": pairs,
    }
    out = ROOT / "bench" / f"BENCH_{args.workload}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(report, indent=2) + "\n")
    print(out)
    failed = [p["pair"] for p in pairs if not (p["parent"]["correct"] and p["change"]["correct"])]
    if failed:
        print(f"pairs with a failed operation: {failed}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
