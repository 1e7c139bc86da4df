"""Alternating parent/change benchmark pairs, written to one JSON record.

    python3 tools/bench_pairs.py --parent 74fdcea --change HEAD --first-seed 2 --out BENCH_17.json

Run from the repository root.  Each revision is exported with ``git
archive`` into its own directory, and ``perfbench/run.py --trace 0`` runs
there, because the benchmark measures the source in its own checkout; the
run length is ``run_seconds`` of ``BENCHMARK.json``.  Every workload gets
10 pairs, the number a gain claim is judged on.  In each pair the two runs
follow each other, parent first in even pairs and change first in odd
ones, so drift in the machine's speed falls on both sides.  Pair i uses
its own seed, ``first_seed + i``.

The record holds, per workload, every run's five end-to-end metrics, and
per metric each side's median and quartiles, the parent's interquartile
range, and the number of pairs in which the change was better.  It also holds the
Python version, the machine and both commit hashes.  Exits 1 when any run
was not correct.
"""

from __future__ import annotations

import argparse
import json
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

WORKLOADS = ("corpus-sweep", "compound-preservation", "beam-interference", "cli-cold")
SIDES = ("parent", "change")
PAIRS = 10


def git(*args: str) -> str:
    return subprocess.run(["git", *args], check=True, capture_output=True, text=True).stdout.strip()


def export(commit: str, into: Path) -> Path:
    """The committed files of ``commit`` in a fresh directory."""
    into.mkdir(parents=True)
    archive = subprocess.run(["git", "archive", commit], check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive, check=True)
    return into


def run_once(root: Path, workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=root, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if len(lines) < 2:
        return {"correct": False, "failed": None, "error": proc.stderr[-2000:]}
    detail, result = json.loads(lines[-2]), json.loads(lines[-1])
    return {
        "correct": result["correct"],
        "failed": result["failed"],
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
        "rounds": detail.get("rounds"),
        "environment": detail.get("environment"),
    }


def summarize(pairs: list[dict], better: dict[str, str]) -> dict:
    """Per metric: each side's median and quartiles, and the pairs the change won."""
    out = {}
    for name, direction in better.items():
        values = {side: [p[side]["metrics"][name] for p in pairs if "metrics" in p[side]]
                  for side in SIDES}
        if len(values["parent"]) != len(pairs) or len(values["change"]) != len(pairs):
            continue
        sign = 1 if direction == "higher" else -1
        wins = sum(sign * (c - p) > 0 for p, c in zip(values["parent"], values["change"]))
        out[name] = {"change_better_pairs": wins, "pairs": len(pairs)}
        for side in SIDES:
            q1, median, q3 = statistics.quantiles(values[side], n=4)
            out[name][side] = {"median": median, "q1": q1, "q3": q3}
        out[name]["parent_iqr"] = out[name]["parent"]["q3"] - out[name]["parent"]["q1"]
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="parent revision")
    ap.add_argument("--change", default="HEAD", help="change revision (default HEAD)")
    ap.add_argument("--first-seed", type=int, default=1, help="seed of the first pair (default 1)")
    ap.add_argument("--out", required=True)
    args = ap.parse_args()

    spec = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    commits = {"parent": git("rev-parse", args.parent), "change": git("rev-parse", args.change)}
    work = Path(tempfile.mkdtemp(prefix="bench_pairs_"))
    try:
        roots = {side: export(commits[side], work / side) for side in SIDES}
        record = {
            "python": platform.python_version(),
            "machine": {"platform": platform.platform()},
            "commits": commits,
            "seconds": seconds,
            "workloads": {},
        }
        ok = True
        for workload in WORKLOADS:
            pairs = []
            for i in range(PAIRS):
                seed = args.first_seed + i
                pair = {"seed": seed, "first": SIDES[i % 2]}
                for side in (SIDES if i % 2 == 0 else SIDES[::-1]):
                    pair[side] = run_once(roots[side], workload, seed, seconds)
                    ok = ok and pair[side]["correct"]
                    environment = pair[side].pop("environment", None)
                    if environment:
                        record["machine"] = environment
                pairs.append(pair)
                print(workload, i, {s: pair[s].get("metrics") for s in SIDES}, flush=True)
            record["workloads"][workload] = {"runs": pairs, "summary": summarize(pairs, better)}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    Path(args.out).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
