"""orthokit benchmark: one command, four seeded workloads.

    python3 perfbench/run.py --workload corpus-sweep --seed 1 --seconds 10 --trace 0

Run from the repository root.  Each run starts fresh interpreters with
``PYTHONHASHSEED`` derived from the seed and ``ORTHOKIT_CAP`` removed:
four that only set up, then one that sets up and measures.  ``--trace 0``
prints the end-to-end metrics, ``--trace 1`` the per-layer metrics of a
separate traced run.  The last stdout line is the result object; a line
before it carries the environment and the tail-percentile details.  Exits
nonzero when any verdict disagrees with the references.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import harness  # noqa: E402

WORKLOADS = ("corpus-sweep", "compound-preservation", "beam-interference", "cli-cold")
SETUP_ONLY_RUNS = 4
DEADLINE_S = 170


def child(root, env, args, mode, budget):
    env = dict(env, PERFBENCH_T0=repr(time.perf_counter()))
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--mode", mode,
    ]
    proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True,
                          timeout=budget)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"perfbench: {mode} worker exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    harness.refuse_optimized()
    started = time.monotonic()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = Path.cwd()
    if not (root / "src" / "orthokit" / "__init__.py").is_file():
        raise SystemExit("perfbench: run from the orthokit repository root (no src/orthokit here)")
    os.environ.pop("ORTHOKIT_CAP", None)
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = str(args.seed % (2**32 - 1) + 1)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))

    def budget():
        return max(1.0, DEADLINE_S - (time.monotonic() - started))

    if args.trace:
        res = child(root, env, args, "traced", budget())
        metrics = dict(res["per_layer"])
        detail = {
            "traced_wall_s": res["traced_wall_s"],
            "untraced_wall_s": res["wall_s"],
            "traced_scaled_cpu_s": res["traced_scaled_cpu_s"],
            "untraced_scaled_cpu_s": res["scaled_cpu_s"],
        }
    else:
        setups = [child(root, env, args, "setup", budget()) for _ in range(SETUP_ONLY_RUNS)]
        res = child(root, env, args, "timed", budget())
        for s in setups:
            res["attempted"] += s["attempted"]
            res["failed"] += s["failed"]
            res["failures"] += s["failures"]
        setup_samples = [s["setup_s"] for s in setups] + [res["setup_s"]]
        metrics = {
            "setup_s": statistics.median(setup_samples),
            "jobs_per_s": res["jobs"] / res["scaled_cpu_s"],
            "job_p50_ms": res["job_p50_ms"],
            "job_tail_ms": res["job_tail_ms"],
            "peak_rss_mb": res["peak_rss_mb"],
        }
        detail = {
            "setup_samples_s": setup_samples,
            "setup_cpu_samples_s": [s["setup_cpu_s"] for s in setups + [res]],
            "setup_wall_samples_s": [s["setup_wall_s"] for s in setups + [res]],
            "job_tail_percentile": res["job_tail_percentile"],
            "job_samples": res["job_samples"],
            "rounds": res["rounds"],
            "cpu_jobs_per_s": res["jobs"] / res["cpu_s"],
            "cpu_job_p50_ms": res["cpu_job_p50_ms"],
            "wall_jobs_per_s": res["jobs"] / res["wall_s"],
            "wall_job_p50_ms": res["wall_job_p50_ms"],
            "wall_job_tail_ms": res["wall_job_tail_ms"],
        }
    attempted, failed = res["attempted"], res["failed"]
    detail.update(
        workload=args.workload,
        seed=args.seed,
        environment=harness.environment(),
        checks=res["checks"],
        skipped=res["skipped"],
        skipped_frac=res["skipped"] / res["checks"] if res["checks"] else 0.0,
        error_frac=failed / attempted,
        failures=res["failures"],
    )
    if args.trace:
        metrics["skipped_frac"] = detail["skipped_frac"]
        metrics["error_frac"] = detail["error_frac"]
    units = load_units()
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    if failed:
        raise SystemExit(1)


def load_units():
    with open(HERE.parent / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


if __name__ == "__main__":
    main()
