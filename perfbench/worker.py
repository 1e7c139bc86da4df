"""One benchmark process: set up a workload, then run it in a closed loop.

Started by ``run.py`` in a fresh interpreter; prints one JSON object on its
last stdout line.  Modes:

* ``setup``  - set up only, report the set-up time;
* ``timed``  - set up, then run whole rounds of jobs untraced until
  ``--seconds`` have passed;
* ``traced`` - set up traced, run the rounds untraced, then the same rounds
  again with spans on, and report per-layer numbers.

``PERFBENCH_T0`` carries the parent's monotonic clock reading taken just
before this process was spawned, so the set-up wall time on the detail line
includes interpreter start; the set-up CPU time does so by construction.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import time
import traceback
from pathlib import Path

import harness

ROOT = Path.cwd()
MAX_REPORTED_FAILURES = 20


def run_rounds(wl, tr, rounds, seconds, result):
    """Run rounds of jobs; with ``rounds`` None, run until ``seconds`` pass.

    The calibration kernel runs before every job and once after the last.
    Returns the per-job CPU-clock latencies scaled to reference speed, the
    raw CPU and wall latencies, and the number of rounds run.  Mismatches
    and unexpected exceptions go into ``result``.
    """
    cpus, walls, kernel = [], [], []
    start = time.perf_counter()
    r = 0
    while (rounds is None and time.perf_counter() - start < seconds) or (
        rounds is not None and r < rounds
    ):
        for i, job in enumerate(wl.jobs(r)):
            kernel.append(harness.calibrate())
            tr.job = f"{r}:{i}:{job['id']}"
            cpu, wall = run_job(wl, job, tr, result)
            cpus.append(cpu)
            walls.append(wall)
        r += 1
    kernel.append(harness.calibrate())
    return harness.normalize(cpus, kernel), cpus, walls, r


def run_job(wl, job, tr, result):
    """Run and check one job; returns its CPU-clock and wall-clock latency."""
    result["attempted"] += 1
    c0, w0 = harness.cpu_clock(), time.perf_counter()
    try:
        verdict = wl.run(job, tr)
    except Exception:  # an unexpected exception is a failed job, not a crash
        fail(result, f"{job['id']}: {traceback.format_exc(limit=3)}")
        return harness.cpu_clock() - c0, time.perf_counter() - w0
    latency = harness.cpu_clock() - c0, time.perf_counter() - w0
    bad = wl.check(job, verdict)
    if bad:
        fail(result, "; ".join(bad))
    return latency


def fail(result, message):
    result["failed"] += 1
    if len(result["failures"]) < MAX_REPORTED_FAILURES:
        result["failures"].append(message)


def main():
    harness.refuse_optimized()
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--mode", choices=("setup", "timed", "traced"), required=True)
    args = ap.parse_args()
    t0 = float(os.environ["PERFBENCH_T0"])

    traced = args.mode == "traced"
    tr = harness.Tracer() if traced else harness.NullTracer()
    result = {"attempted": 0, "failed": 0, "failures": []}

    import workloads  # imports orthokit: part of set-up

    undo = workloads.install_wrappers(tr) if traced else None
    wl = workloads.WORKLOADS[args.workload](args.seed, tr, workloads.load_refs(), ROOT)
    try:
        measure(wl, tr, args, t0, result, undo, workloads.install_wrappers)
    finally:
        wl.close()


def measure(wl, tr, args, t0, result, undo, install_wrappers):
    """Warm up, then run the timed phase and, when traced, the traced one."""
    traced = undo is not None
    for message in wl.round_trip_failures:
        result["attempted"] += 1
        fail(result, message)
    for job in wl.warmup:
        tr.job = f"warmup:{job['id']}"
        run_job(wl, job, tr, result)
    setup_cpu = harness.cpu_clock()
    setup_wall_s = time.perf_counter() - t0
    kernel = [harness.calibrate() for _ in range(2 * harness.CALIBRATION_WINDOW + 1)]
    setup_s = harness.normalize([setup_cpu], kernel, window=len(kernel))[0]
    out = {"setup_s": setup_s, "setup_cpu_s": setup_cpu, "setup_wall_s": setup_wall_s}
    if args.mode == "setup":
        print(json.dumps({**out, **result}))
        return

    if traced:
        undo()
    null = harness.NullTracer()
    latencies, cpus, walls, rounds = run_rounds(wl, null, None, args.seconds, result)
    out.update(
        rounds=rounds,
        jobs=len(latencies),
        scaled_cpu_s=sum(latencies),
        cpu_s=sum(cpus),
        wall_s=sum(walls),
        checks=wl.checks,
        skipped=wl.skipped,
    )
    if traced:
        undo = install_wrappers(tr)
        traced_scaled, _, traced_walls, _ = run_rounds(wl, tr, rounds, None, result)
        undo()
        out["traced_wall_s"] = sum(traced_walls)
        out["traced_scaled_cpu_s"] = sum(traced_scaled)
        out["per_layer"] = per_layer(tr, wl, sum(latencies), sum(traced_scaled))
        save_spans(tr, args)
    else:
        value, pct, n = harness.tail_percentile(latencies)
        out.update(
            job_p50_ms=1000 * statistics.median(latencies),
            job_tail_ms=1000 * value,
            job_tail_percentile=pct,
            job_samples=n,
            cpu_job_p50_ms=1000 * statistics.median(cpus),
            wall_job_p50_ms=1000 * statistics.median(walls),
            wall_job_tail_ms=1000 * harness.tail_percentile(walls)[0],
            peak_rss_mb=harness.peak_rss_mb(children=args.workload == "cli-cold"),
        )
    out.update(result)
    print(json.dumps(out))


def per_layer(tr, wl, untraced_s, traced_s):
    spans = tr.spans
    metrics = {}
    for layer, row in harness.layer_times(spans).items():
        for key, value in row.items():
            metrics[f"{layer}.{key}"] = value
    wasted, cap_skips = harness.error_busy(spans, "testspace", "EnumerationCapExceeded")
    c, m = tr.counts, tr.maxima
    cli_jobs = c.get("cli.children", 0)
    checked = c.get("interference.strings_checked", 0)
    skipped = c.get("interference.strings_skipped", 0)
    metrics.update(
        {
            "testspace.subset_bound": c.get("testspace.subset_bound", 0),
            "testspace.tests_max": m.get("testspace.tests_max", 0),
            "testspace.wasted_s": wasted,
            "testspace.cap_skips": cap_skips,
            "linprog.vertex_bases": c.get("linprog.vertex_bases", 0),
            "linprog.denominator_bits_max": m.get("linprog.denominator_bits_max", 0),
            "states.models_built": c.get("states.models_built", 0),
            "coarsening.law_points": c.get("coarsening.law_points", 0),
            "logic.elements": c.get("logic.elements", 0),
            "compounding.tests_built": c.get("compounding.tests_built", 0),
            "compounding.outcomes_built": c.get("compounding.outcomes_built", 0),
            "interference.witnesses": c.get("interference.witnesses", 0),
            "interference.strings_useful_frac": checked / (checked + skipped) if checked + skipped else 0.0,
            "cli.python_start_ms": c.get("cli.python_start_ms", 0.0) / cli_jobs if cli_jobs else 0.0,
            "cli.import_ms": c.get("cli.import_ms", 0.0) / cli_jobs if cli_jobs else 0.0,
            "cli.command_ms": c.get("cli.command_ms", 0.0) / cli_jobs if cli_jobs else 0.0,
            "document.bytes": getattr(wl, "bytes", 0),
            "trace.overhead_frac": (traced_s - untraced_s) / untraced_s,
        }
    )
    metrics.update(harness.src_line_counts(ROOT))
    return metrics


def save_spans(tr, args):
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"trace-{args.workload}-{args.seed}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"spans": tr.to_json(), "counts": tr.counts, "maxima": tr.maxima}, fh)


if __name__ == "__main__":
    main()
