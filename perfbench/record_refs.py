"""Record the benchmark's references into ``refs.json``.

    PYTHONPATH=src python3 perfbench/record_refs.py

Run once, from the repository root, at the commit whose behaviour is the
reference (the references in this directory were recorded at the commit
that introduced the benchmark).  Re-recording at a later commit would
hide any verdict that commit changed, so ``run.py`` never does it.

Recorded: the corpus digest; the verdict table of the per-model pipeline
keyed by unrelabelled corpus space; preservation verdicts and skip sets of
every depth-2 compound and forward square, with the sampling strata of the
``compound-preservation`` workload; the beam and combined-algebra verdicts;
and the CLI verdicts on the shipped fixtures.
"""

from __future__ import annotations

import json
import math
import sys
import time
from pathlib import Path

import harness
import workloads as W

ROOT = Path.cwd()
STRATUM = 4
FIXED_HEAVIEST = 4


def bare(cls, refs):
    wl = cls.__new__(cls)
    W.Workload.__init__(wl, 0, harness.NullTracer(), refs, ROOT)
    return wl


def identity_job(i, space):
    return {"id": str(i), "tests": W.space_tests(space),
            "back": {lab: lab for lab in space.labels}}


def main():
    null = harness.NullTracer()
    spaces = list(W.enumerate_test_spaces(*W.CORPUS))
    refs = {"corpus_digest": W.corpus_digest(*W.CORPUS), "corpus_size": len(spaces)}

    sweep = bare(W.CorpusSweep, refs)
    refs["sweep"] = {}
    for i, space in enumerate(spaces):
        v = sweep.run(identity_job(i, space), null)
        assert v["float"] == v["exact"], f"float twin disagrees on space {i}"
        refs["sweep"][str(i)] = v
    print(f"sweep: {len(spaces)} verdicts", file=sys.stderr)

    comp = bare(W.CompoundPreservation, refs)
    verdicts, times = {}, {}
    for i, space in enumerate(spaces):
        for kind in "cf":
            key = f"{i}{kind}"
            job = {"id": key, "kind": kind, "tests": W.space_tests(space)}
            t0 = time.perf_counter()
            verdicts[key] = comp.run(job, null)
            times[key] = time.perf_counter() - t0
    ranked = sorted(times, key=times.get)
    rest = ranked[: len(ranked) - FIXED_HEAVIEST]
    refs["compound"] = {
        "verdicts": verdicts,
        "seconds": {key: round(t, 4) for key, t in times.items()},
        "fixed": ranked[len(ranked) - FIXED_HEAVIEST:],
        "strata": [rest[k: k + STRATUM] for k in range(0, len(rest), STRATUM)],
    }
    print(f"compound: {len(verdicts)} verdicts, {sum(times.values()):.1f} s", file=sys.stderr)

    beam = bare(W.BeamInterference, refs)
    refs["beam"] = {}
    for preset in ("qubit", "spin32"):
        v, _, _ = W.beam_verdict(preset, None, [[0.5, 0.5]], null)
        refs["beam"][preset] = v
    grid = [math.pi / 4 + k * (2 * math.pi / 3 - math.pi / 4) / 6 for k in range(7)]
    spin1 = [W.beam_verdict("spin1", theta, [[0.5, 0.5]], null)[0] for theta in grid]
    assert all(v == spin1[0] for v in spin1), "spin-1 verdicts depend on the angle"
    refs["beam"]["spin1"] = spin1[0]
    for n in (2, 3, 4):
        v = beam.run({"id": f"classical-{n}", "classical": n}, null)
        assert v["witnesses"] == 0, f"classical({n}) shows interference"
        refs["beam"][f"classical-{n}"] = v

    refs["cli"] = {}
    with open(W.HERE / "refs.json", "w", encoding="utf-8") as fh:
        json.dump(refs, fh)  # CliCold set-up reads the corpus digest
    cli = W.CliCold(0, null, refs, ROOT)
    for job in cli.inputs:
        if job["corpus_id"] is None:
            v = cli.run(job, null)
            assert W.same_verdict(v, job["expected"]), f"{job['id']}: CLI {v} != library"
            refs["cli"][job["id"]] = v
    with open(W.HERE / "refs.json", "w", encoding="utf-8") as fh:
        json.dump(refs, fh, sort_keys=True, indent=0)
        fh.write("\n")


if __name__ == "__main__":
    main()
