"""Tests of the benchmark's own harness: percentiles, span times, inputs, references.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import copy
import json
import random
from pathlib import Path

import pytest

import harness
import worker
import workloads as W

ROOT = Path(__file__).resolve().parents[1]


def test_tail_percentile_keeps_ten_samples_beyond():
    xs = list(range(100))
    random.Random(0).shuffle(xs)
    value, pct, n = harness.tail_percentile(xs)
    assert (value, pct, n) == (89, 90.0, 100)
    assert sum(1 for x in xs if x > value) == 10
    value, pct, n = harness.tail_percentile(range(11))
    assert value == 0 and n == 11 and pct == pytest.approx(100 / 11)
    with pytest.raises(ValueError):
        harness.tail_percentile(range(10))


def test_self_time_subtracts_direct_children():
    # name, start, end, parent, job, error
    spans = [
        ["states.a", 0.0, 10.0, None, "j", None],
        ["linprog.b", 1.0, 4.0, 0, "j", None],
        ["states.c", 5.0, 9.0, 0, "j", None],
        ["linprog.d", 6.0, 7.0, 2, "j", "EnumerationCapExceeded"],
    ]
    t = harness.layer_times(spans)
    assert t["states"] == {"calls": 2, "busy_s": 10.0, "self_s": 3.0 + 3.0}
    assert t["linprog"] == {"calls": 2, "busy_s": 4.0, "self_s": 4.0}
    assert t["cli"] == {"calls": 0, "busy_s": 0.0, "self_s": 0.0}
    assert harness.error_busy(spans, "linprog", "EnumerationCapExceeded") == (1.0, 1)


def test_normalize_scales_by_nearby_kernel_times():
    ref = harness.CALIBRATION_REF_S
    assert harness.normalize([1.0, 2.0], [ref, ref, ref]) == [1.0, 2.0]
    # a machine running at half speed: kernel and jobs both take twice as long
    assert harness.normalize([2.0, 4.0], [2 * ref] * 3) == [1.0, 2.0]
    # one slow kernel run among its neighbours does not move the median
    assert harness.normalize([1.0], [ref, 9 * ref, ref], window=2) == [1.0]


def test_tracer_records_parent_and_job():
    tr = harness.Tracer()
    tr.job = "7"
    with tr.span("states.outer"):
        with pytest.raises(KeyError):
            with tr.span("linprog.inner"):
                raise KeyError
    outer, inner = tr.spans
    assert inner[3] == 0 and outer[3] is None and inner[4] == "7"
    assert inner[5] == "KeyError" and outer[5] is None
    assert outer[1] <= inner[1] <= inner[2] <= outer[2]


def inputs_of(cls, seed):
    return json.dumps(cls(seed, harness.NullTracer(), W.load_refs(), ROOT).inputs, sort_keys=True)


@pytest.mark.parametrize("cls", [W.CorpusSweep, W.CompoundPreservation, W.BeamInterference])
def test_same_seed_same_inputs(cls):
    assert inputs_of(cls, 11) == inputs_of(cls, 11)
    assert inputs_of(cls, 11) != inputs_of(cls, 12)


def test_relabelled_space_is_isomorphic_to_source():
    spaces = list(W.enumerate_test_spaces(*W.CORPUS))
    wl = W.CorpusSweep(5, harness.NullTracer(), W.load_refs(), ROOT)
    for job in wl.inputs:
        source = {frozenset(t) for t in W.space_tests(spaces[int(job["id"])])}
        back = {frozenset(job["back"][lab] for lab in t) for t in job["tests"]}
        assert back == source
        assert sorted(job["back"]) != sorted(job["back"].values())


def test_corrupted_reference_counts_as_error():
    refs = copy.deepcopy(W.load_refs())
    refs["sweep"]["5"]["algebraic"] = not refs["sweep"]["5"]["algebraic"]
    wl = W.CorpusSweep(3, harness.NullTracer(), refs, ROOT)
    result = {"attempted": 0, "failed": 0, "failures": []}
    jobs = {job["id"]: job for job in wl.inputs}
    for key in ("4", "5"):
        worker.run_job(wl, jobs[key], harness.NullTracer(), result)
    assert result["attempted"] == 2 and result["failed"] == 1
    assert result["failed"] / result["attempted"] > 0


def test_corrupted_corpus_digest_stops_set_up():
    refs = dict(W.load_refs(), corpus_digest="0" * 64)
    with pytest.raises(RuntimeError):
        W.CorpusSweep(3, harness.NullTracer(), refs, ROOT)
