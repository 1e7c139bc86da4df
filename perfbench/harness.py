"""Measurement plumbing shared by the benchmark's workloads.

Nothing here imports orthokit: spans, the tail-percentile rule, the CPU
clock and its calibration kernel, resource and environment probes, and the
static line counts of ``src/``.
"""

from __future__ import annotations

import os
import platform
import resource
import sys
import time
from fractions import Fraction
from itertools import combinations
from pathlib import Path

LAYERS = (
    "testspace",
    "linprog",
    "states",
    "morphisms",
    "logic",
    "coarsening",
    "compounding",
    "interference",
    "quantum",
    "corpus",
    "document",
    "cli",
)

TAIL_BEYOND = 10


def tail_percentile(samples):
    """Latency at the highest percentile with at least ten samples beyond it.

    Returns ``(value, percentile, n)``: the order statistic with exactly
    ``TAIL_BEYOND`` samples above it, the share of samples at or below it in
    percent, and the sample count.  Fewer than ``TAIL_BEYOND + 1`` samples
    have no such percentile.
    """
    xs = sorted(samples)
    n = len(xs)
    if n <= TAIL_BEYOND:
        raise ValueError(f"{n} samples leave no percentile with {TAIL_BEYOND} beyond it")
    k = n - TAIL_BEYOND - 1
    return xs[k], 100.0 * (k + 1) / n, n


class _Span:
    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        tr = self.tracer
        self.index = len(tr.spans)
        parent = tr.stack[-1] if tr.stack else None
        tr.spans.append([self.name, time.perf_counter(), None, parent, tr.job, None])
        tr.stack.append(self.index)
        return self

    def __exit__(self, exc_type, exc, tb):
        tr = self.tracer
        rec = tr.spans[self.index]
        rec[2] = time.perf_counter()
        if exc_type is not None:
            rec[5] = exc_type.__name__
        tr.stack.pop()
        return False


class Tracer:
    """In-memory span recorder: name, start, end, parent index, job id, error.

    Span names are ``<layer>.<function>``.  Counters and maxima recorded at
    the same boundaries live beside the spans.
    """

    enabled = True

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.job = None
        self.counts: dict[str, float] = {}
        self.maxima: dict[str, float] = {}

    def span(self, name):
        return _Span(self, name)

    def count(self, name, k=1):
        self.counts[name] = self.counts.get(name, 0) + k

    def peak(self, name, v):
        if v > self.maxima.get(name, 0):
            self.maxima[name] = v

    def to_json(self):
        keys = ("name", "start", "end", "parent", "job", "error")
        return [dict(zip(keys, rec)) for rec in self.spans]


class _NullSpan:
    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        return False


_NULL_SPAN = _NullSpan()


class NullTracer:
    """Tracing off: every hook is a constant-time no-op."""

    enabled = False
    job = None

    def span(self, name):
        return _NULL_SPAN

    def count(self, name, k=1):
        pass

    def peak(self, name, v):
        pass


def layer_times(spans):
    """Per-layer ``calls``, ``busy_s`` and ``self_s`` from recorded spans.

    ``busy_s`` sums the spans of a layer that have no ancestor of the same
    layer, so nested calls are not counted twice.  ``self_s`` is each span's
    duration minus the time covered by its direct children, summed.
    """
    layer_of = [rec[0].split(".", 1)[0] for rec in spans]
    child_time = [0.0] * len(spans)
    for rec in spans:
        if rec[3] is not None:
            child_time[rec[3]] += rec[2] - rec[1]
    out = {name: {"calls": 0, "busy_s": 0.0, "self_s": 0.0} for name in LAYERS}
    for i, rec in enumerate(spans):
        layer = layer_of[i]
        row = out.setdefault(layer, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        dur = rec[2] - rec[1]
        row["calls"] += 1
        row["self_s"] += dur - child_time[i]
        parent = rec[3]
        nested = False
        while parent is not None:
            if layer_of[parent] == layer:
                nested = True
                break
            parent = spans[parent][3]
        if not nested:
            row["busy_s"] += dur
    return out


def error_busy(spans, layer, error):
    """Busy time and count of a layer's outermost spans that ended in ``error``."""
    total, count = 0.0, 0
    for rec in spans:
        if rec[5] == error and rec[0].split(".", 1)[0] == layer:
            parent = rec[3]
            while parent is not None and not spans[parent][0].startswith(layer + "."):
                parent = spans[parent][3]
            if parent is None:
                total += rec[2] - rec[1]
                count += 1
    return total, count


def cpu_clock():
    """CPU seconds used so far by this process and its waited-for children.

    The benchmark times jobs on this clock rather than the wall clock: on a
    shared virtual machine the wall clock also counts time the hypervisor
    gave to other guests (steal), which moves run to run by tens of percent.
    """
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + kids.ru_utime + kids.ru_stime


# Speed normalization.  The sandbox shares its cores with other guests, and
# its speed drifts by 20 % within seconds, on the CPU clock as on the wall
# clock.  A fixed kernel of exact-rational arithmetic and frozenset
# enumeration (the two kinds of work orthokit does) runs before every timed
# job; each job's CPU time is scaled by CALIBRATION_REF_S over the median
# kernel time around it, giving CPU time at the reference speed.  The
# kernel does not touch orthokit, so a change to the library moves the
# scaled times as it moves the raw ones.
CALIBRATION_REF_S = 0.015
CALIBRATION_WINDOW = 2


def calibration_kernel():
    a, s = Fraction(1, 3), Fraction(0)
    for i in range(1, 1000):
        s += a * Fraction(i, i + 1) - Fraction(1, i)
    seen, by_size = set(), {}
    for r in range(6):
        for c in combinations(range(16), r):
            f = frozenset(c)
            if f not in seen:
                seen.add(f)
                by_size.setdefault(len(f), []).append(f)
    return s, len(seen)


def calibrate():
    """CPU seconds one run of the calibration kernel takes right now."""
    c0 = time.process_time()
    calibration_kernel()
    return time.process_time() - c0


def normalize(samples, kernel_times, window=CALIBRATION_WINDOW):
    """Scale samples to reference speed by the median of nearby kernel times.

    Kernel time ``i`` was taken just before sample ``i``; sample ``i`` uses
    kernel times ``i - window`` to ``i + window + 1``, so the kernel run
    right after it counts too.
    """
    out = []
    for i, x in enumerate(samples):
        near = sorted(kernel_times[max(0, i - window): i + window + 2])
        out.append(x * CALIBRATION_REF_S / near[len(near) // 2])
    return out


def peak_rss_mb(children=False):
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def environment():
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
    }


def src_line_counts(root: Path):
    """Line counts of each ``src/orthokit`` module and of all of ``src/``."""
    pkg = root / "src" / "orthokit"
    counts = {}
    for name in LAYERS:
        with open(pkg / f"{name}.py", encoding="utf-8") as fh:
            counts[f"{name}.lines"] = sum(1 for _ in fh)
    total = 0
    for path in sorted((root / "src").rglob("*.py")):
        with open(path, encoding="utf-8") as fh:
            total += sum(1 for _ in fh)
    counts["src.lines"] = total
    return counts


def refuse_optimized():
    """The ``__debug__`` cross-checks are part of the measured program."""
    if sys.flags.optimize:
        raise SystemExit("perfbench: refusing to run under python -O")
