"""Host speed, sampled during a run by fixed calibration kernels.

Shared VMs, such as the 2-core x86 VM this benchmark was developed on,
switch between a fast and a slow state, often within a second and
sometimes for minutes. In the slow state interpreter-bound code (per-tick
layers, log replay) runs ~1.85x slower, and code bound by large numpy
arrays (raycast, distance matrices) ~1.3x. A 25 s run lands anywhere
between the two states, and the same commit's wall-time medians spread by
15-50% from run to run.

``slowdown()`` times one kernel of each kind against its nominal time and
blends the two ratios. A ``Timeline`` keeps these samples with their times
and scales any timed stretch by the slowdown around it, which gives times
at the host's nominal speed. The kernels are the benchmark's code, so a
change to camlab cannot move them; a change that makes camlab slower still
reads as slower.
"""

from __future__ import annotations

import bisect
import math
import statistics
import time

import numpy as np

# Median kernel times on the 2-core x86 development VM in its fast state
# (Python 3.11, numpy 2.x, one BLAS thread).
INTERPRETER_NOMINAL_NS = 1_100_000
ARRAY_NOMINAL_NS = 2_000_000
# Weight of the interpreter-bound kernel in the blend. Ticks are mostly
# interpreter-bound and binds mostly array-bound, in proportions that differ
# by workload; an even blend kept the run-to-run spread of every timing
# within ~10% on 10 s stretches of all three workloads.
INTERPRETER_SHARE = 0.5
REPEATS = 3  # each kernel runs this often per sample; the median is kept

_SMALL = np.arange(12.0).reshape(4, 3)
_CLOUD = np.random.default_rng(0).random((60_000, 3))


def _interpreter_kernel() -> float:
    """Small arrays, dict updates and float conversions in a Python loop."""
    seen, acc = {}, 0.0
    for i in range(600):
        seen[i & 63] = acc
        acc += float((_SMALL @ _SMALL.T)[1, 2]) + len(seen)
    return acc


def _array_kernel() -> float:
    """Distances from one point to a 60k-point cloud."""
    return float(np.sqrt(((_CLOUD - _CLOUD[0]) ** 2).sum(axis=1)).min())


def _median_ns(kernel) -> int:
    samples = []
    for _ in range(REPEATS):
        t0 = time.perf_counter_ns()
        kernel()
        samples.append(time.perf_counter_ns() - t0)
    return statistics.median(samples)


def slowdown() -> float:
    """The host's slowdown now: 1.0 at nominal speed, larger when slower."""
    return (INTERPRETER_SHARE * _median_ns(_interpreter_kernel) / INTERPRETER_NOMINAL_NS
            + (1 - INTERPRETER_SHARE) * _median_ns(_array_kernel) / ARRAY_NOMINAL_NS)


class Timeline:
    """Slowdown samples ``(start_ns, end_ns, slowdown)`` in time order.

    Between two samples the slowdown is taken as their geometric mean, and
    before the first or after the last as that sample's. ``period_ns`` sets
    how often ``due`` asks for a sample inside an episode; None never does.
    """

    def __init__(self, period_ns=None):
        self.samples: list = []
        self.period_ns = period_ns

    def sample(self):
        t0 = time.perf_counter_ns()
        s = slowdown()
        self.samples.append((t0, time.perf_counter_ns(), s))

    def due(self, t: int) -> bool:
        return self.period_ns is not None and (not self.samples or t - self.samples[-1][1] >= self.period_ns)

    def scaled(self, a: int, b: int) -> float:
        """Nanoseconds of the stretch [a, b] at nominal host speed, leaving
        out the time spent in samples."""
        samples = self.samples
        if not samples:
            return float(b - a)
        k = bisect.bisect_right(samples, a, key=lambda x: x[0]) - 1
        total = 0.0
        while a < b:
            lo = samples[k][1] if k >= 0 else a
            hi = samples[k + 1][0] if k + 1 < len(samples) else b
            slow = (samples[k + 1][2] if k < 0 else samples[k][2] if k + 1 == len(samples)
                    else math.sqrt(samples[k][2] * samples[k + 1][2]))
            if min(b, hi) > max(a, lo):
                total += (min(b, hi) - max(a, lo)) / slow
            if k + 1 == len(samples):
                break
            a = max(a, samples[k + 1][1])
            k += 1
        return total
