"""Scaling benchmarks: Torontonian size sweeps and forced-click sampling.

Both kernels grow exponentially (2^N subset terms; branch doubling per
click). Each size is timed with one warmup run followed by five measured
runs; the per-size value is the median of the five and the doubling
factor comes from a least-squares fit of log(median) against size,
excluding the two smallest sizes where fixed overhead still matters.
Runs are timed in CPU seconds of this process (``time.process_time``), so
other load on the machine moves them less; the CSV holds CPU seconds.
"""

from __future__ import annotations

import io
import math
import time
from dataclasses import dataclass

import numpy as np

from .gaussian import ClickPattern, random_state
from .probabilities import state_kernel
from .sampler import chain_rule_probability
from .torontonian import torontonian

REPEATS = 5
FIT_SKIP = 2  # smallest sizes excluded from the doubling-factor fit
SAMPLER_MODES = 16  # modes of the sampler benchmark's state, the most clicks it can force


@dataclass(frozen=True)
class BenchResult:
    kind: str
    sizes: tuple
    medians: tuple
    means: tuple
    stds: tuple
    doubling_factor: float

    def to_csv(self):
        buf = io.StringIO()
        buf.write("size,median_seconds,mean_seconds,std_seconds\n")
        for size, med, mean, std in zip(self.sizes, self.medians, self.means, self.stds):
            buf.write(f"{size},{med!r},{mean!r},{std!r}\n")
        return buf.getvalue()


def _time_runs(fn, repeats):
    fn()  # warmup
    samples = []
    for _ in range(repeats):
        start = time.process_time()
        fn()
        samples.append(time.process_time() - start)
    arr = np.asarray(samples)
    return float(np.median(arr)), float(arr.mean()), float(arr.std(ddof=1))


def _sweep(kind, sizes, timed_call, repeats):
    """Time ``timed_call(size)`` at every size; the doubling factor fits log(median) against size.

    ``timed_call(size)`` prepares its inputs and returns the zero-argument function that is timed.
    """
    if len(sizes) < FIT_SKIP + 2:
        raise ValueError("need at least two sizes beyond the excluded ones")
    medians, means, stds = zip(*[_time_runs(timed_call(size), repeats) for size in sizes])
    slope = np.polyfit(sizes[FIT_SKIP:], np.log(medians[FIT_SKIP:]), 1)[0]
    return BenchResult(kind, tuple(sizes), medians, means, stds, float(math.exp(slope)))


def bench_torontonian(sizes, seed, repeats=REPEATS):
    """Time the full Torontonian of random physical N-mode kernels."""
    sizes = sorted(int(s) for s in sizes)
    if sizes and sizes[-1] > 22:
        raise ValueError("Torontonian benchmark limited to N <= 22")
    rng = np.random.default_rng(seed)

    def timed_call(n):
        _, kernel, _ = state_kernel(random_state(n, rng, max_squeezing=0.4))
        return lambda: torontonian(kernel)

    return _sweep("tor", sizes, timed_call, repeats)


def bench_sampler(click_counts, seed, repeats=REPEATS):
    """Time one forced-path ``chain_rule_probability`` with a growing number of clicks.

    This is the signed-mixture chain rule, not the pivot tree of ``sample``,
    ``step`` and ``herald``. Clicks are forced on the lowest-index modes,
    which are measured last, so the branch count doubles at the tail of the
    pass and the total work tracks 2^clicks.
    """
    click_counts = sorted(int(k) for k in click_counts)
    if click_counts and click_counts[-1] > SAMPLER_MODES:
        raise ValueError(f"sampler benchmark limited to {SAMPLER_MODES} forced clicks")
    state = random_state(SAMPLER_MODES, np.random.default_rng(seed), max_squeezing=0.5)

    def timed_call(k):
        pattern = ClickPattern(SAMPLER_MODES, tuple(range(1, k + 1)))
        return lambda: chain_rule_probability(state, pattern)

    return _sweep("sample", click_counts, timed_call, repeats)
