"""Inputs, timed calls and correctness checks of the three benchmark workloads.

Every input comes from the benchmark seed; gbsim only sees the generated
states, patterns and configurations. Library functions are looked up on
their module at call time (``probabilities.threshold_prob``), so the
tracer's wrappers apply when they are installed and nothing wraps them
otherwise.

Each workload yields an endless, seed-determined sequence of ``Op``s. An op
is one call into the workload's entry point; its check runs outside the
timed region against a route that is already in the library and returns the
relative disagreement, or raises ``CheckFailed``.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

import gbsim.cv as cv
import gbsim.gaussian as gaussian
import gbsim.hafnian as hafnian
import gbsim.probabilities as probabilities
import gbsim.sampler as sampler
import gbsim.serialize as serialize

SQUEEZING = 0.6
SAMPLE_MODES = 16
SAMPLE_BATCH = 12
# Click statistics differ between Haar draws (84-110 samples/s over eight
# seeds on a 2-vCPU VM); rotating over several states keeps a run
# representative. With eight, six seeds measured interleaved in one process
# gave 85.9-91.6 samples/s.
SAMPLE_STATES = 8
EXACT_MODES = 16
CV_SHOTS = 2
CV_HERALD_SQUEEZING = 1.0

# Tolerances of the correctness checks: a result passes when
# |value - reference| <= PROB_REL_TOL * |reference| + PROB_ABS_TOL. Measured worst
# cases: threshold_prob at 14 clicks on 16 modes, chain rule 1.7e-8 relative
# but vacuum-overlap oracle 2.4e-6 relative (5.9e-13 absolute at p = 2.5e-7),
# so the oracle serves only up to ORACLE_MAX_CLICKS and these tolerances
# would still flag its drift. pnr_prob at 10 photons, two Hafnian routes:
# up to 4.2e-6 relative on near-cancelling patterns (p ~ 1e-11), never more
# than 3.1e-15 absolute over 780 patterns; PROB_ABS_TOL covers that floor.
PROB_REL_TOL = 1e-6
PROB_ABS_TOL = 1e-14
HERALD_CLOSED_FORM_REL_TOL = 1e-12
ORACLE_MAX_CLICKS = 11
NAIVE_HAFNIAN_MAX_DIM = 12  # (2m-1)!! matchings: dimension 16 costs 3 s per check

# 10-14 rather than 8-14: with 8 and 9 clicks (3-4 ms each) the deck's median
# call fell in the 2x gap between herald at 9 clicks (30 ms) and herald at 10
# (58 ms), and op_p50_s hopped across it from run to run; without them it
# falls mid-way through the 57-68 ms cluster of herald 10, threshold_prob 13
# and collision_probability on 6 modes.
THRESHOLD_CLICKS = range(10, 15)
PNR_PHOTONS = (6, 8, 10)  # odd totals have probability 0 for pure squeezed inputs
HERALD_CLICKS = range(8, 13)
HERALD_NOCLICKS = 2
DISTRIBUTION_MODES = (8, 9)
COLLISION_MODES = (6, 7)
CV_PIPELINES = ("B", "C", "D")
CV_MODES = (6, 7, 8)
CV_HERALDS = (2, 3)


class CheckFailed(Exception):
    """A timed call returned a result that disagrees with the reference route."""


@dataclass
class Op:
    kind: str
    units: int
    call: Callable[[], object]
    check: Callable[[object], float]


def _rel_err(value, reference, what, rel_tol=PROB_REL_TOL, abs_tol=PROB_ABS_TOL, scale=None):
    """Relative disagreement (to ``scale``, default the reference); raises beyond tolerance."""
    scale = abs(reference) if scale is None else scale
    diff = abs(value - reference)
    if not diff <= rel_tol * scale + abs_tol:
        raise CheckFailed(f"{what}: {value!r} vs {reference!r} (diff {diff:.3e}, scale {scale:.3e})")
    return diff / scale


def haar_state(modes, rng):
    """Uniformly squeezed vacua through a Haar interferometer."""
    unitary = gaussian.haar_unitary(modes, rng)
    return gaussian.apply_interferometer(gaussian.squeezed_state([SQUEEZING] * modes), unitary)


def _round_trip_state(state, workdir, name):
    path = os.path.join(workdir, f"{name}.json")
    serialize.save_state(state, path)
    return serialize.load_state(path)


# -- sample -----------------------------------------------------------------

def build_sample(seed, workdir):
    rng = np.random.default_rng([seed, 0])
    states = [haar_state(SAMPLE_MODES, rng) for _ in range(SAMPLE_STATES)]
    return {
        "states": [_round_trip_state(st, workdir, f"sample_state_{i}") for i, st in enumerate(states)],
        "out": os.path.join(workdir, "samples.jsonl"),
        "seed": seed,
    }


def _check_samples(state, path, n):
    def check(records):
        with open(path, encoding="utf-8") as fh:
            lines = sum(1 for _ in fh)
        if len(records) != n or lines != n:
            raise CheckFailed(f"expected {n} samples, got {len(records)} records and {lines} lines")
        worst = 0.0
        for rec in records:
            clicked = set(rec.pattern.clicked)
            order = range(state.modes, 0, -1)  # sample_batch's default measurement order
            chain = math.prod(1.0 - p if m in clicked else p for m, p in zip(order, rec.noclick_probs))
            ref = probabilities.threshold_prob(state, rec.pattern)
            worst = max(worst, _rel_err(chain, ref, f"sample {sorted(clicked)}"))
        return worst

    return check


def sample_ops(inputs):
    """Batches round-robin over the states, each with its own batch seed."""
    states, path = inputs["states"], inputs["out"]
    for i in itertools.count():
        state = states[i % len(states)]
        batch_seed = (inputs["seed"] << 32) + i

        def call(state=state, batch_seed=batch_seed):
            records = sampler.sample_batch(state, SAMPLE_BATCH, batch_seed)
            serialize.save_samples(records, path)
            return records

        yield Op("sample_batch", SAMPLE_BATCH, call, _check_samples(state, path, SAMPLE_BATCH))


def sample_warmup(inputs):
    return [next(sample_ops(dict(inputs, seed=inputs["seed"] ^ 0x5EED)))]


# -- exact ------------------------------------------------------------------

def build_exact(seed, workdir):
    rng = np.random.default_rng([seed, 0])
    states = {m: haar_state(m, rng) for m in (EXACT_MODES,) + DISTRIBUTION_MODES + COLLISION_MODES}
    states = {m: _round_trip_state(s, workdir, f"exact_state_{m}") for m, s in states.items()}
    kernels = {m: probabilities.state_kernel(states[m]) for m in (EXACT_MODES,) + COLLISION_MODES}
    return {"states": states, "kernels": kernels, "seed": seed}


def _check_threshold(state, pattern):
    def check(p):
        if len(pattern) <= ORACLE_MAX_CLICKS:
            ref = probabilities.threshold_prob_oracle(state, pattern)
        else:
            ref = sampler.chain_rule_probability(state, pattern)
        return _rel_err(p, ref, f"threshold_prob{pattern}")

    return check


def _reference_pnr(kernel_triple, counts):
    """PNR probability from an independent Hafnian route."""
    _, kernel, sqdet = kernel_triple
    reduced = gaussian.reduce_matrix(kernel.matrix, counts)
    photons = sum(counts)
    if 2 * photons <= NAIVE_HAFNIAN_MAX_DIM:
        haf = hafnian.hafnian_naive(gaussian.block_swap(photons) @ reduced).real
    else:
        haf = hafnian.hafnian_from_torontonian(reduced)
    return haf / (sqdet * math.prod(math.factorial(c) for c in counts))


def _check_pnr(kernel_triple, counts):
    def check(p):
        return _rel_err(p, _reference_pnr(kernel_triple, counts), f"pnr_prob{counts}")

    return check


def _check_herald(state, measured, outcomes):
    def check(result):
        _, prob = result
        marginal = gaussian.reduce_state(state, measured)
        clicked = tuple(i + 1 for i, bit in enumerate(outcomes) if bit)
        ref = probabilities.threshold_prob(marginal, clicked)
        return _rel_err(prob, ref, f"herald{measured}")

    return check


def _check_distribution(state, patterns):
    def check(dist):
        if len(dist.table) != 1 << state.modes:
            raise CheckFailed(f"distribution has {len(dist.table)} patterns, expected {1 << state.modes}")
        return max(
            _rel_err(dist.probability(pat), probabilities.threshold_prob_oracle(state, pat), f"distribution{pat}")
            for pat in patterns
        )

    return check


def _check_collision(state, kernel_triple, pattern):
    def check(report):
        if not 0.0 <= report.epsilon <= 1.0:
            raise CheckFailed(f"collision probability {report.epsilon!r} outside [0, 1]")
        counts = tuple(1 if m in pattern else 0 for m in range(1, state.modes + 1))
        p_threshold = probabilities.threshold_prob_oracle(state, pattern)
        ref_gap = p_threshold - (_reference_pnr(kernel_triple, counts) if pattern else 1.0 / kernel_triple[2])
        return _rel_err(report.gaps[pattern], ref_gap, f"collision gap{pattern}", scale=p_threshold)

    return check


def _random_pattern(rng, modes, size):
    return tuple(sorted(int(m) + 1 for m in rng.choice(modes, size, replace=False)))


def _herald_outcomes(clicks):
    """Forced bits for ascending measured labels, no-clicks evenly spaced in measurement order.

    ``herald`` measures from the highest label down and a click doubles the
    branches, so where the no-clicks fall sets the cost; fixing their
    positions keeps the cost of a (kind, size) the same for every seed.
    """
    steps = clicks + HERALD_NOCLICKS
    silent = {round((i + 1) * steps / (HERALD_NOCLICKS + 1)) for i in range(HERALD_NOCLICKS)}
    in_order = [0 if step in silent else 1 for step in range(steps)]
    return in_order[::-1]


def _exact_op(inputs, rng, kind, size):
    states, kernels = inputs["states"], inputs["kernels"]
    big = states[EXACT_MODES]
    if kind == "threshold_prob":
        pattern = _random_pattern(rng, EXACT_MODES, size)
        return Op(kind, 1, lambda: probabilities.threshold_prob(big, pattern), _check_threshold(big, pattern))
    if kind == "pnr_prob":
        counts = tuple(int(c) for c in np.bincount(rng.choice(EXACT_MODES, size), minlength=EXACT_MODES))
        return Op(kind, 1, lambda: probabilities.pnr_prob(big, counts), _check_pnr(kernels[EXACT_MODES], counts))
    if kind == "herald":
        measured = sorted(int(m) + 1 for m in rng.choice(EXACT_MODES, size + HERALD_NOCLICKS, replace=False))
        outcomes = _herald_outcomes(size)
        return Op(kind, 1, lambda: sampler.herald(big, measured, outcomes), _check_herald(big, measured, outcomes))
    if kind == "distribution":
        state = states[size]
        patterns = [_random_pattern(rng, size, int(k)) for k in rng.integers(0, size + 1, 2)]
        return Op(kind, 1, lambda: probabilities.distribution(state), _check_distribution(state, patterns))
    if kind == "collision_probability":
        state = states[size]
        pattern = _random_pattern(rng, size, int(rng.integers(0, NAIVE_HAFNIAN_MAX_DIM // 2 + 1)))
        return Op(kind, 1, lambda: probabilities.collision_probability(state),
                  _check_collision(state, kernels[size], pattern))
    raise ValueError(kind)


EXACT_DECK = (
    [("threshold_prob", k) for k in THRESHOLD_CLICKS]
    + [("pnr_prob", n) for n in PNR_PHOTONS]
    + [("herald", k) for k in HERALD_CLICKS]
    + [("distribution", m) for m in DISTRIBUTION_MODES]
    + [("collision_probability", m) for m in COLLISION_MODES]
)


def exact_ops(inputs):
    """Shuffled decks holding every (kind, size) once, so the mix is fixed per deck."""
    rng = np.random.default_rng([inputs["seed"], 1])
    while True:
        for i in rng.permutation(len(EXACT_DECK)):
            yield _exact_op(inputs, rng, *EXACT_DECK[i])


def exact_warmup(inputs):
    rng = np.random.default_rng([inputs["seed"], 2])
    smallest = {}
    for kind, size in EXACT_DECK:
        smallest.setdefault(kind, size)
    return [_exact_op(inputs, rng, kind, size) for kind, size in smallest.items()]


# -- cv ---------------------------------------------------------------------

def build_cv(seed, workdir):
    rng = np.random.default_rng([seed, 0])
    unitaries = {}
    for m in CV_MODES:
        path = os.path.join(workdir, f"cv_unitary_{m}.json")
        serialize.save_matrix(gaussian.haar_unitary(m, rng).matrix, path)
        unitaries[m] = serialize.load_matrix(path)
    return {"unitaries": unitaries, "seed": seed}


def _check_pipeline(config):
    def check(result):
        records, meta = result
        if len(records) != config.shots:
            raise CheckFailed(f"pipeline {config.pipeline}: {len(records)} records for {config.shots} shots")
        for rec in records:
            if config.pipeline == "B":
                if not set(rec["pattern"]) <= set(range(1, config.modes + 1)):
                    raise CheckFailed(f"pipeline B pattern {rec['pattern']} outside the signal modes")
                continue
            outcomes = np.array([r["outcome"] for r in rec["cv"]])
            if outcomes.shape != (config.modes, 2) or not np.all(np.isfinite(outcomes)):
                raise CheckFailed(f"pipeline {config.pipeline}: bad outcomes {outcomes.tolist()}")
        closed = math.tanh(config.herald_squeezing) ** (2 * config.herald_count)
        return _rel_err(meta["herald_probability"], closed, "herald_probability", HERALD_CLOSED_FORM_REL_TOL, 0.0)

    return check


def _cv_op(inputs, pipeline, modes, heralds, seed):
    config = cv.PipelineConfig(
        pipeline=pipeline,
        modes=modes,
        shots=CV_SHOTS,
        seed=seed,
        herald_count=heralds,
        herald_squeezing=CV_HERALD_SQUEEZING,
        unitary=inputs["unitaries"][modes],
    )
    return Op(f"pipeline_{pipeline}", CV_SHOTS, lambda: cv.simulate_pipeline(config), _check_pipeline(config))


CV_DECK = list(itertools.product(CV_PIPELINES, CV_MODES, CV_HERALDS))


def cv_ops(inputs):
    rng = np.random.default_rng([inputs["seed"], 1])
    for deck in itertools.count():
        for j, i in enumerate(rng.permutation(len(CV_DECK))):
            yield _cv_op(inputs, *CV_DECK[i], seed=(inputs["seed"] << 32) + deck * len(CV_DECK) + j)


def cv_warmup(inputs):
    return [_cv_op(inputs, p, CV_MODES[0], CV_HERALDS[0], seed=inputs["seed"] ^ 0x5EED) for p in CV_PIPELINES]


@dataclass(frozen=True)
class Workload:
    build: Callable
    ops: Callable
    warmup: Callable
    block_ops: int  # consecutive calls per throughput block (one deck where there are decks)
    traced_ops: int  # length of the fixed op prefix replayed in the traced run


WORKLOADS = {
    "sample": Workload(build_sample, sample_ops, sample_warmup, block_ops=SAMPLE_STATES, traced_ops=16),
    "exact": Workload(build_exact, exact_ops, exact_warmup, block_ops=len(EXACT_DECK), traced_ops=2 * len(EXACT_DECK)),
    "cv": Workload(build_cv, cv_ops, cv_warmup, block_ops=len(CV_DECK), traced_ops=len(CV_DECK)),
}
