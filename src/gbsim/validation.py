"""Cross-validation driver: runs the independent-oracle checks end to end.

Each check pits one evaluation route against an independent one (perfect
matchings vs power-set Hafnian, Torontonian vs vacuum-overlap inclusion-
exclusion, series bridge vs perfect matchings, PNR expansion, L1/collision
identity, sampler vs enumeration) and reports the worst residual. The
``mutate`` hook flips an internal convention so the suite can prove it
would catch the bug.
"""

from __future__ import annotations

import contextlib
import math
import sys
from dataclasses import dataclass

import numpy as np

from .gaussian import block_swap, random_state, reduce_matrix
from .hafnian import hafnian_naive, hafnian_powerset, hafnian_from_torontonian
from .probabilities import (
    collision_probability,
    distribution,
    state_kernel,
    threshold_prob,
    threshold_prob_oracle,
    tor_as_hafnian_sum,
)
from .sampler import chain_rule_probability, sample_batch
from .torontonian import torontonian

MUTATIONS = ("tor_sign_flip", "haf_wrong_reduction", "haf_sign_flip")


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    residual: float
    tolerance: float
    detail: str

    def to_dict(self):
        return {
            "name": self.name,
            "passed": bool(self.passed),
            "residual": float(self.residual),
            "tolerance": float(self.tolerance),
            "detail": self.detail,
        }


@contextlib.contextmanager
def _mutated(mutate):
    # the package re-exports a function named like the torontonian module,
    # so the module objects come from sys.modules
    tor_mod = sys.modules["gbsim.torontonian"]
    haf_mod = sys.modules["gbsim.hafnian"]
    if mutate is None:
        yield
        return
    if mutate not in MUTATIONS:
        raise ValueError(f"unknown mutation {mutate!r}; choose from {MUTATIONS}")
    try:
        if mutate == "tor_sign_flip":
            tor_mod._SIGN_FLIP = True
        elif mutate == "haf_wrong_reduction":
            haf_mod._WRONG_REDUCTION = True
        else:
            haf_mod._SIGN_FLIP = True
        yield
    finally:
        tor_mod._SIGN_FLIP = False
        haf_mod._WRONG_REDUCTION = False
        haf_mod._SIGN_FLIP = False


def _random_symmetric(dim, rng):
    A = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return A + A.T


def check_hafnian_oracle(rng, matrices_per_size=20, dims=(2, 4, 6, 8)):
    """Power-set Hafnian against the perfect-matching oracle."""
    worst = 0.0
    for dim in dims:
        for _ in range(matrices_per_size):
            A = _random_symmetric(dim, rng)
            ref = hafnian_naive(A)
            got = hafnian_powerset(A)
            worst = max(worst, abs(got - ref) / max(abs(ref), 1e-12))
    return CheckResult("hafnian_oracle", worst < 1e-8, worst, 1e-8,
                       f"{len(dims) * matrices_per_size} random symmetric matrices, dims {list(dims)}")


def check_hafnian_diagonal(rng, trials=10):
    """Hafnian must ignore diagonal entries; a wrong reduction breaks this."""
    worst = 0.0
    for _ in range(trials):
        A = _random_symmetric(6, rng)
        B = A + np.diag(rng.standard_normal(6) + 1j * rng.standard_normal(6))
        ref = hafnian_powerset(A)
        got = hafnian_powerset(B)
        worst = max(worst, abs(got - ref) / max(abs(ref), 1e-12))
    return CheckResult("hafnian_diagonal", worst < 1e-10, worst, 1e-10,
                       f"{trials} diagonal perturbations on 6x6 matrices")


def check_threshold_oracle(rng, states=10, max_modes=4):
    """Torontonian route against vacuum-overlap inclusion-exclusion."""
    worst = 0.0
    for _ in range(states):
        modes = int(rng.integers(1, max_modes + 1))
        state = random_state(modes, rng)
        for mask in range(1 << modes):
            clicked = tuple(i + 1 for i in range(modes) if mask >> i & 1)
            a = threshold_prob(state, clicked)
            b = threshold_prob_oracle(state, clicked)
            worst = max(worst, abs(a - b))
    return CheckResult("threshold_oracle", worst < 1e-10, worst, 1e-10,
                       f"{states} random states, all patterns, up to {max_modes} modes")


def check_bridge(rng, states=6, max_modes=4):
    """Series coefficient of Tor(eta O), the one route of every kernel Hafnian, against matchings of X O.

    ``hafnian_naive`` enumerates the perfect matchings of X O and shares no
    code with the series. Mixed states keep odd-mode Hafnians away from the
    parity zero, so the relative comparison stays meaningful; a small floor
    guards the cases where both routes return roundoff-level values.
    """
    worst = 0.0
    for _ in range(states):
        modes = int(rng.integers(1, max_modes + 1))
        state = random_state(modes, rng, max_squeezing=0.6, pure=modes % 2 == 0)
        _, kernel, _ = state_kernel(state)
        a = hafnian_from_torontonian(kernel)
        b = hafnian_naive(block_swap(modes) @ kernel.matrix)
        worst = max(worst, abs(a - b) / (abs(b) + 1e-5))
    return CheckResult("bridge", worst < 1e-7, worst, 1e-7,
                       f"{states} random kernels up to {max_modes} modes")


def check_torhaf_convergence(rng, cutoff=10):
    """PNR partial sums must rise monotonically to the Torontonian."""
    state = random_state(2, rng, max_squeezing=0.7)
    _, kernel, sqdet = state_kernel(state)
    result = tor_as_hafnian_sum(state, (1, 2), cutoff)
    sums = [s for _, s in result.partial_sums]
    monotone = all(b >= a - 1e-12 for a, b in zip(sums, sums[1:]))
    target = torontonian(reduce_matrix(kernel.matrix, (1, 1))).value
    gap = abs(result.value - target)
    passed = monotone and gap <= result.residual_bound + 1e-9
    return CheckResult("torhaf_convergence", passed, gap, result.residual_bound + 1e-9,
                       f"2-mode state, cutoff {cutoff}, monotone={monotone}")


def check_l1_identity(rng, modes=3):
    """Pattern-wise L1 distance equals the collision probability within the tail."""
    state = random_state(modes, rng, max_squeezing=0.5)
    report = collision_probability(state, photon_cutoff=max(8, modes))
    gap = abs(report.l1_patternwise - report.epsilon)
    return CheckResult("l1_identity", gap <= report.residual_bound + 1e-10, gap,
                       report.residual_bound + 1e-10,
                       f"{modes}-mode state, cutoff {report.photon_cutoff}")


def _chisquare(obs, exp):
    """Pearson's statistic of observed against expected counts and its upper-tail
    p-value on ``len(obs) - 1`` degrees of freedom, as scipy's ``chisquare``
    computes them. ``scipy.special`` is imported here, not at module load."""
    from scipy.special import chdtrc

    stat = np.sum((obs - exp) ** 2 / exp)
    return stat, chdtrc(len(obs) - 1, stat)


def check_sampler(rng, samples=3000, modes=3):
    """Chain-rule sampler against full enumeration: chi-square, plus exact path products.

    The path products are those of ``chain_rule_probability`` for every
    pattern and those recorded by every drawn sample.
    """
    seed = int(rng.integers(0, 2 ** 32))
    state = random_state(modes, rng, max_squeezing=0.7)
    dist = distribution(state)
    worst_path = 0.0
    for pattern, p in dist.items_sorted():
        worst_path = max(worst_path, abs(chain_rule_probability(state, pattern) - p))
    records = sample_batch(state, samples, seed)
    counts = {}
    for rec in records:
        counts[rec.pattern.clicked] = counts.get(rec.pattern.clicked, 0) + 1
        # the probabilities the sampler drew by, in its default order (highest mode first)
        steps = zip(range(modes, 0, -1), rec.noclick_probs)
        path = math.prod(1.0 - p if mode in rec.pattern.clicked else p for mode, p in steps)
        worst_path = max(worst_path, abs(path - dist.probability(rec.pattern.clicked)))
    patterns = [k for k, _ in dist.items_sorted()]
    expected = np.array([dist.probability(k) * samples for k in patterns])
    observed = np.array([counts.get(k, 0) for k in patterns], dtype=float)
    keep = expected > 5
    if keep.sum() >= 2:
        obs, exp = observed[keep], expected[keep]
        if not keep.all():
            obs = np.append(obs, observed[~keep].sum())
            exp = np.append(exp, expected[~keep].sum())
        exp = exp * obs.sum() / exp.sum()  # remove the normalization defect
        _, pvalue = _chisquare(obs, exp)
    else:
        pvalue = 1.0
    passed = worst_path < 1e-9 and pvalue > 1e-3
    return CheckResult("sampler_chisquare", passed, worst_path, 1e-9,
                       f"{samples} samples, chi-square p = {pvalue:.4f}")


def _guarded(name, fn):
    """A check that raises counts as failed; mutations often trip guards early."""
    try:
        return fn()
    except Exception as exc:  # noqa: BLE001 - any failure means the check caught a bug
        return CheckResult(name, False, math.inf, 0.0, f"raised {type(exc).__name__}: {exc}")


def run_validation(seed=20240801, scale="default", mutate=None):
    """Run every cross-check; returns (all passed, [CheckResult])."""
    small = scale == "small"
    with _mutated(mutate):
        rng = np.random.default_rng(seed)
        checks = [
            _guarded("hafnian_oracle", lambda: check_hafnian_oracle(rng, matrices_per_size=5 if small else 20)),
            _guarded("hafnian_diagonal", lambda: check_hafnian_diagonal(rng, trials=4 if small else 10)),
            _guarded("threshold_oracle", lambda: check_threshold_oracle(rng, states=4 if small else 10)),
            _guarded("bridge", lambda: check_bridge(rng, states=3 if small else 6)),
            _guarded("torhaf_convergence", lambda: check_torhaf_convergence(rng, cutoff=8 if small else 10)),
            _guarded("l1_identity", lambda: check_l1_identity(rng, modes=2 if small else 3)),
            _guarded("sampler_chisquare", lambda: check_sampler(rng, samples=1000 if small else 3000)),
        ]
    return all(c.passed for c in checks), checks
