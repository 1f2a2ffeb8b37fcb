"""Exact click-pattern probabilities and the collision / distance analysis.

Threshold probabilities are Torontonians of reduced kernels, PNR
probabilities are Hafnians, and the collision probability ties the two
distributions together: the L1 distance between the PNR and threshold
distributions equals the total collision probability.

Every Hafnian comes by one route, the eta series of the Torontonian:
Haf(X O_(s)) = [eta^n] Tor(eta O_(s)) for a count vector s of n photons.
The whole distribution and the collision gaps take Tor(O_(S)) and
Haf(X O_(S)) for every click set S from one power-set engine pass each over
the full kernel; the higher coefficients of the same series give the PNR
sums of the L1 distance and of ``tor_as_hafnian_sum``.
The full kernel's own series, det(1 - eta O)^(-1/2) / sqrt(det Sigma), is the
total photon-number law of any zero-mean state, pure or mixed; every tail bound takes it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError
from .gaussian import (
    CLAMP_TOL,
    ClickPattern,
    PNRPattern,
    _as_click_pattern,
    _clamp_probability,
    apply_interferometer,
    haar_unitary,
    husimi_covariance,
    kernel_matrix,
    reduce_matrix,
    squeezed_state,
    sqrt_det_sigma,
)
from .hafnian import hafnian_from_torontonian
from .torontonian import _eta_series, _real_form, _series_terms, _subset_sums, _tor_terms
from .torontonian import torontonian, torontonian_series

ENUMERATION_MODES = 12
COLLISION_MODES = 10
PHOTON_TAIL_TOL = 1e-12


def _require_zero_mean(state):
    if np.abs(state.r).max(initial=0.0) > 1e-12:
        raise ValueError("probability formulas require a zero-mean state")


def state_kernel(state):
    """(Husimi covariance, kernel, sqrt(det Sigma)) for a state; shared precompute."""
    sigma = husimi_covariance(state)
    return sigma, kernel_matrix(sigma), sqrt_det_sigma(sigma)


def threshold_prob(state, pattern):
    """Probability of a threshold click pattern: Tor(O_(S)) / sqrt(det Sigma)."""
    _require_zero_mean(state)
    pattern = _as_click_pattern(state, pattern)
    sigma, kernel, sqdet = state_kernel(state)
    tor = torontonian(reduce_matrix(kernel.matrix, pattern))
    return _clamp_probability(tor.value / sqdet, "threshold_prob")


def pnr_prob(state, pattern):
    """Probability of a photon-number outcome: Haf(X O_(S)) / (sqrt(det Sigma) prod s_k!)."""
    _require_zero_mean(state)
    if not isinstance(pattern, PNRPattern):
        pattern = PNRPattern(state.modes, tuple(pattern))
    sigma, kernel, sqdet = state_kernel(state)
    haf = hafnian_from_torontonian(reduce_matrix(kernel.matrix, pattern.counts))
    return _clamp_probability(haf / (sqdet * math.prod(math.factorial(c) for c in pattern.counts)), "pnr_prob")


def threshold_prob_oracle(state, pattern):
    """Same probability by inclusion-exclusion over vacuum overlaps.

    Uses only determinants of submatrices of Sigma (the probability that a
    set of modes T all read vacuum is 1/sqrt(det Sigma_(T))), never forming
    Sigma^{-1} or the kernel; independent cross-check of the Torontonian
    route and its sign convention. The 2^|C| signed overlaps are added by
    one exact ``math.fsum``.
    """
    _require_zero_mean(state)
    pattern = _as_click_pattern(state, pattern)
    sigma = husimi_covariance(state)
    clicked = [i - 1 for i in pattern.clicked]
    silent = [i for i in range(state.modes) if i + 1 not in pattern.clicked]
    terms = []
    for size in range(len(clicked) + 1):
        for combo in itertools.combinations(clicked, size):
            kept = sorted(silent + list(combo))
            if kept:
                idx = np.array(kept + [i + state.modes for i in kept])
                det = np.linalg.det(sigma.sigma[np.ix_(idx, idx)]).real
            else:
                det = 1.0
            terms.append((-1) ** size / math.sqrt(det))
    return _clamp_probability(math.fsum(terms), "threshold_prob_oracle")


@dataclass(frozen=True)
class TorHafnianSum:
    """Partial sums of the PNR expansion of a Torontonian."""

    pattern: ClickPattern
    partial_sums: tuple  # (total photons N, cumulative sum) pairs
    value: float
    residual_bound: float


def tor_as_hafnian_sum(state, pattern, photon_cutoff):
    """Expand Tor(O_(S)) as the sum of Hafnian terms over PNR patterns on S.

    The partial sum at N photons, the sum of Haf(X O_(s)) / prod(s!) over the
    PNR patterns s of at most N photons supported exactly on S, is the fsum of
    the series coefficients [eta^n] Tor(eta O_(S)), n = |S|..N. Partial sums
    increase monotonically toward the Torontonian; the residual bound is
    sqrt(det Sigma) times the probability of more than ``photon_cutoff``
    total photons, from the state's photon-number law (``_photon_law``).
    The series sums 2^|S| subsets.
    """
    _require_zero_mean(state)
    pattern = _as_click_pattern(state, pattern)
    if photon_cutoff < pattern.size:
        raise ValueError("photon cutoff below the click count")
    sigma, kernel, sqdet = state_kernel(state)
    series = torontonian_series(reduce_matrix(kernel.matrix, pattern), photon_cutoff)
    partials = [(total, math.fsum(series[pattern.size:total + 1])) for total in range(pattern.size, photon_cutoff + 1)]
    return TorHafnianSum(pattern, tuple(partials), partials[-1][1],
                         sqdet * _photon_law(kernel, sqdet, photon_cutoff)[1])


@dataclass(frozen=True)
class ThresholdDistribution:
    """Exact threshold distribution over all 2^l click patterns."""

    modes: int
    table: dict
    normalization_defect: float

    def __post_init__(self):
        if min(self.table.values()) < -CLAMP_TOL:
            raise NumericalError("negative probability in threshold distribution")
        if abs(self.normalization_defect) > 1e-9:
            raise NumericalError(
                f"threshold distribution normalization defect {self.normalization_defect:.3e}"
            )

    def probability(self, clicked):
        return self.table[tuple(clicked)]

    def items_sorted(self):
        return sorted(self.table.items())

    def total_variation(self, other_table):
        keys = set(self.table) | set(other_table)
        return 0.5 * sum(abs(self.table.get(k, 0.0) - other_table.get(k, 0.0)) for k in keys)


def _click_patterns(modes):
    """Clicked-mode tuples of all 2^modes patterns, in bitmask order."""
    return [tuple(i + 1 for i in range(modes) if mask >> i & 1) for mask in range(1 << modes)]


def distribution(state):
    """Threshold probabilities of every click pattern (l <= 12), from one engine pass."""
    _require_zero_mean(state)
    if state.modes > ENUMERATION_MODES:
        raise ValueError(f"full enumeration limited to {ENUMERATION_MODES} modes")
    sigma, kernel, sqdet = state_kernel(state)
    tor = _subset_sums(_tor_terms(kernel.matrix)).tolist()
    table = {}
    for clicked, value in zip(_click_patterns(state.modes), tor):
        table[clicked] = _clamp_probability(value / sqdet, f"distribution{clicked}")
    defect = math.fsum(table.values()) - 1.0
    return ThresholdDistribution(state.modes, table, defect)


@dataclass(frozen=True)
class PhotonMoments:
    """Moments of the total photon number of a product of squeezed vacua."""

    mean: float
    second_moment: float
    tail_bound: float
    distribution: np.ndarray  # q(N) for N = 0..cutoff


def photon_moments(r_vec, cutoff):
    """Total-photon-number moments for squeezed-vacuum inputs.

    Takes q(N) of ``squeezed_state(r_vec)`` from ``_photon_law`` and reports
    E[N], E[N^2] and the truncation tail. The truncated moments are checked
    against the closed forms E[n_i] = sinh^2(r_i), Var[n_i] = sinh^2(2 r_i)/2.
    """
    r_vec = np.atleast_1d(np.asarray(r_vec, dtype=float))
    _, kernel, sqdet = state_kernel(squeezed_state(r_vec))
    q, tail = _photon_law(kernel, sqdet, cutoff)
    if tail > PHOTON_TAIL_TOL:
        raise ValueError(f"photon cutoff {cutoff} leaves tail {tail:.3e} > {PHOTON_TAIL_TOL:.0e}")
    ns = np.arange(cutoff + 1)
    mean = float(np.dot(q, ns))
    second = float(np.dot(q, ns ** 2))
    mean_exact = float(np.sum(np.sinh(r_vec) ** 2))
    var_exact = float(np.sum(np.sinh(2 * r_vec) ** 2) / 2)
    second_exact = var_exact + mean_exact ** 2
    slack = tail * cutoff ** 2 + 1e-9
    if abs(mean - mean_exact) > slack or abs(second - second_exact) > slack:
        raise NumericalError("truncated photon moments disagree with the closed forms")
    return PhotonMoments(mean, second, tail, q)


def _photon_law(kernel, sqdet, cutoff):
    """Law P(N = n), n = 0..cutoff, of the total photon number of a zero-mean state, and its tail P(N > cutoff).

    P(N = n) = [eta^n] det(1 - eta O)^(-1/2) / sqrt(det Sigma): the full-kernel term of the engine's eta series.
    """
    law = _eta_series(cutoff)(_real_form(kernel.matrix)[None])[0] / sqdet
    return law, max(0.0, 1.0 - math.fsum(law))


def _covariance_photon_moments(V):
    """E[N] = (tr V - 2l) / 4 and E[N^2] = (tr V^2 - 2l) / 8 + E[N]^2 of any zero-mean state (vacuum V = 1)."""
    mean = float(np.trace(V) - len(V)) / 4
    return mean, float(np.trace(V @ V) - len(V)) / 8 + mean ** 2


@dataclass(frozen=True)
class CollisionReport:
    """Collision probability and the threshold/PNR distance it controls."""

    modes: int
    epsilon: float
    gaps: dict  # click pattern -> (Tor - Haf)/sqrt(det Sigma), all >= 0
    mean_photons: float
    mean_photons_sq: float
    haar_bound: float
    l1_patternwise: float | None = None
    photon_cutoff: int | None = None
    residual_bound: float | None = None

    def __post_init__(self):
        if not -CLAMP_TOL <= self.epsilon <= 1 + CLAMP_TOL:
            raise NumericalError(f"collision probability {self.epsilon!r} outside [0, 1]")
        if self.gaps and min(self.gaps.values()) < -CLAMP_TOL:
            raise NumericalError("threshold probability fell below its collision-free part")


def collision_probability(state, photon_cutoff="auto"):
    """Total collision probability and the per-pattern Tor - Haf gaps.

    epsilon is computed exactly as sum_S (Tor[O_(S)] - Haf[X O_(S)]) /
    sqrt(det Sigma) over all click patterns. The L1 distance between the
    PNR and threshold distributions up to ``photon_cutoff`` total photons
    ("auto": 8 for l <= 4, skipped above; None: always skipped) comes from
    the same series pass as the gaps; it matches epsilon within the
    reported residual bound, half the state's photon-number tail beyond the
    cutoff (``_photon_law``). The photon moments and the Haar bound come
    from the covariance. Every route works on mixed states.
    """
    _require_zero_mean(state)
    if state.modes > COLLISION_MODES:
        raise ValueError(f"collision analysis limited to {COLLISION_MODES} modes")
    if photon_cutoff == "auto":
        photon_cutoff = 8 if state.modes <= 4 else None
    if photon_cutoff is not None and photon_cutoff < state.modes:
        raise ValueError("photon cutoff must reach the mode count for the L1 route")
    sigma, kernel, sqdet = state_kernel(state)
    tor = _subset_sums(_tor_terms(kernel.matrix)).tolist()
    order = state.modes if photon_cutoff is None else photon_cutoff
    series = _subset_sums(_series_terms(kernel.matrix, order))
    gaps = {}
    for mask, clicked in enumerate(_click_patterns(state.modes)):
        haf = float(series[mask, len(clicked)])  # Haf(X O_(S)) = [eta^|S|] Tor(eta O_(S))
        gaps[clicked] = (tor[mask] - haf) / sqdet
    epsilon = min(max(math.fsum(gaps.values()), 0.0), 1.0)
    mean, second = _covariance_photon_moments(state.V)
    l1 = residual = None
    if photon_cutoff is not None:
        l1, residual = _l1_patternwise(gaps, series, sqdet, _photon_law(kernel, sqdet, photon_cutoff)[1])
    return CollisionReport(
        modes=state.modes,
        epsilon=epsilon,
        gaps=gaps,
        mean_photons=mean,
        mean_photons_sq=second,
        haar_bound=8.0 * second / state.modes,
        l1_patternwise=l1,
        photon_cutoff=photon_cutoff,
        residual_bound=residual,
    )


def _l1_patternwise(gaps, series, sqdet, tail):
    """Sum of |p(s) - p'(s)| / 2 over PNR outcomes s of up to ``cutoff`` photons, and its residual bound.

    ``cutoff`` is the last column of ``series``. ``gaps`` and the rows of ``series`` run over the click sets S in
    bitmask order; series[S, n] = [eta^n] Tor(eta O_(S)) is the sum of Haf(X O_(s)) / prod(s_k!) over the count
    vectors s with support S and total n. Only the collision-free outcome (n = |S|) has a threshold counterpart,
    differing from it by the gap of S; every other outcome enters with its own probability, so only the group sums
    series[S, n] / sqrt(det Sigma), n = |S|+1..cutoff, are needed. The empty outcome and click pattern coincide.
    The residual is half of ``tail``, the probability of more than ``cutoff`` photons.
    """
    terms = []
    for mask, (clicked, gap) in enumerate(gaps.items()):
        if clicked:
            terms.append(abs(gap))
            terms.extend(series[mask, len(clicked) + 1:] / sqdet)
    return 0.5 * math.fsum(terms), 0.5 * tail + 1e-12


@dataclass(frozen=True)
class HaarCollisionResult:
    """Monte Carlo estimate of the Haar-averaged collision probability."""

    modes: int
    trials: int
    mean_epsilon: float
    stderr: float
    bound: float
    epsilons: tuple


def haar_collision_experiment(modes, r_vec, trials, rng):
    """Sample Haar interferometers and compare mean collision probability to 8 E[N^2]/l.

    The bound is strict in expectation; the sample mean is required to stay
    below it (up to roundoff when both sides vanish).
    """
    if modes > 8:
        raise ValueError("Haar collision experiment limited to 8 modes")
    if trials < 30:
        raise ValueError("need at least 30 trials for a meaningful mean")
    r_vec = np.atleast_1d(np.asarray(r_vec, dtype=float))
    if r_vec.size != modes:
        raise ValueError("need one squeezing parameter per mode")
    base = squeezed_state(r_vec)
    eps = []
    for _ in range(trials):
        state = apply_interferometer(base, haar_unitary(modes, rng))
        eps.append(collision_probability(state, photon_cutoff=None).epsilon)
    eps = np.asarray(eps)
    mean = float(eps.mean())
    stderr = float(eps.std(ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
    bound = 8.0 * _covariance_photon_moments(base.V)[1] / modes
    if mean > bound + 1e-12:
        raise NumericalError(f"sample mean collision probability {mean:.6g} exceeds the bound {bound:.6g}")
    return HaarCollisionResult(modes, trials, mean, stderr, bound, tuple(eps.tolist()))
