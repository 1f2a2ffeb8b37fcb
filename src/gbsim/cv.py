"""Homodyne and heterodyne measurements on signed Gaussian mixtures.

Outcomes live in the quadrature plane (x, p) with hbar = 2; a heterodyne
outcome relates to the coherent amplitude by alpha = (x + i p) / 2. Each
branch contributes a genuine 2D Gaussian with classical covariance
V_B + W, so the signed mixture density integrates to one by construction
(weights sum to one; a density takes the mixture's array and 2x2 checks,
``sampler._set_mixture_arrays`` and ``_positive_definite_dets``); pointwise
nonnegativity is probed numerically when a density is built, on a
scrambled Halton point set that is built once per process on the unit
square and scaled to each density's box: the branch means +- 6 sigma, each
axis by its own largest branch variance, so a homodyne density's x range
does not take the width of its p range. The pdf adds up branches in place.

Sampling inverts the exact 1D marginal CDF and then the conditional CDF,
both closed-form error-function mixtures (one ``np.vecdot`` per sum), by
Newton steps on the closed-form mixture pdf inside a bracket that every CDF
evaluation shrinks (a step that leaves the bracket falls back to its midpoint).
``measure_all_cv`` runs a pipeline's shots in lockstep, mode by mode: each
shot keeps its own mixture, density and backaction, and one x and one p
inversion per mode serve every shot. A row of the inversion stops once it has
converged, so a shot's outcomes are those of a run by itself.
Backaction is one pivot (``torontonian._pivot``) of the threshold walk's
bordered node blocks (``sampler._node_blocks``), with the pivot block shifted
by W and the border by the outcome.

The probe set is built in NumPy, and the one scipy function this module
uses, ``scipy.special.ndtr``, is imported inside ``_invert_mixture_cdf``:
importing this module, and through it ``gbsim.cli``, loads no module of
scipy, and of scipy a ``cv`` run loads ``scipy.special`` alone.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError
from .gaussian import QuadratureState, apply_interferometer, haar_unitary, squeezed_state
from .sampler import (
    MIN_EVENT_PROB,
    GaussianMixture,
    _measurement_order,
    _mode_position,
    _node_blocks,
    _positive_definite_dets,
    _sample_records,
    _set_mixture_arrays,
    _substream_rng,
    herald,
    mixture_apply_interferometer,
)
from .torontonian import _pivot

NEGATIVITY_PROBES = 10_000
NEGATIVITY_TOL = -1e-9
DEFAULT_HOMODYNE_S = 1e3
CDF_TOL = 1e-12


@dataclass(frozen=True)
class GaussianPOVM:
    """Single-mode Gaussian measurement with 2x2 covariance W."""

    W: np.ndarray
    label: str = "custom"

    def __post_init__(self):
        W = np.array(self.W, dtype=float)
        if not np.isfinite(W).all():
            raise ValueError("W must be finite")
        if W.shape != (2, 2) or abs(W[0, 1] - W[1, 0]) > 1e-12 * max(1.0, np.abs(W).max()):
            raise ValueError("W must be a symmetric 2x2 matrix")
        if np.linalg.eigvalsh(W)[0] <= 0:
            raise ValueError("W must be positive definite")
        W.setflags(write=False)
        object.__setattr__(self, "W", W)


def heterodyne():
    """Heterodyne measurement: W = identity."""
    return GaussianPOVM(np.eye(2), "het")


def homodyne(s=DEFAULT_HOMODYNE_S):
    """x-quadrature homodyne as the s >> 1 limit: W = diag(1/s^2, s^2).

    Finite s approximates an ideal quadrature measurement with outcome
    variance error O(1/s^2).
    """
    if not (math.isfinite(s) and s > 0):
        raise ValueError(f"squeezing factor s must be finite and positive, got {s}")
    return GaussianPOVM(np.diag([1.0 / s ** 2, s ** 2]), "hom")


def marginal(mixture, mode):
    """Single-mode marginal of a mixture: 2x2 blocks, weights unchanged."""
    if isinstance(mixture, QuadratureState):
        mixture = GaussianMixture.from_state(mixture)
    pos = _mode_position(mixture.labels, mode)
    m = mixture.modes
    idx = np.array([pos, pos + m])
    return GaussianMixture(
        labels=(mode,),
        weights=mixture.weights,
        covs=mixture.covs[:, idx[:, None], idx[None, :]],
        means=mixture.means[:, idx],
        history=mixture.history,
    )


@functools.cache
def _unit_probe_points():
    """The negativity probe's scrambled Halton set on the unit square, read-only.

    Owen's randomized Halton sequence (arXiv:1706.02808) in bases 2 and 3,
    equal bit for bit to ``qmc.Halton(d=2, seed=7).random(NEGATIVITY_PROBES)``:
    one ``default_rng(7)`` shuffles a row of digit permutations per base-b
    digit a float64 can resolve, base 2's rows first, and point i adds up
    ``perm_j[digit_j(i)] * scale``, its digits least significant first, with
    ``scale`` divided by b after each digit (a product form misses by an ulp).
    Like qmc's, the (n, 2) result holds each column contiguously, so
    ``pdf`` reads x and p without a stride or a copy. Each density scales it
    to its box as ``unit * (hi - lo) + lo``, the expression ``qmc.scale``
    evaluates.
    """
    rng = np.random.default_rng(7)
    cols = []
    for base in (2, 3):
        perms = np.tile(np.arange(base), (math.ceil(54 / math.log2(base)) - 1, 1))
        for perm in perms:
            rng.shuffle(perm)
        index, col, scale = np.arange(NEGATIVITY_PROBES), np.zeros(NEGATIVITY_PROBES), 1.0 / base
        for perm in perms:
            index, digit = np.divmod(index, base)
            col += perm[digit] * scale
            scale /= base
        cols.append(col)
    unit = np.array(cols).T
    unit.setflags(write=False)
    return unit


@dataclass(frozen=True)
class OutcomeDensity:
    """Signed-Gaussian-mixture density over the outcome plane (x, p)."""

    weights: np.ndarray
    covs: np.ndarray  # (B, 2, 2): V_B + W per branch
    means: np.ndarray  # (B, 2)
    povm: GaussianPOVM

    def __post_init__(self):
        _set_mixture_arrays(self, 2)
        _positive_definite_dets(self.covs)
        self._probe_negativity()

    def _probe_negativity(self):
        sigma = np.sqrt([self.covs[:, 0, 0].max(), self.covs[:, 1, 1].max()])
        lo = self.means.min(axis=0) - 6 * sigma
        hi = self.means.max(axis=0) + 6 * sigma
        values = self.pdf(_unit_probe_points() * (hi - lo) + lo)
        low = float(values.min())
        if low < NEGATIVITY_TOL:
            raise NumericalError(f"signed mixture is not a valid density: pdf = {low:.3e} < 0")

    def pdf(self, points):
        """Density at an (n, 2) array of outcome points, or at one [x, p] point.

        Each branch takes -d/(2 det), b/det, -a/(2 det) and w/(2 pi sqrt(det))
        once and adds its term into one total with in-place ufuncs. x and p are
        read as contiguous columns: a copy for C-ordered points, none for the
        probe set's column layout."""
        x, p = map(np.ascontiguousarray, np.atleast_2d(np.asarray(points, dtype=float)).T)
        a, b, d = self.covs[:, 0, 0], self.covs[:, 0, 1], self.covs[:, 1, 1]
        det = _positive_definite_dets(self.covs)
        coeffs = zip(self.means, -0.5 * d / det, b / det, -0.5 * a / det, self.weights / (2 * math.pi * np.sqrt(det)))
        total = np.zeros(len(x))
        for (mx, mp), cxx, cxp, cpp, scale in coeffs:
            dx, dy = x - mx, p - mp
            term = dx * dy
            term *= cxp
            dx *= dx
            dx *= cxx
            term += dx
            dy *= dy
            dy *= cpp
            term += dy
            total += scale * np.exp(term, out=term)
        return total


def outcome_density(mixture, povm):
    """Outcome density of a Gaussian measurement on a single-mode mixture."""
    if isinstance(mixture, QuadratureState):
        mixture = GaussianMixture.from_state(mixture)
    if mixture.modes != 1:
        raise ValueError("outcome_density expects a single-mode mixture; take a marginal first")
    return OutcomeDensity(
        weights=mixture.weights,
        covs=mixture.covs + povm.W[None, :, :],
        means=mixture.means,
        povm=povm,
    )


def _invert_mixture_cdf(u, weights, means, sigmas, tol):
    """Vectorized safeguarded Newton solve of signed-normal-mixture CDFs.

    The CDF is monotone (the mixture is a true density); every target u is
    bracketed by mean +- 12 sigma, widened for extreme quantiles. Each
    iteration shrinks the bracket by the sign of the CDF mismatch, then takes
    a Newton step on the closed-form pdf ``sum_k w_k phi(z_k) / sigma_k``,
    falling back to the bracket midpoint where the step is not strictly inside
    (a vanishing or rounded-negative pdf gives such a step). It stops once the
    mismatch is at most ``tol`` or the bracket reaches floating point
    resolution. Each row stops on its own: once it meets either test its x,
    lo and hi stay fixed, so a row's result is bit for bit its solve alone,
    whatever else is in the batch. Branch sums are ``np.vecdot`` over the
    last axis, so ``weights``, ``means`` and ``sigmas`` may be (B,), shared
    by every row, or (n, B), one row per target.
    ``scipy.special`` is imported here, not at module load.
    """
    from scipy.special import ndtr

    u = np.asarray(u, dtype=float)
    lo = np.full(u.shape, (means - 12 * sigmas).min(axis=-1))
    hi = np.full(u.shape, (means + 12 * sigmas).max(axis=-1))

    def cdf(x):
        return np.vecdot(ndtr((x[..., None] - means) / sigmas), weights)

    # widen brackets for extreme quantiles
    for _ in range(64):
        bad = cdf(lo) > u
        if not bad.any():
            break
        lo = np.where(bad, lo - (hi - lo), lo)
    for _ in range(64):
        bad = cdf(hi) < u
        if not bad.any():
            break
        hi = np.where(bad, hi + (hi - lo), hi)
    scaled_weights = weights / (sigmas * math.sqrt(2 * math.pi))
    x = 0.5 * (lo + hi)
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(200):
            z = (x[..., None] - means) / sigmas
            err = np.vecdot(ndtr(z), weights) - u
            live = ~((np.abs(err) <= tol) | ((hi - lo) <= 1e-14 * np.maximum(1.0, np.abs(x))))
            if not live.any():
                break
            hi = np.where(live & (err > 0), x, hi)
            lo = np.where(live & ~(err > 0), x, lo)
            z *= z
            z *= -0.5
            step = x - err / np.vecdot(np.exp(z, out=z), scaled_weights)
            x = np.where(live, np.where((lo < step) & (step < hi), step, 0.5 * (lo + hi)), x)
        else:
            raise NumericalError("inverse-CDF Newton solve did not converge in its bracket; density is likely invalid")
    return x


def _conditional_components(weights, means, covs, x):
    """Weights, means and standard deviations of p given each x, one row per x.

    The parameters are a density's (B,), (B, 2) and (B, 2, 2) arrays, or one such set per x with a leading
    row axis.
    """
    var_x = covs[..., 0, 0]
    dx = x[:, None] - means[..., 0]
    w = weights * (np.exp(-0.5 * dx ** 2 / var_x) / np.sqrt(2 * math.pi * var_x))
    norm = w.sum(axis=1, keepdims=True)
    if np.any(np.abs(norm) < MIN_EVENT_PROB):
        raise NumericalError("conditional density vanished at the sampled point")
    mu = means[..., 1] + covs[..., 0, 1] / var_x * dx
    return w / norm, mu, np.sqrt(covs[..., 1, 1] - covs[..., 0, 1] ** 2 / var_x)


def _invert_outcomes(u, weights, means, covs, tol):
    """Outcomes (n, 2) of the uniforms u (n, 2): each x by inverse CDF of the x marginal, then p by inverse CDF of
    the conditional mixture given x. The parameters are as for ``_conditional_components``."""
    xs = _invert_mixture_cdf(u[:, 0], weights, means[..., 0], np.sqrt(covs[..., 0, 0]), tol)
    ps = _invert_mixture_cdf(u[:, 1], *_conditional_components(weights, means, covs, xs), tol)
    return np.column_stack([xs, ps])


def sample_outcomes(density, n, rng, tol=CDF_TOL):
    """Draw ``n`` exact outcomes from a density; returns an (n, 2) array.

    First coordinate by inverse CDF of the x marginal, second by inverse
    CDF of the conditional mixture, each to ``tol`` in CDF space.
    """
    return _invert_outcomes(rng.random((n, 2)), density.weights, density.means, density.covs, tol)


def backaction(mixture, mode, povm, outcome):
    """Propagate a Gaussian measurement outcome into the remaining modes.

    One pivot (``torontonian._pivot``) of the walk's bordered node blocks of V and r (``sampler._node_blocks``,
    the measured mode first), with the pivot block shifted to V_B + W and the mode's border to r_B - outcome. Per
    branch the Schur complement and the border are the conditioned covariance and mean, and the corner,
    -d^T (V_B + W)^-1 d with d = outcome - r_B, gives the outcome density g_B / 2 pi with
    g_B = exp(corner / 2) / sqrt(det(V_B + W)). The new weights are w_B g_B over their exact sum.
    """
    if isinstance(mixture, QuadratureState):
        mixture = GaussianMixture.from_state(mixture)
    outcome = np.asarray(outcome, dtype=float).reshape(2)
    if not np.all(np.isfinite(outcome)):
        raise ValueError("outcome must be finite")
    pos = _mode_position(mixture.labels, mode)
    M = _node_blocks(mixture.covs, mixture.means, [pos])
    M[:2, :2] += povm.W[:, :, None]
    M[:2, -1] = M[-1, :2] = M[:2, -1] - outcome[:, None]
    schur, scaled = _pivot(M, mixture.weights,
                           lambda node: NumericalError("V_B + W is not positive definite; the mixture is corrupted"))
    scaled *= np.exp(schur[-1, -1] / 2)
    total = math.fsum(scaled.tolist())
    if not total > 2 * math.pi * MIN_EVENT_PROB:
        raise NumericalError("measurement outcome has vanishing density")
    nodes = schur.transpose(2, 0, 1)
    return GaussianMixture(mixture.labels[:pos] + mixture.labels[pos + 1:], scaled / total, nodes[:, :-1, :-1],
                           nodes[:, :-1, -1], mixture.history)


def measure_all_cv(mixture, povm, rngs, tol=CDF_TOL):
    """Measure every remaining mode of a mixture with one POVM, highest label first: one record list per rng.

    The shots run in lockstep, one mode at a time. Each shot keeps its own mixture, density and backaction and
    draws its uniforms from its own rng, and one x and one p inversion per mode serve every shot: a row of the
    inversion converges on its own, so each shot's outcomes are those of a run by itself. Until the first
    backaction every shot holds the same mixture, so the first mode's density and its probe are built once.
    """
    mixtures = [mixture] * len(rngs)
    records = [[] for _ in rngs]
    for label in _measurement_order(mixture.labels, None):
        distinct = {id(m): m for m in mixtures}
        density_of = {key: outcome_density(marginal(m, label), povm) for key, m in distinct.items()}
        densities = [density_of[id(m)] for m in mixtures]
        u = np.concatenate([rng.random((1, 2)) for rng in rngs])
        outcomes = _invert_outcomes(u, np.array([d.weights for d in densities]), np.array([d.means for d in densities]),
                                    np.array([d.covs for d in densities]), tol)
        for shot, outcome in zip(records, outcomes.tolist()):
            shot.append({"mode": label, "povm": povm.label, "outcome": outcome})
        if mixtures[0].modes == 1:
            break
        mixtures = [backaction(m, label, povm, outcome) for m, outcome in zip(mixtures, outcomes)]
    return records


@dataclass(frozen=True)
class PipelineConfig:
    """Configuration of one of the four sampling pipelines.

    A: squeezed inputs, interferometer, threshold detectors.
    B: heralded single photons (click on the idler of a two-mode squeezer),
       interferometer, threshold detectors.
    C: heralded single photons, interferometer, homodyne on every mode.
    D: click-conditioned sources, interferometer, heterodyne on every mode.

    Costs per shot: A and B walk the pivot tree of their zero-mean source as
    ``sampler.sample_batch`` does, all shots of the run in lockstep, O(l^2)
    entries per live node per mode, each node pivoted once for all shots on
    it; a shot sits on 2^clicks live nodes under each of A's one root and
    B's 2^heralds branches. C and D pay the 2^heralds branch count in every
    one of the l single-mode measurements (density, probe and backaction per
    shot), with one CDF inversion per coordinate and mode for all shots.
    """

    pipeline: str
    modes: int
    shots: int
    seed: int
    squeezing: tuple = ()
    herald_count: int = 0
    herald_squeezing: float = 1.0
    unitary: np.ndarray | None = None
    homodyne_s: float = DEFAULT_HOMODYNE_S
    cdf_tolerance: float = CDF_TOL

    def __post_init__(self):
        if self.pipeline not in ("A", "B", "C", "D"):
            raise ValueError("pipeline must be one of A, B, C, D")
        if self.modes < 1 or self.shots < 1:
            raise ValueError("need at least one mode and one shot")
        if not 0 <= self.herald_count <= self.modes:
            raise ValueError(f"herald_count must lie in [0, modes = {self.modes}], got {self.herald_count}")
        if not math.isfinite(self.herald_squeezing):
            raise ValueError(f"herald_squeezing must be finite, got {self.herald_squeezing}")
        if self.pipeline == "A" and len(self.squeezing) not in (0, self.modes):
            raise ValueError(f"squeezing needs one value per mode ({self.modes}) or none, got {len(self.squeezing)}")
        for name in ("homodyne_s", "cdf_tolerance"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and positive, got {value}")


def paired_source_state(signal_modes, pairs, r):
    """Signal modes, the first ``pairs`` of which are two-mode squeezed with idlers.

    Modes 1..signal_modes are the signal; idler j sits at signal_modes + j
    and is correlated with signal mode j.
    """
    total = signal_modes + pairs
    V = np.eye(2 * total)
    c, s = math.cosh(2 * r), math.sinh(2 * r)
    for j in range(pairs):
        sig, idl = j, signal_modes + j
        V[sig, sig] = V[idl, idl] = c
        V[sig, idl] = V[idl, sig] = s
        V[total + sig, total + sig] = V[total + idl, total + idl] = c
        V[total + sig, total + idl] = V[total + idl, total + sig] = -s
    return QuadratureState(V, validate=False)


def _signal_mixture(config, U):
    """Heralded, interferometer-evolved mixture on the signal modes (B/C/D)."""
    if config.herald_count:
        source = paired_source_state(config.modes, config.herald_count, config.herald_squeezing)
        idlers = list(range(config.modes + 1, config.modes + config.herald_count + 1))
        mixture, prob = herald(source, idlers, [1] * len(idlers))
    else:
        vac = QuadratureState(np.eye(2 * config.modes), validate=False)
        mixture, prob = GaussianMixture.from_state(vac), 1.0
    return mixture_apply_interferometer(mixture, U), prob


def simulate_pipeline(config):
    """Run one of the four pipelines; returns (records, metadata)."""
    meta = {"pipeline": config.pipeline, "modes": config.modes, "shots": config.shots, "seed": config.seed}
    if config.unitary is not None:
        U = np.asarray(config.unitary, dtype=complex)
    else:
        U = haar_unitary(config.modes, _substream_rng(config.seed, 0)).matrix
    rngs = [_substream_rng(config.seed, i + 1) for i in range(config.shots)]
    if config.pipeline == "A":
        r_vec = config.squeezing if config.squeezing else (0.0,) * config.modes
        source = apply_interferometer(squeezed_state(r_vec), U)
    else:
        source, meta["herald_probability"] = _signal_mixture(config, U)
        meta["branches"] = source.branch_count
    if config.pipeline in ("A", "B"):
        samples = _sample_records(source, rngs, None)
        return [{"shot": i, "pattern": list(rec.pattern.clicked)} for i, rec in enumerate(samples)], meta
    povm = homodyne(config.homodyne_s) if config.pipeline == "C" else heterodyne()
    shots = measure_all_cv(source, povm, rngs, tol=config.cdf_tolerance)
    return [{"shot": i, "cv": shot} for i, shot in enumerate(shots)], meta
