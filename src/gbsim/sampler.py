"""Exact threshold-detector sampling by mode-by-mode chain-rule conditioning.

Each step's no-click probability is a ratio of two marginals of the
already-drawn outcomes. ``sample``, ``step`` and ``herald`` take one route
for every source, a state or a signed mixture, displaced or not: they walk
the Torontonian's pivot tree over ``Sigma = (V + 1) / 2`` (``_walk_tree``,
one ``torontonian._pivot`` per level), one level per measured mode. The
marginal with no-clicks S0 and clicks C is the inclusion-exclusion sum over
Z in C of the vacuum overlaps of T = S0 + Z,

    v(T) = exp(-r_T^T Sigma_(T)^-1 r_T / 4) / sqrt(det(Sigma_(T))),

the factors of the 2^|C| tree nodes the sample sits on; the mean rides in
each node's block as a border row and column. Each level pivots only the nodes some
sample of the batch is on, ``O(l^2)`` entries per node, shared by every
sample on it; no ``2^l`` table is built. A mixture, such as a heralded
source, has the marginals ``sum_b w_b P_b``: its branches are the roots of
the walk, each with its weight as its factor. ``herald`` walks one forced
path and ``step`` one level: their end nodes are the new mixture's branches
(``_walk_mixture``), whose weights sum to one but need not stay positive.
``cv.backaction`` pivots the same bordered node blocks (``_node_blocks``).

The referee is the signed-mixture loop, run only by
``chain_rule_probability``: projecting one mode onto vacuum is a
Schur-complement update of every branch (``_condition``), and a click
splits every branch into the unconditioned marginal minus the
vacuum-conditioned branch (``_advance``, chained by ``_chain``). A branch
with block ``V_B`` and mean ``r_B`` has the no-click weight ``q = 2 exp(-r_B^T (V_B + 1)^{-1} r_B / 2) / sqrt(det(V_B + 1))``.
A draw is one coin rule (``_coin``) or a forced outcome (``_Forced``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, PhysicalityError
from .gaussian import (
    ClickPattern,
    _as_click_pattern,
    _checked_symplectic,
    _clamp_probability,
    min_physicality_eigenvalue,
)
from .torontonian import _pivot

WEIGHT_TOL = 1e-9
MIXTURE_PHYSICALITY_TOL = 1e-8  # GaussianMixture.validate: min eig(V + i Omega) floor
MIN_EVENT_PROB = 1e-300

_MASK64 = (1 << 64) - 1


def substream_id(seed, index):
    """64-bit substream id for sample ``index`` of a batch.

    SplitMix64: advance the seed by (index+1) times the golden-ratio
    increment, then apply the standard finalizer. Documented so external
    tools can reproduce any single sample of a batch.
    """
    z = (int(seed) + (int(index) + 1) * 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def _substream_rng(seed, index):
    """The PCG64 generator of substream ``substream_id(seed, index)``."""
    return np.random.Generator(np.random.PCG64(substream_id(seed, index)))


def _set_mixture_arrays(obj, dim):
    """Freeze a frozen dataclass's ``weights``, ``covs``, ``means`` as checked read-only copies of B branches.

    Entries must be finite and the weights sum to one within WEIGHT_TOL
    max(1, sum |w|): roundoff scales with the cancelling signed weights.
    """
    weights = np.atleast_1d(np.array(obj.weights, dtype=float))
    covs = np.array(obj.covs, dtype=float).reshape(len(weights), dim, dim)
    means = np.array(obj.means, dtype=float).reshape(len(weights), dim)
    scale = math.fsum(np.abs(weights).tolist())  # finite exactly when every weight is
    if not (math.isfinite(scale) and np.isfinite(covs).all() and np.isfinite(means).all()):
        raise ValueError("mixture weights, covariances and means must be finite")
    total = math.fsum(weights.tolist())
    if abs(total - 1.0) > WEIGHT_TOL * max(1.0, scale):
        raise NumericalError(f"mixture weights sum to {total!r}, expected 1")
    for name, arr in (("weights", weights), ("covs", covs), ("means", means)):
        arr.setflags(write=False)
        object.__setattr__(obj, name, arr)


def _positive_definite_dets(blocks):
    """Determinants of a (B, 2, 2) stack of symmetric blocks ``V_B + W``, each checked positive definite."""
    a = blocks[:, 0, 0]
    dets = a * blocks[:, 1, 1] - blocks[:, 0, 1] * blocks[:, 0, 1]
    if not (a.min() > 0 and dets.min() > 0):  # a NaN minimum fails too
        raise NumericalError("V_B + W is not positive definite; the mixture is corrupted")
    return dets


@dataclass(frozen=True)
class GaussianMixture:
    """Signed mixture of Gaussian states on the not-yet-measured modes.

    ``labels`` keeps the original 1-based mode indices; ``history`` records
    (label, outcome) pairs in measurement order. Finite arrays, the weight
    sum and the branch-count bound are enforced on construction; the
    per-branch uncertainty-relation check is available via ``validate()``.
    """

    labels: tuple
    weights: np.ndarray
    covs: np.ndarray
    means: np.ndarray
    history: tuple = ()

    def __post_init__(self):
        _set_mixture_arrays(self, 2 * len(self.labels))
        clicks = sum(outcome for _, outcome in self.history)
        if len(self.weights) > 2 ** clicks:
            raise NumericalError(f"{len(self.weights)} branches exceed 2^{clicks} after {clicks} clicks")

    @classmethod
    def from_state(cls, state):
        return cls(
            labels=tuple(range(1, state.modes + 1)),
            weights=np.array([1.0]),
            covs=np.asarray(state.V)[None, :, :],
            means=np.asarray(state.r)[None, :],
        )

    @property
    def modes(self):
        return len(self.labels)

    @property
    def branch_count(self):
        return len(self.weights)

    @property
    def clicked_labels(self):
        return tuple(label for label, outcome in self.history if outcome)

    def validate(self):
        """Check every branch covariance against the uncertainty relation."""
        worst = min(min_physicality_eigenvalue(V) for V in self.covs)
        if worst < -MIXTURE_PHYSICALITY_TOL:
            raise NumericalError(f"mixture branch violates physicality: min eig {worst:.3e}")
        return worst


def _mode_position(labels, label):
    try:
        return labels.index(label)
    except ValueError:
        raise ValueError(f"mode {label} is not available (remaining: {tuple(labels)})") from None


def _condition(covs, means, pos):
    """Project the mode at ``pos`` of every branch onto vacuum: the referee's Schur-complement step.

    Returns ``(g, marg_cov, marg_mean, cond_cov, cond_mean)``: per branch of the stacks ``covs`` and ``means`` the
    factor ``g = exp(-r_B^T (V_B + 1)^{-1} r_B / 2) / sqrt(det(V_B + 1))``, the marginal (``V_A``, ``r_A``) and the
    conditioned covariance and mean of the other modes. Every ``V_B + 1`` is checked by ``_positive_definite_dets``
    at once; the 2x2 inverse, g and the update then run branch by branch in a plain loop, which keeps the
    per-sample cost proportional to the branch count (the 2^clicks law) and the summation order fixed.
    """
    m = covs.shape[-1] // 2
    bidx = np.array([pos, pos + m])
    aidx = np.array([i for i in range(2 * m) if i != pos and i != pos + m], dtype=int)
    VB = covs[:, bidx[:, None], bidx] + np.eye(2)
    VA = covs[:, aidx[:, None], aidx]
    VAB = covs[:, aidx[:, None], bidx]
    rA = means[:, aidx]
    diff = -means[:, bidx]
    dets = _positive_definite_dets(VB)
    g = np.empty(len(covs))
    cond_cov = np.empty_like(VA)
    cond_mean = np.empty_like(rA)
    for k in range(len(covs)):
        a, b, d = VB[k, 0, 0], VB[k, 0, 1], VB[k, 1, 1]
        inv = np.array([[d, -b], [-b, a]]) / dets[k]
        g[k] = math.exp(-0.5 * float(diff[k] @ inv @ diff[k])) / math.sqrt(dets[k])
        gain = VAB[k] @ inv
        cond_cov[k] = VA[k] - gain @ VAB[k].T
        cond_mean[k] = rA[k] + gain @ diff[k]
    return g, VA, rA, cond_cov, cond_mean


def _coin(rng):
    """The draw rule: one uniform draw u per step, a click when u >= p (the no-click probability)."""
    return lambda label, p, floor=None: 1 if rng.random() >= p else 0


class _Forced:
    """The draw rule of a forced path: ``outcomes[label]`` whatever p; ``probability`` is the path's so far.

    A step, or the path, whose probability falls below MIN_EVENT_PROB raises before any route divides by it, as
    does a step no larger than ``floor(bit)``, the roundoff of the sum its probability came from (the tree walk
    passes it; a step that small is indistinguishable from an impossible one).
    """

    def __init__(self, outcomes):
        self.outcomes, self.probability = outcomes, 1.0

    def __call__(self, label, p, floor=lambda bit: 0.0):
        bit = self.outcomes[label]
        step = (1.0 - p) if bit else p
        self.probability *= step
        if step <= floor(bit) or min(step, self.probability) < MIN_EVENT_PROB:
            raise NumericalError(f"forced {'click' if bit else 'no-click'} on mode {label} has vanishing probability")
        return bit


def _advance(mixture, label, draw):
    """Threshold-measure mode ``label``: (p, new mixture), p the mixture no-click probability.

    ``draw`` is a rule mapping (label, p) to a bit (``_coin``, ``_Forced``); the realized bit is
    ``new.history[-1][1]``.
    """
    pos = _mode_position(mixture.labels, label)
    g, marg_cov, marg_mean, cond_cov, cond_mean = _condition(mixture.covs, mixture.means, pos)
    q = 2.0 * g
    p = _clamp_probability(float(mixture.weights @ q), f"no-click on mode {label}")
    outcome = draw(label, p)
    if outcome == 0:
        weights = mixture.weights * q / p
        covs, means = cond_cov, cond_mean
    else:
        weights = np.concatenate([mixture.weights, -mixture.weights * q]) / (1.0 - p)
        covs, means = np.concatenate([marg_cov, cond_cov]), np.concatenate([marg_mean, cond_mean])
    return p, GaussianMixture(
        labels=mixture.labels[:pos] + mixture.labels[pos + 1:],
        weights=weights / weights.sum(),
        covs=covs,
        means=means,
        history=mixture.history + ((label, outcome),),
    )


def step(mixture, mode, rng):
    """Measure one mode of a mixture with a threshold detector.

    One level of the pivot tree (``_walk_tree``), its end nodes turned into
    the new mixture's branches as in ``herald``. The outcome is drawn by the
    coin rule of ``sample``: the detector clicks when one uniform draw
    u >= p, the mixture no-click probability. Returns (outcome bit, new
    mixture).
    """
    new = _walk_mixture(mixture, [mode], _coin(rng))
    return new.history[-1][1], new


@dataclass(frozen=True)
class SampleRecord:
    """One threshold sample plus its per-step diagnostics.

    ``noclick_probs`` holds each step's no-click probability in measurement
    order. ``branch_counts`` holds, after each step, 2^(clicks so far) times
    the source's branch count (1 for a state): the number of live tree nodes
    the sample sits on, equal to the branch count of the signed mixture.
    """

    pattern: ClickPattern
    noclick_probs: tuple
    branch_counts: tuple
    seed: int | None = None
    substream: int | None = None

    @property
    def clicks(self):
        return len(self.pattern.clicked)


def _measurement_order(labels, order):
    """``order`` checked to be a permutation of ``labels``; highest label first when None."""
    if order is None:
        return sorted(labels, reverse=True)
    order = [int(i) for i in order]
    if sorted(order) != sorted(labels):
        raise ValueError("measurement order must be a permutation of the measured modes")
    return order


def _chain(mixture, order, draw):
    """The signed-mixture chain rule, one ``_advance`` per mode of ``order``: (mixture, probs, branch counts)."""
    probs = []
    counts = []
    for label in order:
        p, mixture = _advance(mixture, label, draw)
        probs.append(p)
        counts.append(mixture.branch_count)
    return mixture, tuple(probs), tuple(counts)


def _node_blocks(covs, means, measured):
    """The bordered blocks of a stack of branches, one node per branch along the last axis: (2m + 1, 2m + 1, B).

    The modes at the positions ``measured`` come first, in that order, as (x, p) pairs; the other modes follow in
    xxpp order, then the border: ``means`` in the same order, with corner 0.
    """
    modes = covs.shape[-1] // 2
    rest = np.array([pos for pos in range(modes) if pos not in measured], dtype=int)
    idx = np.concatenate([(np.array(measured, dtype=int)[:, None] + [0, modes]).ravel(), rest, rest + modes])
    border = means[:, idx, None]
    return np.block([[covs[:, idx[:, None], idx], border],
                     [border.transpose(0, 2, 1), np.zeros((len(covs), 1, 1))]]).transpose(1, 2, 0)


def _walk_tree(source, order, draws):
    """Chain rule over the pivot tree of ``Sigma = (V + 1) / 2``: (one (clicked, probs, counts) per draw, M, factor).

    The tree pivots the modes in measurement order, one level per mode (``torontonian._pivot``). A node at depth d
    stands for the set T of measured modes kept "in"; its factor is (-1)^(d - |T|) v(T), with
    v(T) = exp(-r_T^T Sigma_(T)^-1 r_T / 4) / sqrt(det(Sigma_(T))) the probability that every mode of T reads vacuum.
    A sample with no-clicks S0 and clicks C sits on the 2^|C| nodes T = S0 + Z, Z in C, whose factors sum to
    (-1)^|C| P(S0, C). Their in-children sum to (-1)^|C| P(S0 + j, C), so the no-click probability of mode j is the
    exact sum of the in-children over the sample's total. A no-click keeps the in-children; a click keeps the
    out-children (T, sign flipped) too. Each level pivots only the nodes some sample is on, once for all of them: a
    node's in-set fixes its path, so distinct nodes have distinct children. Samples with the same outcomes so far
    share nodes, total and p, and walk as one group.

    The blocks are ``_node_blocks`` of ``Sigma`` and ``r / 2``: the mean is a border row and column with corner 0,
    which the pivot turns into ``(r_A - L r_P) / 2`` and ``-r_T^T Sigma_(T)^-1 r_T / 4``; an in-child's factor
    takes the exponential of its corner's change, exactly 1 at zero mean.

    ``source`` is a state or a mixture. A mixture's marginals are ``sum_b w_b P_b``, so its branches are the roots,
    each with its weight as its factor, and every sample starts on all of them with the total ``fsum(w)``; a state
    is the one root of factor 1. Modes outside ``order`` stay in the node blocks, after the measured ones and
    before the border, in xxpp order, in ``M``, the last level's blocks; ``factor`` holds their factors. Each of
    ``draws`` is one sample's rule mapping (label, p, floor) to its bit (``_coin``, or ``_Forced`` for a herald).
    """
    mixture = source if isinstance(source, GaussianMixture) else GaussianMixture.from_state(source)
    M = _node_blocks((mixture.covs + np.eye(2 * mixture.modes)) / 2, mixture.means / 2,
                     [_mode_position(mixture.labels, label) for label in order])
    factor = mixture.weights
    levels = []  # (number of in-children, parents of the out-children) of each level pivoted so far
    # one group per outcome prefix: (nodes, exact sum of their factors, samples, (clicked, probs, counts) so far)
    groups = [(np.arange(len(factor)), math.fsum(factor.tolist()), range(len(draws)), ((), (), ()))]

    def error(node):  # the failing node's in-set, traced back through the levels, plus the mode being pivoted
        kept = [label]
        for (width, outs), done in zip(reversed(levels), reversed(order[:len(levels)])):
            if node < width:
                kept.append(done)
            else:
                node = outs[node - width]
        branch = f" of branch {node}" if mixture.branch_count > 1 else ""
        fault, what = ((NumericalError, "mixture is corrupted") if isinstance(source, GaussianMixture)
                       else (PhysicalityError, "state is not physical"))
        return fault(f"Sigma_(T) = (V_(T) + 1) / 2{branch} is not positive definite for modes "
                     f"T = {sorted(kept)}; the {what}")

    for label in order:
        schur, scaled = _pivot(M, factor, error)
        scaled *= np.exp(schur[-1, -1] - M[-1, -1])
        silent, clicked = [], []
        for nodes, total, members, (labels, probs, counts) in groups:
            inner = scaled[nodes]
            num = math.fsum(inner.tolist())
            p = num / total
            if not 0.0 <= p <= 1.0:  # NaN too: the clamp logs a clip and raises beyond its tolerance
                p = _clamp_probability(p, f"no-click on mode {label}")

            def floor(bit):  # 2^-53 sum|terms| / |total|, the terms the in-children and, for a click, the out-children
                return 2.0 ** -53 * float(np.abs(inner).sum() + bit * np.abs(factor[nodes]).sum()) / abs(total)

            split = ([], [])
            for s in members:
                split[draws[s](label, p, floor)].append(s)
            if split[0]:
                silent.append((nodes, num, split[0], (labels, probs + (p,), counts + (len(nodes),))))
            if split[1]:
                grown = math.fsum(np.concatenate([inner, -factor[nodes]]).tolist())
                clicked.append((nodes, grown, split[1], (labels + (label,), probs + (p,), counts + (2 * len(nodes),))))
        needed = np.zeros(len(factor), dtype=bool)  # the nodes some clicking sample is on
        for nodes, _, _, _ in clicked:
            needed[nodes] = True
        outs = np.flatnonzero(needed)
        where = len(factor) - 1 + np.cumsum(needed)  # the out-children follow the in-children
        levels.append((len(factor), outs))
        groups = silent + [(np.concatenate([nodes, where[nodes]]), total, members, walk)
                           for nodes, total, members, walk in clicked]
        M = np.concatenate([schur, M[2:, 2:] if len(outs) == len(factor) else M[2:, 2:, outs]], axis=-1)
        factor = np.concatenate([scaled, -factor[outs]])
    walks = [None] * len(draws)
    for _, _, members, walk in groups:
        for s in members:
            walks[s] = walk
    return walks, M, factor


def _walk_mixture(source, order, draw):
    """One draw down the pivot tree of a state or mixture over ``order``: the mixture on the other modes.

    Every end node is a branch: covariance ``2 M - 1`` and mean twice its border, weight its factor over the total,
    in ``_advance``'s order (the out-child before the in-child at each click, one reversal of the walk's node index).
    """
    [(clicked, _, _)], M, factor = _walk_tree(source, order, [draw])
    mixture = source if isinstance(source, GaussianMixture) else GaussianMixture.from_state(source)
    rest = tuple(label for label in mixture.labels if label not in order)
    loop = np.arange(len(factor)).reshape(-1, mixture.branch_count)[::-1].ravel()
    nodes = M[:, :, loop].transpose(2, 0, 1)  # the gather puts the branch axis first: contiguous
    history = mixture.history + tuple((label, int(label in clicked)) for label in order)
    return GaussianMixture(rest, factor[loop] / math.fsum(factor.tolist()),
                           2 * nodes[:, :-1, :-1] - np.eye(2 * len(rest)), 2 * nodes[:, :-1, -1], history)


def _sample_records(source, rngs, order, seed=None, substreams=None):
    """One SampleRecord per rng, carrying ``seed`` and its substream, from one walk of the pivot tree.

    ``source`` is a state or a mixture whose labels are 1..modes; all rngs walk ``_walk_tree`` together.
    """
    labels = source.labels if isinstance(source, GaussianMixture) else range(1, source.modes + 1)
    walks = _walk_tree(source, _measurement_order(labels, order), [_coin(rng) for rng in rngs])[0]
    substreams = substreams or [None] * len(rngs)
    return [SampleRecord(ClickPattern(len(labels), tuple(sorted(clicked))), probs, counts, seed, substream)
            for (clicked, probs, counts), substream in zip(walks, substreams)]


def sample(state, rng, order=None):
    """Draw one exact threshold sample from a Gaussian state.

    Modes are measured from the highest index down by default. The sample
    walks the pivot tree of the state's vacuum overlaps, displaced or not,
    O(l^2) entries per live node per mode with 2^clicks live nodes.
    """
    return _sample_records(state, [rng], order)[0]


def sample_batch(state, n, seed, order=None):
    """Draw ``n`` independent samples reproducibly.

    Sample ``i`` uses the RNG substream ``substream_id(seed, i)``, so the
    batch content does not depend on execution order and any sub-range can
    be regenerated in isolation: record ``i`` equals ``sample(state,
    _substream_rng(seed, i), order)``. The batch walks the pivot tree in
    lockstep: each node is pivoted once for every sample on it, and no 2^l
    table is built.
    """
    if n < 1:
        raise ValueError("need n >= 1 samples")
    substreams = [substream_id(seed, i) for i in range(n)]
    rngs = [np.random.Generator(np.random.PCG64(substream)) for substream in substreams]
    return _sample_records(state, rngs, order, int(seed), substreams)


def herald(state, measured, outcomes, order=None):
    """Condition on fixed threshold outcomes for a subset of modes.

    ``measured`` lists 1-based mode labels, ``outcomes`` the forced bits
    (1 = click). Measurement runs from the highest label down unless
    ``order``, a permutation of ``measured``, overrides it. Returns
    (mixture on the unmeasured modes, heralding probability); the
    probability equals the threshold probability of the corresponding
    pattern of the marginal state on the measured modes.

    The source, displaced or not, walks the forced path of the pivot tree
    (``_walk_mixture``): each end node, block ``M`` of the unmeasured modes
    plus its mean border, is a branch of covariance ``2 M - 1``, mean twice
    the border and weight its factor over the total, in ``_advance``'s order.
    A forced step whose probability is lost in the roundoff of its sum raises
    ``NumericalError``.
    """
    measured = [int(m) for m in measured]
    if len(set(measured)) != len(measured):
        raise ValueError("measured modes must be distinct")
    outcomes = [int(b) for b in outcomes]
    if len(outcomes) != len(measured) or any(b not in (0, 1) for b in outcomes):
        raise ValueError("need one outcome, 0 or 1, per measured mode")
    draw = _Forced(dict(zip(measured, outcomes)))
    return _walk_mixture(state, _measurement_order(measured, order), draw), draw.probability


def mixture_apply_interferometer(mixture, unitary):
    """Apply a linear interferometer to every branch of a mixture."""
    S = _checked_symplectic(unitary, mixture.modes)
    return GaussianMixture(
        labels=mixture.labels,
        weights=mixture.weights,
        covs=S @ mixture.covs @ S.T,
        means=mixture.means @ S.T,
        history=mixture.history,
    )


def chain_rule_probability(state, pattern, order=None):
    """Probability of a full pattern by the signed-mixture chain rule (``_chain``), a product of forced-step factors.

    Each step conditions every Gaussian branch on its outcome, one Schur complement per branch, so this route
    shares no arithmetic with the pivot trees of ``threshold_prob``, ``sample``, ``step`` and ``herald``;
    it is their independent referee, and the only caller of ``_chain`` and ``_advance``.
    """
    draw = _Forced(dict(enumerate(_as_click_pattern(state, pattern).multiplicities, start=1)))
    _chain(GaussianMixture.from_state(state), _measurement_order(range(1, state.modes + 1), order), draw)
    return draw.probability
