"""Torontonian evaluation by direct power-set summation, and the power-set engine.

The Torontonian of a 2N x 2N Hermitian kernel with the (alpha, alpha*)
block structure is

    Tor(O) = sum over subsets Z of [N] of (-1)^(N - |Z|) / sqrt(det(1 - O_(Z)))

where O_(Z) keeps rows and columns {Z, Z + N}. The sign is attached to the
kept subset so that the empty subset contributes (-1)^N; with this
convention Tor is a probability weight: Tor([[0, t], [t, 0]]) = 1/sqrt(1 - t^2) - 1.

One engine evaluates every signed sum of this shape over the masks in
bitmask order (mask 0 .. 2^N - 1, bit k = mode k+1). It fills one array with
all 2^N terms, 2^CHUNK_BITS masks at a time, and each result is one exact
(Shewchuk/fsum) sum of that array, so the chunk size bounds working memory
and never moves a result. The Torontonian's terms come from one
Schur-complement tree over the real xxpp form of 1 - O (``_real_form``), in
O(1) amortised work per subset (Griffin-Tsatsomeros, Linear Algebra Appl.
416, 2006); its eta series from batched matrix-power traces of the form of O.
That series is the one route to every kernel Hafnian: [eta^n] Tor(eta O_(S))
sums Haf(X O_(s)) / prod s! over the count vectors s of n photons with
support S (Bjorklund-Gupt-Quesada, arXiv:1805.12498).

Every reduced kernel O_(S) has its terms among those of O, so the same
2^N terms give the sums for all O_(S) at once (``_subset_sums``, the subset
transform of Bjorklund-Husfeldt-Kaski-Koivisto, arXiv:cs/0611101).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import NumericalError, PhysicalityError
from .gaussian import KernelMatrix

CHUNK_BITS = 13  # 8192 subsets per batch of terms: bounds working memory only
CANCELLATION_RATIO = 1e12

# Flipped by the validation mutation tests only; never set in production code.
_SIGN_FLIP = False


@dataclass(frozen=True)
class TorontonianResult:
    """Value of a Torontonian plus summation diagnostics."""

    value: float
    terms: int
    max_term_magnitude: float
    summation: str
    cancellation_warning: bool  # sum|terms| > CANCELLATION_RATIO |value|: error_estimate above about 1e-4
    error_estimate: float  # 2^-53 sum|terms| / |value|: relative error of one rounding per term

    def __float__(self):
        return self.value


def _as_kernel(O):
    """O as a KernelMatrix: arrays must be square with even dimension, then pass the kernel's checks."""
    if isinstance(O, KernelMatrix):
        return O
    O = np.asarray(O, dtype=complex)
    if O.ndim != 2 or O.shape[0] != O.shape[1] or O.shape[0] % 2:
        raise ValueError("kernel must be a square 2N x 2N matrix")
    return KernelMatrix(O.shape[0] // 2, O)


def _subset_indices(masks, modes):
    """Row/column index arrays (B, 2k) for equally sized subset masks."""
    bits = (masks[:, None] >> np.arange(modes)) & 1
    k = int(bits[0].sum())
    idx = np.nonzero(bits)[1].reshape(len(masks), k)
    return np.concatenate([idx, idx + modes], axis=1)


def _chunk_terms(M, evaluate, start, stop):
    """Signed terms (-1)^(N - |Z|) evaluate(M_(Z)) for masks in [start, stop), in mask order.

    ``evaluate`` maps a (B, 2k, 2k) stack of reduced blocks, all of one subset size k, to B values of any
    trailing shape; the empty subset arrives as a (B, 0, 0) stack.
    """
    modes = M.shape[0] // 2
    masks = np.arange(start, stop, dtype=np.int64)
    sizes = np.bitwise_count(masks)
    terms = None
    for k in np.unique(sizes):
        sel = sizes == k
        rows = _subset_indices(masks[sel], modes)
        values = evaluate(M[rows[:, :, None], rows[:, None, :]])
        if terms is None:
            terms = np.empty((len(masks),) + values.shape[1:], dtype=values.dtype)
        terms[sel] = -values if (modes - k) % 2 else values
    return terms


def _pivot(M, factor, error):
    """One level of the pivot tree: the "in" children (Schur complements, factor / sqrt(det P)) of M's nodes.

    The nodes lie along M's last axis, each pivoting out its leading 2x2 block P; the "out" children,
    ``M[2:, 2:]`` with ``-factor``, are the caller's slices. The update is entrywise, with no BLAS, so a node's
    children do not depend on the other nodes of the stack. A node whose P is not positive definite raises
    ``error(node)``.
    """
    (a, b), (c, d) = M[:2, :2]
    det = a * d - b * c
    bad = np.flatnonzero(~((a > 0) & (det > 0)))  # a NaN pivot fails too
    if len(bad):
        raise error(int(bad[0]))
    l0 = (M[2:, 0] * d - M[2:, 1] * c) / det  # M[2:, :2] P^-1, entry by entry
    l1 = (M[2:, 1] * a - M[2:, 0] * b) / det
    return M[2:, 2:] - l0[:, None] * M[0, 2:] - l1[:, None] * M[1, 2:], factor / np.sqrt(det)


def _minor_terms(R, start, stop):
    """Signed terms (-1)^(N - |Z|) det(R_(Z))^(-1/2) for masks in [start, stop), in mask order.

    A pivot tree (``_pivot``) over R's (x_j, p_j) pairs, highest mode first: each node's "out" child drops its
    leading 2x2 block P and flips the sign, its "in" child takes the Schur complement and divides by
    sqrt(det P). Levels above the 2^low masks keep the child picked by ``start``. The term of Z is bit for bit
    the same in the tree of every R_(S) with Z in S.
    """
    modes = R.shape[0] // 2
    low = (stop - start).bit_length() - 1
    order = (np.arange(modes)[::-1, None] + [0, modes]).ravel()
    M = R[order[:, None], order][:, :, None]  # nodes along the last axis
    factor = np.ones(1)

    def error(node):  # the failing node's subset at the level being pivoted
        mask = ((start >> (mode + 1)) + node) << (mode + 1) | 1 << mode
        subset = [i + 1 for i in range(modes) if mask >> i & 1]
        return PhysicalityError(f"1 - O_(Z) is not positive definite for subset Z = {subset}; "
                                "the kernel does not come from a physical state")

    for mode in reversed(range(modes)):
        schur, scaled = _pivot(M, factor, error)
        M = np.stack([M[2:, 2:], schur], axis=-1).reshape(schur.shape[:2] + (2 * len(factor),))
        factor = np.stack([-factor, scaled], axis=-1).ravel()
        if mode >= low:
            bit = start >> mode & 1
            M, factor = M[:, :, bit:bit + 1], factor[bit:bit + 1]
    return factor


def _fsum(terms):
    """Exact (Shewchuk) sum over the first axis, real and imaginary parts apart."""
    if np.iscomplexobj(terms):
        return _fsum(terms.real) + 1j * _fsum(terms.imag)
    if terms.ndim == 1:
        return math.fsum(terms)
    return np.array([math.fsum(column) for column in terms.T])


def _powerset_terms(terms_of, modes):
    """All 2^N signed terms ``terms_of(start, stop)`` (``_minor_terms`` or ``_chunk_terms``), in mask order.

    The array is filled 2^CHUNK_BITS masks at a time; each consumer sums it once.
    """
    total, chunk = 1 << modes, 1 << min(modes, CHUNK_BITS)
    terms = None
    for start in range(0, total, chunk):
        batch = terms_of(start, start + chunk)
        if terms is None:
            terms = np.empty((total,) + batch.shape[1:], dtype=batch.dtype)
        terms[start:start + chunk] = batch
    return terms


def _subset_sums(terms):
    """The engine's signed sum for every M_(S), one row per S in bitmask order, from the 2^N terms of M.

    ``terms`` are the ``_powerset_terms`` of M. Row S is (-1)^(N - |S|) times the exact sum of the terms of the
    submasks of S, so bit for bit the engine's sum for M_(S).
    """
    modes = len(terms).bit_length() - 1
    sets = np.arange(len(terms), dtype=np.int64)
    sizes = np.bitwise_count(sets)
    sums = np.empty_like(terms)
    for k in range(modes + 1):
        group = sets[sizes == k]
        bits = 1 << _subset_indices(group, modes)[:, :k]
        choices = (np.arange(1 << k)[:, None] >> np.arange(k)) & 1
        sign = -1.0 if (modes - k) % 2 else 1.0
        for s, submasks in zip(group, bits @ choices.T):
            sums[s] = sign * _fsum(terms[submasks])
    return -sums if _SIGN_FLIP else sums


def _real_form(K):
    """Real symmetric xxpp form R of K = [[A, B], [B*, A*]], the transform under (a_j, a_j*) -> (x_j, p_j).

    R = [[Re A + Re B, Im B - Im A], [Im A + Im B, Re A - Re B]], averaged with its transpose. It is built
    entrywise by adds, so the form of K_(Z) is R_(Z) bit for bit, and R_(Z) is similar to K_(Z): same determinant,
    same power traces. The pivot tree takes the form of 1 - O, the eta series that of O itself, which avoids
    a 1 - (1 - x) cancellation on the diagonal.
    """
    n = K.shape[0] // 2
    A, B = K[:n, :n], K[:n, n:]
    R = np.block([[A.real + B.real, B.imag - A.imag], [A.imag + B.imag, A.real - B.real]])
    return 0.5 * (R + R.T)


def _tor_terms(O):
    """All 2^N signed Torontonian terms of the kernel array O, in mask order, from the pivot tree."""
    return _powerset_terms(partial(_minor_terms, _real_form(np.eye(len(O)) - O)), len(O) // 2)


def _series_terms(O, order):
    """All 2^N signed terms of the eta series of Tor(eta O) to ``order``, (2^N, order + 1), in mask order."""
    return _powerset_terms(partial(_chunk_terms, _real_form(O), _eta_series(order)), len(O) // 2)


def _power_traces(blocks, order):
    """Tr(C^k) for k = 1..order of every block of a (B, d, d) stack, as (B, order) in its dtype, by matrix powers."""
    traces = np.empty((len(blocks), order), dtype=blocks.dtype)
    power = blocks
    for k in range(order):
        if k:
            power = power @ blocks
        traces[:, k] = np.trace(power, axis1=1, axis2=2)
    return traces


def _eta_series(order):
    """Engine evaluator: coefficients 0..order of the eta series of det(1 - eta C)^(-1/2), in C's dtype.

    The Torontonian series runs it on real symmetric xxpp blocks, the power-set Hafnian on complex ones.
    """
    return lambda blocks: _exp_series(_power_traces(blocks, order))


def _exp_series(traces):
    """Coefficients 0..K of exp(sum_k traces[:, k-1] eta^k / (2k)), one row per block.

    With traces[:, k-1] = Tr(C^k), k = 1..K, this is the eta series of
    det(1 - eta C)^(-1/2) to order K. Recurrence: m c_m = sum_{j=1..m} (Tr(C^j) / 2) c_(m-j).
    """
    half_traces = traces / 2
    coeff = np.zeros((len(traces), traces.shape[1] + 1), dtype=traces.dtype)
    coeff[:, 0] = 1.0
    for m in range(1, coeff.shape[1]):
        coeff[:, m] = (half_traces[:, :m] * coeff[:, m - 1::-1]).sum(axis=1) / m
    return coeff


def torontonian(O):
    """Evaluate the Torontonian of a kernel matrix.

    Parameters
    ----------
    O : KernelMatrix or 2N x 2N Hermitian array with the block structure.

    Returns
    -------
    TorontonianResult
    """
    O = _as_kernel(O)
    modes = O.modes
    if modes == 0:
        return TorontonianResult(1.0, 1, 1.0, "empty", False, 0.0)
    terms = _tor_terms(O.matrix)
    value = -math.fsum(terms) if _SIGN_FLIP else math.fsum(terms)
    if not math.isfinite(value):
        raise NumericalError("Torontonian summation overflowed")
    np.abs(terms, out=terms)
    magnitude = float(np.sum(terms))
    scale = max(abs(value), np.finfo(float).tiny)
    return TorontonianResult(
        value=value,
        terms=1 << modes,
        max_term_magnitude=float(terms.max()),
        summation="fsum",
        cancellation_warning=bool(magnitude > CANCELLATION_RATIO * scale),
        error_estimate=2.0 ** -53 * magnitude / scale,
    )


def torontonian_series(O, order):
    """Power-series coefficients c_0 .. c_order of Tor(eta * O) in eta.

    Each subset contributes the series of det(1 - eta O_(Z))^(-1/2),
    computed from the power traces of the real xxpp form of O_(Z); the
    signed subset sum then yields the coefficients. c_0 = 0 whenever N >= 1.
    """
    if order < 0:
        raise ValueError("order must be nonnegative")
    coeffs = _fsum(_series_terms(_as_kernel(O).matrix, order))
    return -coeffs if _SIGN_FLIP else coeffs
