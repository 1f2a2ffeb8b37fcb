"""Hafnians: the perfect-matching oracle, the power-set trace formula, and Haf(X O) from the Torontonian series.

``hafnian_naive`` enumerates perfect matchings straight from the definition
and serves as the oracle. ``hafnian_powerset`` evaluates the power-set
trace formula (Bjorklund-Gupt-Quesada, arXiv:1805.12498)

    Haf(A) = sum over subsets Z of [l] of (-1)^(l - |Z|) f((A X)_(Z))

for a symmetric 2l x 2l matrix, where f(C) is the coefficient of eta^l in
det(1 - eta C)^(-1/2) and the reduction keeps rows/columns {Z, Z + l}. The
complement sign and the post-multiplication by X are fixed by agreement
with the naive evaluator (exercised in the test suite and by the
``validate`` command); flipping either breaks 4x4 random inputs.

The subset sum runs on the power-set engine of ``torontonian``: masks in
chunks, each chunk grouped by popcount, the eta series of every group taken
from batched matrix powers, then one exact fsum over all 2^l signed terms.

For a kernel O, (X O X)_(Z) has the power traces of O_(Z), so the same
signed subset sum is the eta^l coefficient of Tor(eta O):
``hafnian_from_torontonian`` takes Haf(X O) from ``torontonian_series``,
the one route every probability uses.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from .torontonian import _as_kernel, _chunk_terms, _eta_series, _fsum, _powerset_terms, torontonian_series

NAIVE_MAX_DIM = 16  # (2m-1)!! growth; oracle scale
POWERSET_MAX_DIM = 30

# Mutation hooks for the validation driver; never set in production code.
_WRONG_REDUCTION = False
_SIGN_FLIP = False


def _check_symmetric(A):
    A = np.asarray(A, dtype=complex)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("matrix must be square")
    if A.shape[0] % 2:
        raise ValueError("Hafnian requires an even-dimensional matrix")
    scale = max(1.0, np.abs(A).max(initial=0.0))
    if A.size and np.abs(A - A.T).max() > 1e-12 * scale:
        raise ValueError("matrix must be symmetric (A = A^T)")
    return A


def hafnian_naive(A):
    """Hafnian by explicit perfect-matching enumeration ((2m-1)!! terms)."""
    A = _check_symmetric(A)
    n = A.shape[0]
    if n == 0:
        return complex(1.0)
    if n > NAIVE_MAX_DIM:
        raise ValueError(f"naive Hafnian limited to dimension {NAIVE_MAX_DIM}")

    def rec(rem):
        if not rem:
            return 1.0 + 0j
        first = rem[0]
        total = 0j
        for pos in range(1, len(rem)):
            partner = rem[pos]
            total += A[first, partner] * rec(rem[1:pos] + rem[pos + 1:])
        return total

    return complex(rec(tuple(range(n))))


def hafnian_powerset(A):
    """Hafnian via the power-set trace formula (2^l terms)."""
    A = _check_symmetric(A)
    n = A.shape[0]
    if n > POWERSET_MAX_DIM:
        raise ValueError(f"power-set Hafnian limited to dimension {POWERSET_MAX_DIM}")
    half = n // 2
    AX = A if _WRONG_REDUCTION else A[:, np.r_[half:n, 0:half]]  # unswapped A: the mutation test's bug
    terms_of = partial(_chunk_terms, AX, lambda blocks: _eta_series(half)(blocks)[:, half])
    total = _fsum(_powerset_terms(terms_of, half))
    return complex(-total if _SIGN_FLIP else total)


def hafnian_from_torontonian(O):
    """Haf(X O) extracted as the eta^l coefficient of Tor(eta O).

    The kernel is 2l x 2l; the l-th Taylor coefficient of the eta-scaled
    Torontonian equals the Hafnian of X O, which must be real for kernels
    of physical states.
    """
    O = _as_kernel(O)
    return float(torontonian_series(O, O.modes)[O.modes])

