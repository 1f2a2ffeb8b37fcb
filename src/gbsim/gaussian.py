"""Gaussian states in quadrature form and their Husimi/kernel representations.

Conventions used everywhere in this package:

* hbar = 2, so the vacuum covariance matrix is the identity.
* Quadrature ordering is xxpp: a state on ``l`` modes stores a real
  symmetric ``2l x 2l`` covariance ``V`` over ``(x_1..x_l, p_1..p_l)`` and a
  mean vector ``r`` of the same length.
* Complex-amplitude quantities (Husimi covariance, kernel matrices) live in
  the ``(alpha, alpha*)`` layout, i.e. index ``k`` pairs with ``k + l``.
* Mode indices in patterns are 1-based, matching the file formats.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, PhysicalityError

log = logging.getLogger(__name__)

HBAR = 2.0

SYMMETRY_RTOL = 1e-12
PHYSICALITY_TOL = 1e-10
CONDITION_WARN = 1e8
CONDITION_LIMIT = 1e14
CLAMP_TOL = 1e-10
UNITARY_TOL = 1e-10


def symplectic_form(modes):
    """xxpp symplectic form Omega = [[0, I], [-I, 0]]."""
    eye = np.eye(modes)
    zero = np.zeros((modes, modes))
    return np.block([[zero, eye], [-eye, zero]])


def _conversion_matrix(modes):
    """C = [[I, iI], [I, -iI]] mapping xxpp quadratures to (alpha, alpha*)."""
    eye = np.eye(modes)
    return np.block([[eye, 1j * eye], [eye, -1j * eye]])


def block_swap(modes):
    """X = [[0, I], [I, 0]] exchanging the alpha and alpha* halves."""
    eye = np.eye(modes)
    zero = np.zeros((modes, modes))
    return np.block([[zero, eye], [eye, zero]])


class QuadratureState:
    """A Gaussian state: covariance ``V`` and mean ``r`` in xxpp ordering.

    Instances are value objects; the stored arrays are frozen copies.
    ``validate=False`` skips the physicality eigenvalue check (used on hot
    paths whose updates preserve physicality by construction).
    """

    __slots__ = ("modes", "V", "r")

    def __init__(self, V, r=None, *, validate=True):
        V = np.array(V, dtype=float)
        if V.ndim != 2 or V.shape[0] != V.shape[1] or V.shape[0] % 2 or V.shape[0] == 0:
            raise ValueError(f"covariance must be 2l x 2l with l >= 1, got {V.shape}")
        modes = V.shape[0] // 2
        if r is None:
            r = np.zeros(2 * modes)
        r = np.array(r, dtype=float)
        if r.shape != (2 * modes,):
            raise ValueError(f"mean vector must have length {2 * modes}, got {r.shape}")
        if not (np.all(np.isfinite(V)) and np.all(np.isfinite(r))):
            raise ValueError("covariance and mean must be finite")
        scale = max(1.0, np.abs(V).max())
        if np.abs(V - V.T).max() > SYMMETRY_RTOL * scale:
            raise PhysicalityError("covariance is not symmetric within 1e-12 relative tolerance")
        V = 0.5 * (V + V.T)
        if validate:
            defect = min_physicality_eigenvalue(V)
            if defect < -PHYSICALITY_TOL:
                raise PhysicalityError(
                    f"covariance violates the uncertainty relation: min eig(V + i Omega) = {defect:.3e}"
                )
        V.setflags(write=False)
        r.setflags(write=False)
        object.__setattr__(self, "modes", modes)
        object.__setattr__(self, "V", V)
        object.__setattr__(self, "r", r)

    def __setattr__(self, name, value):
        raise AttributeError("QuadratureState is immutable")

    def __repr__(self):
        return f"QuadratureState(modes={self.modes})"


def min_physicality_eigenvalue(V):
    """Smallest eigenvalue of the Hermitian matrix V + i Omega."""
    modes = V.shape[0] // 2
    H = V + 1j * symplectic_form(modes)
    return float(np.linalg.eigvalsh(H)[0].real)


def _block_hermitian(M, modes, name):
    """M checked to be a 2N x 2N Hermitian matrix with X M* X = M, symmetrised and read-only."""
    M = np.asarray(M, dtype=complex)
    n = 2 * modes
    if M.shape != (n, n):
        raise ValueError(f"expected {n} x {n} matrix")
    scale = max(1.0, np.abs(M).max(initial=0.0))
    if np.abs(M - M.conj().T).max(initial=0.0) > 1e-10 * scale:
        raise PhysicalityError(f"{name} must be Hermitian")
    X = block_swap(modes)
    if np.abs(M - X @ M.conj() @ X).max(initial=0.0) > 1e-10 * scale:
        raise PhysicalityError(f"{name} lacks the (alpha, alpha*) block structure [[A, B], [B*, A*]]")
    M = 0.5 * (M + M.conj().T)
    M.setflags(write=False)
    return M


@dataclass(frozen=True)
class HusimiCovariance:
    """Covariance of the Gaussian Q function in the (alpha, alpha*) layout."""

    modes: int
    sigma: np.ndarray

    def __post_init__(self):
        sigma = _block_hermitian(self.sigma, self.modes, "Husimi covariance")
        low = float(np.linalg.eigvalsh(sigma)[0].real)
        if low < 0.5 - PHYSICALITY_TOL:
            raise PhysicalityError(f"Husimi covariance eigenvalue {low:.6g} below the vacuum floor 1/2")
        object.__setattr__(self, "sigma", sigma)


@dataclass(frozen=True)
class KernelMatrix:
    """Kernel O = 1 - Sigma^{-1} whose reductions feed Torontonian and Hafnian."""

    modes: int
    matrix: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "matrix", _block_hermitian(self.matrix, self.modes, "kernel matrix"))

    @property
    def spectral_radius(self):
        return float(np.abs(np.linalg.eigvalsh(self.matrix)).max()) if self.modes else 0.0


@dataclass(frozen=True)
class ClickPattern:
    """Subset of modes (1-based, strictly increasing) where a click occurred."""

    modes: int
    clicked: tuple

    def __post_init__(self):
        clicked = tuple(int(i) for i in self.clicked)
        if any(i < 1 or i > self.modes for i in clicked):
            raise ValueError(f"clicked indices must lie in [1, {self.modes}]")
        if any(b <= a for a, b in zip(clicked, clicked[1:])):
            raise ValueError("clicked indices must be strictly increasing")
        object.__setattr__(self, "clicked", clicked)

    @property
    def multiplicities(self):
        out = [0] * self.modes
        for i in self.clicked:
            out[i - 1] = 1
        return tuple(out)

    @property
    def size(self):
        return len(self.clicked)


def _as_click_pattern(state, pattern):
    """``pattern`` (a ClickPattern or clicked 1-based modes) as a ClickPattern over the state's modes."""
    if isinstance(pattern, ClickPattern):
        if pattern.modes != state.modes:
            raise ValueError("pattern mode count does not match the state")
        return pattern
    return ClickPattern(state.modes, tuple(pattern))


def _clamp_probability(p, where):
    """``p`` clipped to [0, 1]; raises beyond CLAMP_TOL. A clip inside it is roundoff, logged at DEBUG."""
    if not -CLAMP_TOL <= p <= 1 + CLAMP_TOL:
        raise NumericalError(f"{where}: probability {p!r} outside [0, 1] beyond tolerance")
    if p < 0 or p > 1:
        log.debug("%s: clamped probability %.3e to [0, 1]", where, p)
    return min(max(p, 0.0), 1.0)


@dataclass(frozen=True)
class PNRPattern:
    """Photon-number outcome: count per mode (index k appears counts[k-1] times)."""

    modes: int
    counts: tuple

    def __post_init__(self):
        counts = tuple(int(c) for c in self.counts)
        if len(counts) != self.modes:
            raise ValueError(f"need one count per mode ({self.modes})")
        if any(c < 0 for c in counts):
            raise ValueError("photon counts must be nonnegative")
        object.__setattr__(self, "counts", counts)

    @property
    def multiplicities(self):
        return self.counts

    @property
    def total(self):
        return sum(self.counts)


@dataclass(frozen=True)
class ComplexUnitary:
    """An l x l unitary describing a linear interferometer."""

    matrix: np.ndarray

    def __post_init__(self):
        U = np.asarray(self.matrix, dtype=complex)
        if U.ndim != 2 or U.shape[0] != U.shape[1]:
            raise ValueError("unitary must be square")
        defect = np.abs(U.conj().T @ U - np.eye(U.shape[0])).max()
        if defect > UNITARY_TOL:
            raise ValueError(f"matrix is not unitary: defect {defect:.3e} > {UNITARY_TOL:.1e}")
        U = U.copy()
        U.setflags(write=False)
        object.__setattr__(self, "matrix", U)

    @property
    def dimension(self):
        return self.matrix.shape[0]


def vacuum_state(modes):
    """Multimode vacuum: V = identity, r = 0."""
    if modes < 1:
        raise ValueError("need at least one mode")
    return QuadratureState(np.eye(2 * modes), validate=False)


def squeezed_state(r_vec):
    """Product of single-mode squeezed vacua.

    Mode k gets x-variance exp(2 r_k) and p-variance exp(-2 r_k); r_k = 0
    leaves that mode in vacuum.
    """
    r_vec = np.atleast_1d(np.asarray(r_vec, dtype=float))
    if r_vec.ndim != 1 or r_vec.size == 0:
        raise ValueError("squeezing parameters must form a nonempty vector")
    if not np.all(np.isfinite(r_vec)):
        raise ValueError("squeezing parameters must be finite")
    diag = np.concatenate([np.exp(2 * r_vec), np.exp(-2 * r_vec)])
    return QuadratureState(np.diag(diag), validate=False)


def interferometer_symplectic(U):
    """Orthogonal symplectic S = [[Re U, -Im U], [Im U, Re U]] in xxpp ordering."""
    U = np.asarray(U, dtype=complex)
    return np.block([[U.real, -U.imag], [U.imag, U.real]])


def _checked_symplectic(unitary, modes):
    """``interferometer_symplectic`` of ``unitary``, checked to be an l x l unitary with l = ``modes``."""
    if not isinstance(unitary, ComplexUnitary):
        unitary = ComplexUnitary(unitary)
    if unitary.dimension != modes:
        raise ValueError(f"unitary acts on {unitary.dimension} modes, state has {modes}")
    return interferometer_symplectic(unitary.matrix)


def apply_interferometer(state, unitary):
    """Evolve a state through a linear interferometer: V -> S V S^T, r -> S r."""
    S = _checked_symplectic(unitary, state.modes)
    return QuadratureState(S @ state.V @ S.T, S @ state.r, validate=False)


def haar_unitary(modes, rng):
    """Haar-random unitary via complex Ginibre + QR with the R-diagonal phase fix."""
    if modes < 1:
        raise ValueError("need at least one mode")
    z = (rng.standard_normal((modes, modes)) + 1j * rng.standard_normal((modes, modes))) / math.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return ComplexUnitary(q * (d / np.abs(d)))


def _husimi_matrix(V):
    """Sigma = (1/4) C V C^dag + 1/2 in the (alpha, alpha*) layout, for a 2l x 2l xxpp covariance V."""
    C = _conversion_matrix(len(V) // 2)
    return 0.25 * C @ V @ C.conj().T + 0.5 * np.eye(len(V))


def husimi_covariance(state):
    """Husimi covariance Sigma = (1/4) C V C^dag + 1/2 in the (alpha, alpha*) layout."""
    return HusimiCovariance(state.modes, _husimi_matrix(state.V))


def quadrature_covariance(sigma):
    """Invert the Husimi map: V = C^dag (Sigma - 1/2) C."""
    C = _conversion_matrix(sigma.modes)
    V = C.conj().T @ (sigma.sigma - 0.5 * np.eye(2 * sigma.modes)) @ C
    return QuadratureState(V.real, validate=False)


def kernel_matrix(sigma):
    """Kernel O = 1 - Sigma^{-1}; rejects Sigma with condition number above 1e14."""
    eigs = np.linalg.eigvalsh(sigma.sigma)
    cond = eigs[-1] / max(eigs[0], np.finfo(float).tiny)
    if eigs[0] <= 0 or cond > CONDITION_LIMIT:
        raise PhysicalityError(
            f"Husimi covariance condition number {cond:.3e} exceeds {CONDITION_LIMIT:.0e}"
        )
    inv = np.linalg.inv(sigma.sigma)
    inv = 0.5 * (inv + inv.conj().T)
    return KernelMatrix(sigma.modes, np.eye(2 * sigma.modes) - inv)


def reduce_matrix(A, pattern):
    """Reduce a 2l x 2l block matrix by a click/PNR pattern.

    Within each l x l block, row/column k is repeated ``s_k`` times and
    dropped when ``s_k = 0``; the two halves stay paired, so the result is
    2N x 2N with N the total multiplicity.
    """
    A = np.asarray(A)
    modes = A.shape[0] // 2
    if A.shape != (2 * modes, 2 * modes):
        raise ValueError("matrix must be 2l x 2l")
    mult = pattern.multiplicities if hasattr(pattern, "multiplicities") else tuple(pattern)
    if len(mult) != modes:
        raise ValueError(f"pattern covers {len(mult)} modes, matrix has {modes}")
    idx = np.repeat(np.arange(modes), mult)
    rows = np.concatenate([idx, idx + modes]).astype(int)
    return A[np.ix_(rows, rows)]


def q_function(sigma, alpha):
    """Husimi Q function at a phase-space point.

    ``alpha`` is a length-2l complex vector in the (alpha, alpha*) layout;
    the second half must be the conjugate of the first.
    """
    alpha = np.asarray(alpha, dtype=complex)
    n = 2 * sigma.modes
    if alpha.shape != (n,):
        raise ValueError(f"alpha must have length {n}")
    if np.abs(alpha[sigma.modes:] - alpha[: sigma.modes].conj()).max(initial=0.0) > 1e-12 * max(
        1.0, np.abs(alpha).max()
    ):
        raise ValueError("second half of alpha must be the conjugate of the first half")
    sign, logdet = np.linalg.slogdet(sigma.sigma)
    quad = alpha @ np.linalg.solve(sigma.sigma, alpha.conj())
    return float(np.exp(-0.5 * quad.real - 0.5 * logdet) / math.pi ** sigma.modes)


@dataclass(frozen=True)
class StateDiagnostics:
    """Validation report for a quadrature covariance matrix."""

    modes: int
    symmetry_defect: float
    min_physicality_eig: float
    condition_v: float
    condition_sigma: float
    physical: bool
    warnings: tuple


def validate_state(state_or_v):
    """Diagnostic report: symmetry defect, uncertainty eigenvalue, conditioning.

    Accepts a QuadratureState or a raw covariance matrix; never raises for
    unphysical input, it reports instead.
    """
    if isinstance(state_or_v, QuadratureState):
        V = np.asarray(state_or_v.V)
    else:
        V = np.array(state_or_v, dtype=float)
    modes = V.shape[0] // 2
    sym = float(np.abs(V - V.T).max() / max(1.0, np.abs(V).max()))
    Vs = 0.5 * (V + V.T)
    low = min_physicality_eigenvalue(Vs)
    sig_eigs = np.linalg.eigvalsh(_husimi_matrix(Vs))
    cond_sigma = float(sig_eigs[-1] / max(sig_eigs[0], np.finfo(float).tiny))
    v_eigs = np.abs(np.linalg.eigvalsh(Vs))
    cond_v = float(v_eigs.max() / max(v_eigs.min(), np.finfo(float).tiny))
    warnings = []
    physical = True
    if sym > SYMMETRY_RTOL:
        physical = False
        warnings.append(f"symmetry defect {sym:.3e} exceeds {SYMMETRY_RTOL:.0e}")
    if low < -PHYSICALITY_TOL:
        physical = False
        warnings.append(f"min eig(V + i Omega) = {low:.3e} violates the uncertainty relation")
    elif low < 0:
        warnings.append(f"min eig(V + i Omega) = {low:.3e} is negative within tolerance")
    if max(cond_v, cond_sigma) > CONDITION_WARN:
        warnings.append(f"ill conditioned: cond(V) = {cond_v:.3e}, cond(Sigma) = {cond_sigma:.3e}")
    return StateDiagnostics(modes, sym, low, cond_v, cond_sigma, physical, tuple(warnings))


def reduce_state(state, modes_kept):
    """Marginal state on a subset of modes (1-based indices)."""
    kept = [int(m) for m in modes_kept]
    if any(m < 1 or m > state.modes for m in kept):
        raise ValueError("mode index out of range")
    if len(set(kept)) != len(kept) or not kept:
        raise ValueError("kept modes must be a nonempty set")
    idx = np.array([m - 1 for m in kept] + [m - 1 + state.modes for m in kept])
    return QuadratureState(state.V[np.ix_(idx, idx)], state.r[idx], validate=False)


def random_state(modes, rng, *, pure=True, max_squeezing=0.8, max_thermal=0.3):
    """Random physical zero-mean state: squeezers (plus optional thermal noise)
    followed by a Haar interferometer. Test and validation plumbing."""
    r_vec = rng.uniform(-max_squeezing, max_squeezing, modes)
    diag = np.concatenate([np.exp(2 * r_vec), np.exp(-2 * r_vec)])
    if not pure:
        nbar = rng.uniform(0.0, max_thermal, modes)
        therm = np.concatenate([1 + 2 * nbar, 1 + 2 * nbar])
        diag = diag * therm
    S = interferometer_symplectic(haar_unitary(modes, rng).matrix)
    return QuadratureState(S @ np.diag(diag) @ S.T, validate=False)


def sqrt_det_sigma(sigma):
    """sqrt(det Sigma), computed stably in log space."""
    sign, logdet = np.linalg.slogdet(sigma.sigma)
    return float(np.exp(0.5 * logdet))
