import math
import sys

import mpmath
import numpy as np
import pytest

from gbsim import (
    PhysicalityError,
    apply_interferometer,
    distribution,
    haar_unitary,
    hafnian_from_torontonian,
    hafnian_naive,
    hafnian_powerset,
    husimi_covariance,
    kernel_matrix,
    reduce_matrix,
    squeezed_state,
    torontonian,
    torontonian_series,
    vacuum_state,
)
from gbsim.gaussian import block_swap, random_state, sqrt_det_sigma
from gbsim.torontonian import _minor_terms, _real_form


def kernel_of(state):
    return kernel_matrix(husimi_covariance(state))


def mp_series_terms(O, order):
    """Signed subset terms (-1)^(N - |Z|) [eta^order] det(1 - eta O_(Z))^(-1/2) in 40-digit arithmetic.

    The same power-set trace formula as the engine, evaluated term by term
    with mpmath matrix powers; the terms sum to [eta^order] Tor(eta O).
    """
    modes = O.shape[0] // 2
    terms = []
    with mpmath.workdps(40):
        for mask in range(1 << modes):
            kept = [i for i in range(modes) if mask >> i & 1]
            idx = kept + [i + modes for i in kept]
            traces = [mpmath.mpf(0)] * order
            if idx:
                C = mpmath.matrix([[mpmath.mpc(O[a, b]) for b in idx] for a in idx])
                power = C
                for k in range(order):
                    if k:
                        power = power * C
                    traces[k] = sum(power[i, i] for i in range(len(idx)))
            coeff = [mpmath.mpf(1)]
            for m in range(1, order + 1):
                coeff.append(sum(traces[j - 1] / 2 * coeff[m - j] for j in range(1, m + 1)) / m)
            terms.append((-1) ** (modes - len(kept)) * mpmath.re(coeff[order]))
    return terms


def mp_torontonian_terms(O):
    """Signed subset terms (-1)^(N - |Z|) det(1 - O_(Z))^(-1/2) in 40-digit arithmetic.

    Each determinant is taken by mpmath LU on the complex block 1 - O_(Z),
    independent of the engine's real form and Cholesky; the terms sum to Tor(O).
    """
    modes = O.shape[0] // 2
    terms = []
    with mpmath.workdps(40):
        for mask in range(1 << modes):
            kept = [i for i in range(modes) if mask >> i & 1]
            idx = kept + [i + modes for i in kept]
            det = mpmath.mpf(1)
            if idx:
                M = mpmath.matrix([[(a == b) - mpmath.mpc(O[a, b]) for b in idx] for a in idx])
                det = mpmath.re(mpmath.det(M))
            terms.append((-1) ** (modes - len(kept)) / mpmath.sqrt(det))
    return terms


def slogdet_terms(R):
    """Signed subset terms (-1)^(N - |Z|) det(R_(Z))^(-1/2), one LAPACK slogdet per block R_(Z)."""
    modes = R.shape[0] // 2
    terms = []
    for mask in range(1 << modes):
        idx = subset_rows(mask, modes)
        sign, logdet = np.linalg.slogdet(R[np.ix_(idx, idx)])
        assert sign == 1.0
        terms.append((-1) ** (modes - len(idx) // 2) * math.exp(-0.5 * logdet))
    return np.array(terms)


def subset_rows(mask, modes):
    kept = [i for i in range(modes) if mask >> i & 1]
    return np.array(kept + [i + modes for i in kept], dtype=int)


def tree_form(O):
    """The real xxpp form of 1 - O, the matrix the Torontonian's pivot tree reads."""
    return _real_form(np.eye(len(O)) - O)


def squeezed_kernel(r):
    t = math.tanh(r)
    return np.array([[0, t], [t, 0]], dtype=complex)


class TestTorontonianValues:
    def test_empty_matrix(self):
        result = torontonian(np.zeros((0, 0)))
        assert result.value == 1.0
        assert result.terms == 1

    def test_vacuum_kernel(self):
        result = torontonian(np.zeros((2, 2)))
        assert result.value == pytest.approx(0.0, abs=1e-15)
        assert result.terms == 2

    def test_squeezed_anchor(self):
        result = torontonian(squeezed_kernel(1.0))
        assert abs(result.value - (math.cosh(1.0) - 1.0)) < 1e-12

    def test_kernel_matrix_input(self):
        result = torontonian(kernel_of(squeezed_state([1.0])))
        assert abs(result.value - (math.cosh(1.0) - 1.0)) < 1e-12

    def test_permutation_invariance(self, rng):
        state = random_state(4, rng)
        O = kernel_of(state).matrix
        perm = rng.permutation(4)
        idx = np.concatenate([perm, perm + 4])
        assert torontonian(O[np.ix_(idx, idx)]).value == pytest.approx(
            torontonian(O).value, abs=1e-12
        )

    def test_sign_sanity_over_patterns(self, rng):
        for _ in range(5):
            state = random_state(3, rng)
            sigma = husimi_covariance(state)
            O = kernel_matrix(sigma).matrix
            bound = sqrt_det_sigma(sigma)
            for mask in range(8):
                mult = [mask >> i & 1 for i in range(3)]
                value = torontonian(reduce_matrix(O, mult)).value
                assert -1e-10 <= value <= bound + 1e-10

    def test_eta_scaling_monotone(self):
        O = squeezed_kernel(0.9)
        values = [torontonian(eta * O).value for eta in np.linspace(0, 1, 11)]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("modes", [10, 11, 12])
    def test_chunk_bits_never_move_a_result(self, monkeypatch, modes):
        # 2^3-mask chunks instead of one chunk: every result is one exact sum over all 2^N terms
        state = random_state(modes, np.random.default_rng(modes), max_squeezing=0.3)
        O = kernel_of(state)

        def results():
            tor = torontonian(O)
            return (
                (tor.value, tor.max_term_magnitude, tor.error_estimate),
                torontonian_series(O, modes).tolist(),
                hafnian_powerset(block_swap(modes) @ O.matrix),
                distribution(state).items_sorted(),
            )

        default = results()
        # the package re-exports a function named like the module
        monkeypatch.setattr(sys.modules["gbsim.torontonian"], "CHUNK_BITS", 3)
        assert results() == default

    def test_non_hermitian_rejected(self):
        bad = np.array([[0, 0.3], [0.2, 0]], dtype=complex)
        with pytest.raises(PhysicalityError):
            torontonian(bad)

    @pytest.mark.parametrize("entries", [[[0, 0], [0, 2]], [[0.1, 0.3], [0.3, 0.2]]])
    def test_hermitian_without_block_structure_rejected(self, entries):
        with pytest.raises(PhysicalityError, match="block structure"):
            torontonian(np.array(entries, dtype=complex))

    def test_unphysical_kernel_identifies_subset(self):
        bad = np.array([[0, 1.5], [1.5, 0]], dtype=complex)  # radius > 1
        with pytest.raises(PhysicalityError, match=r"Z = \[1\]"):
            torontonian(bad)

    def test_unphysical_pair_identifies_subset_below_root(self):
        # Each single-mode block is the identity, but the pair has eigenvalue 1 - 1.5 < 0.
        A = np.array([[0, 1.5], [1.5, 0]])
        bad = np.block([[A, np.zeros((2, 2))], [np.zeros((2, 2)), A]]).astype(complex)
        with pytest.raises(PhysicalityError, match=r"Z = \[1, 2\]"):
            torontonian(bad)

    def test_result_metadata(self):
        result = torontonian(squeezed_kernel(0.5))
        assert result.max_term_magnitude >= 1.0
        assert "fsum" in result.summation
        assert result.cancellation_warning is False
        # terms 1 and -1 + cosh(0.5): Tor = cosh(0.5) - 1, sum|terms| = cosh(0.5) + 1
        ratio = (math.cosh(0.5) + 1) / (math.cosh(0.5) - 1)
        assert result.error_estimate == pytest.approx(2.0 ** -53 * ratio, rel=1e-12)

    def test_cancellation_warning_follows_error_estimate(self):
        # 8 clicks of a 16-mode Haar state at squeezing 0.1: the terms cancel to
        # about 4e-3 relative error, yet no single term exceeds 1e12 |Tor|.
        rng = np.random.default_rng(1)
        state = apply_interferometer(squeezed_state([0.1] * 16), haar_unitary(16, rng))
        counts = np.zeros(16, dtype=int)
        counts[rng.choice(16, 8, replace=False)] = 1
        result = torontonian(reduce_matrix(kernel_of(state).matrix, counts))
        assert result.error_estimate > 1e-3
        assert result.max_term_magnitude < 1e12 * abs(result.value)
        assert result.cancellation_warning is True


class TestRealForm:
    def test_empty_block(self):
        assert _minor_terms(np.zeros((0, 0)), 0, 1)[-1] == 1.0

    def test_vacuum_block(self):
        assert _minor_terms(_real_form(np.eye(2)), 0, 2)[-1] == pytest.approx(1.0)

    def test_squeezed_block(self):
        value = _minor_terms(_real_form(np.eye(2) - squeezed_kernel(1.0)), 0, 2)[-1] ** -2
        assert value == pytest.approx(1 - math.tanh(1.0) ** 2, rel=1e-12)
        assert value == pytest.approx(0.419974, abs=5e-7)

    @pytest.mark.parametrize("modes", range(1, 8))
    def test_tree_terms_match_slogdet(self, rng, modes):
        states = [
            random_state(modes, rng),
            random_state(modes, rng, pure=False),
            apply_interferometer(squeezed_state([0.6] * modes), haar_unitary(modes, rng)),
        ]
        for state in states:
            R = tree_form(kernel_of(state).matrix)
            np.testing.assert_allclose(_minor_terms(R, 0, 1 << modes), slogdet_terms(R), rtol=1e-12, atol=0)

    def test_tree_spans_chunks(self):
        # 15 modes: four chunks of 8192 subsets, each entered along its own path.
        rng = np.random.default_rng(0)
        state = apply_interferometer(squeezed_state([0.4] * 15), haar_unitary(15, rng))
        R = tree_form(kernel_of(state).matrix)
        reference = slogdet_terms(R)
        chunks = [_minor_terms(R, start, start + 8192) for start in range(0, 1 << 15, 8192)]
        np.testing.assert_allclose(np.concatenate(chunks), reference, rtol=1e-12, atol=0)
        # The terms differ by about 1e-15 relative with no common sign, so the
        # sums agree well within the result's own error estimate.
        result = torontonian(kernel_of(state))
        assert abs(result.value - math.fsum(reference)) <= result.error_estimate * abs(result.value)

    def test_symmetric_with_the_subset_determinants(self, rng):
        for modes in range(1, 7):
            for pure in (True, False):  # a mixed state's A block is complex too
                O = kernel_of(random_state(modes, rng, pure=pure)).matrix
                R, S = tree_form(O), _real_form(O)
                assert R.dtype == S.dtype == np.float64
                assert np.array_equal(R, R.T) and np.array_equal(S, S.T)
                for mask in range(1, 1 << modes):
                    idx = subset_rows(mask, modes)
                    block = O[np.ix_(idx, idx)]
                    want = np.linalg.det(np.eye(len(idx)) - block).real
                    assert np.linalg.det(R[np.ix_(idx, idx)]) == pytest.approx(want, rel=1e-12)
                    # the eta series reads the power traces of the form of O_(Z) itself
                    for k in (1, 2, 3):
                        want = np.trace(np.linalg.matrix_power(block, k)).real
                        got = np.trace(np.linalg.matrix_power(S[np.ix_(idx, idx)], k))
                        assert got == pytest.approx(want, rel=1e-12, abs=1e-14)

    def test_reduction_commutes_bitwise(self, rng):
        for modes in (3, 6, 9):
            K = kernel_of(random_state(modes, rng)).matrix
            R = _real_form(K)
            for mask in range(0, 1 << modes, 5):
                mult = [mask >> i & 1 for i in range(modes)]
                idx = subset_rows(mask, modes)
                assert np.array_equal(_real_form(reduce_matrix(K, mult)), R[np.ix_(idx, idx)])

    def test_torontonian_matches_extended_precision(self):
        # Collision-free 8-click kernels of a 16-mode Haar state at squeezing 0.3.
        # The subset sum cancels, so the error is bounded by 2^-53 times the sum
        # of the absolute terms, which the result reports as its error estimate.
        rng = np.random.default_rng(1)
        state = apply_interferometer(squeezed_state([0.3] * 16), haar_unitary(16, rng))
        K = kernel_of(state).matrix
        for _ in range(3):
            counts = np.zeros(16, dtype=int)
            counts[rng.choice(16, 8, replace=False)] = 1
            O = reduce_matrix(K, counts)
            terms = mp_torontonian_terms(O)
            ref = float(mpmath.fsum(terms))
            scale = float(mpmath.fsum(abs(t) for t in terms))
            result = torontonian(O)
            assert abs(result.value - ref) <= 2.0 ** -53 * scale
            assert abs(result.value - ref) <= result.error_estimate * abs(result.value)


class TestTorontonianSeries:
    def test_zero_kernel(self):
        coeffs = torontonian_series(np.zeros((4, 4)), 4)
        assert np.abs(coeffs).max() < 1e-14

    def test_empty_kernel_order_zero(self):
        coeffs = torontonian_series(np.zeros((0, 0)), 2)
        assert coeffs[0] == 1.0 and np.all(coeffs[1:] == 0)

    def test_leading_coefficient_vanishes(self, rng):
        O = kernel_of(random_state(3, rng)).matrix
        coeffs = torontonian_series(O, 3)
        assert abs(coeffs[0]) < 1e-12

    def test_single_mode_matches_naive_hafnian(self):
        # c_1 of Tor(eta O) equals Haf(XO); for one squeezed mode both vanish
        # (only even photon numbers occur), which the matching oracle confirms.
        O = squeezed_kernel(1.0)
        coeffs = torontonian_series(O, 1)
        oracle = hafnian_naive(block_swap(1) @ O)
        assert abs(oracle) < 1e-14
        assert abs(coeffs[1] - oracle.real) < 1e-12

    def test_series_sums_to_direct_value(self, rng):
        # weak squeezing: the order-K remainder is bounded by a geometric tail
        state = random_state(2, rng, max_squeezing=0.45)
        O = kernel_of(state)
        order = 20
        coeffs = torontonian_series(O, order)
        direct = torontonian(O).value
        rho = O.spectral_radius
        tail = 4 * rho ** (order + 1) / (1 - rho) * 10
        assert abs(coeffs.sum() - direct) < max(tail, 1e-9)

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            torontonian_series(np.zeros((2, 2)), -1)

    def test_bridge_matches_extended_precision(self):
        # Collision-free 6-photon patterns of a 16-mode Haar state at squeezing 0.6.
        # The subset sum cancels, so the error is bounded by 2^-53 times the sum
        # of the absolute terms. Over seeds 1-40 of 6 patterns, the worst error
        # per seed reaches 0.92 of that bound (seed 32) with matrix-power traces
        # of the real xxpp blocks of O, 1.09 (seed 38) with those of the complex
        # blocks O_(Z); eigenvalue traces reached 1.2-5.3 per seed over seeds 1-20.
        rng = np.random.default_rng(1)
        state = apply_interferometer(squeezed_state([0.6] * 16), haar_unitary(16, rng))
        K = kernel_of(state).matrix
        for _ in range(6):
            counts = np.zeros(16, dtype=int)
            counts[rng.choice(16, 6, replace=False)] = 1
            O = reduce_matrix(K, counts)
            terms = mp_series_terms(O, 6)
            ref = float(mpmath.fsum(terms))
            scale = float(mpmath.fsum(abs(t) for t in terms))
            assert abs(hafnian_from_torontonian(O) - ref) <= 2.0 ** -53 * scale
