import math

import mpmath
import numpy as np
import pytest

from gbsim import (
    PhysicalityError,
    apply_interferometer,
    haar_unitary,
    hafnian_from_torontonian,
    hafnian_naive,
    husimi_covariance,
    kernel_matrix,
    reduce_matrix,
    squeezed_state,
    subset_determinant,
    torontonian,
    torontonian_series,
    vacuum_state,
)
from gbsim.gaussian import block_swap, random_state, sqrt_det_sigma


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

    def test_thread_determinism_bitwise(self, rng):
        state = random_state(14, rng, max_squeezing=0.4)
        O = kernel_of(state)
        values = {torontonian(O, threads=t).value for t in (1, 2, 8)}
        assert len(values) == 1

    def test_non_hermitian_rejected(self):
        bad = np.array([[0, 0.3], [0.2, 0]], dtype=complex)
        with pytest.raises(PhysicalityError):
            torontonian(bad)

    def test_unphysical_kernel_identifies_subset(self):
        bad = np.array([[0, 1.5], [1.5, 0]], dtype=complex)  # radius > 1
        with pytest.raises(PhysicalityError, match=r"Z = \[1\]"):
            torontonian(bad)

    def test_result_metadata(self):
        result = torontonian(squeezed_kernel(0.5))
        assert result.max_term_magnitude >= 1.0
        assert "fsum" in result.summation
        assert result.cancellation_warning is False


class TestSubsetDeterminant:
    def test_empty_subset(self):
        assert subset_determinant(squeezed_kernel(1.0), []) == 1.0

    def test_full_subset_vacuum(self):
        assert subset_determinant(np.zeros((2, 2)), [1]) == pytest.approx(1.0)

    def test_full_subset_squeezed(self):
        value = subset_determinant(squeezed_kernel(1.0), [1])
        assert value == pytest.approx(1 - math.tanh(1.0) ** 2, rel=1e-12)
        assert value == pytest.approx(0.419974, abs=5e-7)

    def test_bad_subset(self):
        with pytest.raises(ValueError):
            subset_determinant(squeezed_kernel(1.0), [2])


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
        # of the absolute terms: matrix-power traces stay at or below 0.9 of that
        # over 20 seeds of 6 patterns, eigenvalue traces reach 1.2-5.3 per seed.
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
