import math

import numpy as np
import pytest

import gbsim.hafnian as hafnian_mod
from gbsim import (
    hafnian_from_torontonian,
    hafnian_naive,
    hafnian_powerset,
    husimi_covariance,
    kernel_matrix,
    squeezed_state,
)
from gbsim.gaussian import block_swap, random_state
from gbsim.torontonian import _exp_series, _power_traces


def random_symmetric(dim, rng):
    A = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return A + A.T


def kernel_of(state):
    return kernel_matrix(husimi_covariance(state))


class TestNaive:
    def test_two_by_two(self):
        A = np.array([[1.0, 2.5], [2.5, -3.0]])
        assert hafnian_naive(A) == 2.5

    def test_four_by_four_three_matchings(self, rng):
        A = random_symmetric(4, rng)
        expect = A[0, 1] * A[2, 3] + A[0, 2] * A[1, 3] + A[0, 3] * A[1, 2]
        assert hafnian_naive(A) == pytest.approx(expect)

    def test_all_ones(self):
        assert hafnian_naive(np.ones((4, 4))) == pytest.approx(3.0)
        assert hafnian_naive(np.ones((6, 6))) == pytest.approx(15.0)  # (6-1)!!

    def test_empty(self):
        assert hafnian_naive(np.zeros((0, 0))) == 1.0

    def test_odd_dimension_rejected(self):
        with pytest.raises(ValueError):
            hafnian_naive(np.zeros((3, 3)))

    def test_diagonal_irrelevant_exactly(self, rng):
        A = random_symmetric(6, rng)
        B = A + np.diag(rng.standard_normal(6))
        assert hafnian_naive(A) == hafnian_naive(B)

    def test_pair_permutation_invariance(self, rng):
        A = random_symmetric(6, rng)
        perm = rng.permutation(6)
        B = A[np.ix_(perm, perm)]
        assert hafnian_naive(B) == pytest.approx(hafnian_naive(A))


def f_coefficient(C, order):
    """Coefficient of eta^order in det(1 - eta C)^(-1/2): the engine's exp series of C's power traces."""
    C = np.asarray(C, dtype=complex)
    return complex(_exp_series(_power_traces(C[None], order))[0, order])


class TestFCoefficient:
    def test_zero_matrix(self):
        assert f_coefficient(np.zeros((4, 4)), 2) == 0.0

    def test_order_one_is_half_trace(self, rng):
        C = rng.standard_normal((3, 3))
        assert f_coefficient(C, 1) == pytest.approx(np.trace(C) / 2)

    def test_diagonal_closed_form(self):
        a, b = 0.7, -0.4
        expect = ((a + b) / 2) ** 2 / 2 + (a * a + b * b) / 4
        assert f_coefficient(np.diag([a, b]), 2) == pytest.approx(expect, rel=1e-12)

    @pytest.mark.parametrize("dim, scale", [(4, 1.0), (10, 0.5)])
    def test_matches_series_of_det(self, rng, dim, scale):
        # f is the order-l Taylor coefficient of det(1 - eta C)^(-1/2); the
        # scale keeps the eta^(order+1) remainder inside the bound
        C = scale * rng.standard_normal((dim, dim))
        order = 3
        eta = 1e-2
        series = sum(f_coefficient(C, k).real * eta ** k for k in range(order + 1))
        direct = 1 / math.sqrt(np.linalg.det(np.eye(dim) - eta * C))
        assert abs(series - direct) < 10 * eta ** (order + 1)


class TestPowerset:
    def test_two_by_two(self):
        A = np.array([[1.0, 2.5], [2.5, -3.0]])
        assert hafnian_powerset(A) == pytest.approx(2.5)

    def test_matches_naive_random(self, rng):
        for dim in (2, 4, 6, 8, 10, 12, 14):
            for _ in range(20):
                A = random_symmetric(dim, rng)
                ref = hafnian_naive(A)
                assert abs(hafnian_powerset(A) - ref) <= 1e-8 * max(abs(ref), 1e-12)

    def test_close_to_naive_at_large_dimension(self):
        # 1e-12 separates matrix-power traces (near 1e-14 on these inputs)
        # from eigenvalue-based traces (up to 4e-12 on the same inputs)
        rng = np.random.default_rng(2)
        for dim, count in ((12, 3), (14, 2)):
            for _ in range(count):
                A = random_symmetric(dim, rng)
                ref = hafnian_naive(A)
                assert abs(hafnian_powerset(A) - ref) <= 1e-12 * abs(ref)

    def test_diagonal_irrelevance(self, rng):
        A = random_symmetric(8, rng)
        B = A + np.diag(rng.standard_normal(8) + 1j * rng.standard_normal(8))
        ref = hafnian_powerset(A)
        assert abs(hafnian_powerset(B) - ref) < 1e-10 * max(1.0, abs(ref))

    def test_wrong_reduction_breaks_diagonal_irrelevance(self, rng, monkeypatch):
        monkeypatch.setattr(hafnian_mod, "_WRONG_REDUCTION", True)
        A = random_symmetric(4, rng)
        B = A + np.diag(np.full(4, 2.0))
        assert abs(hafnian_powerset(B) - hafnian_powerset(A)) > 1e-6

    def test_sign_flip_breaks_oracle_agreement(self, rng, monkeypatch):
        monkeypatch.setattr(hafnian_mod, "_SIGN_FLIP", True)
        A = random_symmetric(4, rng)
        assert abs(hafnian_powerset(A) - hafnian_naive(A)) > 1e-8

    def test_asymmetric_rejected(self, rng):
        with pytest.raises(ValueError):
            hafnian_powerset(rng.standard_normal((4, 4)))

    def test_odd_dimension_rejected(self):
        with pytest.raises(ValueError):
            hafnian_powerset(np.zeros((5, 5)))


def matching_haf_xo(K):
    """Haf(X O) of a kernel by perfect-matching enumeration, independent of the Torontonian series."""
    return hafnian_naive(block_swap(K.modes) @ K.matrix)


class TestKernelHafnians:
    def test_bridge_zero_kernel(self):
        assert hafnian_from_torontonian(np.zeros((4, 4))) == 0.0

    def test_bridge_single_squeezed_mode(self):
        # Haf(XO) for one squeezed mode vanishes (odd photon parity); the
        # eta coefficient of the Torontonian must agree with the matching
        # oracle on X O.
        K = kernel_of(squeezed_state([1.0]))
        oracle = matching_haf_xo(K)
        assert abs(oracle) < 1e-14
        assert abs(hafnian_from_torontonian(K) - oracle.real) < 1e-12

    def test_bridge_matches_powerset(self, rng):
        for modes in (1, 2, 3, 4, 5):
            K = kernel_of(random_state(modes, rng, max_squeezing=0.6))
            a = hafnian_from_torontonian(K)
            b = matching_haf_xo(K)
            assert abs(a - b) <= 1e-7 * abs(b) + 1e-12

    def test_bridge_nonzero_case(self, rng):
        # guard against the identity passing only on trivially zero values
        K = kernel_of(random_state(2, rng, max_squeezing=0.7))
        assert abs(matching_haf_xo(K)) > 1e-6
