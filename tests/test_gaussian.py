import logging
import math

import numpy as np
import pytest

from gbsim import (
    ClickPattern,
    ComplexUnitary,
    NumericalError,
    PNRPattern,
    PhysicalityError,
    QuadratureState,
    apply_interferometer,
    haar_unitary,
    husimi_covariance,
    kernel_matrix,
    pnr_prob,
    q_function,
    quadrature_covariance,
    reduce_matrix,
    squeezed_state,
    vacuum_state,
    validate_state,
)
from gbsim.gaussian import _clamp_probability, block_swap, random_state, reduce_state, symplectic_form

from conftest import tmsv


class TestVacuum:
    def test_single_mode(self):
        state = vacuum_state(1)
        assert np.array_equal(state.V, np.eye(2))
        assert np.array_equal(state.r, np.zeros(2))

    def test_three_modes_identity(self):
        assert np.array_equal(vacuum_state(3).V, np.eye(6))

    def test_passes_validation(self):
        assert validate_state(vacuum_state(2)).physical

    def test_zero_modes_rejected(self):
        with pytest.raises(ValueError):
            vacuum_state(0)


class TestSqueezedState:
    def test_zero_squeezing_is_vacuum(self):
        assert np.allclose(squeezed_state([0.0]).V, vacuum_state(1).V)

    def test_definition(self):
        V = squeezed_state([1.0]).V
        assert np.allclose(np.diag(V), [math.exp(2), math.exp(-2)])

    def test_husimi_determinant(self):
        # det Sigma = cosh^2(r) for one squeezed mode
        sigma = husimi_covariance(squeezed_state([1.0]))
        det = np.linalg.det(sigma.sigma).real
        assert det == pytest.approx(math.cosh(1.0) ** 2, rel=1e-12)
        assert det == pytest.approx(2.381098, abs=5e-7)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            squeezed_state([np.inf])


class TestInterferometer:
    def test_identity_leaves_state(self, rng):
        state = random_state(3, rng)
        out = apply_interferometer(state, np.eye(3))
        assert np.allclose(out.V, state.V, atol=1e-14)

    def test_vacuum_invariant(self, rng):
        out = apply_interferometer(vacuum_state(4), haar_unitary(4, rng))
        assert np.allclose(out.V, np.eye(8), atol=1e-12)

    def test_fifty_fifty_gives_tmsv(self):
        state = tmsv(0.7)
        c, s = math.cosh(1.4), math.sinh(1.4)
        expect = np.array(
            [[c, s, 0, 0], [s, c, 0, 0], [0, 0, c, -s], [0, 0, -s, c]]
        )
        assert np.allclose(state.V, expect, atol=1e-12)
        # off-diagonal Y block: the Husimi covariance couples the two modes
        sigma = husimi_covariance(state).sigma
        assert abs(sigma[2, 1]) > 0.1  # Y_12 entry
        assert abs(sigma[0, 1]) < 1e-12  # W off-diagonal vanishes for TMSV

    def test_non_unitary_rejected(self):
        with pytest.raises(ValueError):
            apply_interferometer(vacuum_state(2), np.eye(2) * 1.001)

    def test_preserves_det_sigma_and_symplectic_eigs(self, rng):
        state = random_state(3, rng, pure=False)
        out = apply_interferometer(state, haar_unitary(3, rng))
        before = np.linalg.det(husimi_covariance(state).sigma).real
        after = np.linalg.det(husimi_covariance(out).sigma).real
        assert after == pytest.approx(before, rel=1e-10)
        omega = symplectic_form(3)
        nu_before = np.sort(np.abs(np.linalg.eigvals(1j * omega @ state.V)))
        nu_after = np.sort(np.abs(np.linalg.eigvals(1j * omega @ out.V)))
        assert np.allclose(nu_before, nu_after, atol=1e-10)


class TestHaarUnitary:
    def test_single_mode_is_phase(self, rng):
        U = haar_unitary(1, rng).matrix
        assert abs(abs(U[0, 0]) - 1) < 1e-12

    def test_unitarity_defect(self, rng):
        U = haar_unitary(5, rng).matrix
        assert np.abs(U.conj().T @ U - np.eye(5)).max() < 1e-12

    def test_deterministic_given_seed(self):
        a = haar_unitary(3, np.random.default_rng(5)).matrix
        b = haar_unitary(3, np.random.default_rng(5)).matrix
        assert np.array_equal(a, b)

    def test_first_entry_moment(self):
        # Haar moment E|U_11|^2 = 1/l, checked by brute-force Monte Carlo
        rng = np.random.default_rng(77)
        draws = np.array([abs(haar_unitary(4, rng).matrix[0, 0]) ** 2 for _ in range(10_000)])
        stderr = draws.std(ddof=1) / math.sqrt(len(draws))
        assert abs(draws.mean() - 0.25) < 3 * stderr


class TestHusimi:
    def test_vacuum_identity(self):
        assert np.allclose(husimi_covariance(vacuum_state(2)).sigma, np.eye(4), atol=1e-14)

    def test_squeezed_closed_form(self):
        r = 0.9
        sigma = husimi_covariance(squeezed_state([r])).sigma
        c, s = math.cosh(r), math.sinh(r)
        assert np.allclose(sigma, [[c * c, s * c], [s * c, c * c]], atol=1e-12)

    def test_round_trip(self, rng):
        for modes in (1, 3, 6):
            state = random_state(modes, rng, pure=False)
            back = quadrature_covariance(husimi_covariance(state))
            assert np.abs(back.V - state.V).max() < 1e-10

    def test_block_symmetry_random(self, rng):
        sigma = husimi_covariance(random_state(3, rng)).sigma
        X = block_swap(3)
        assert np.abs(sigma - X @ sigma.conj() @ X).max() < 1e-12


class TestKernel:
    def test_vacuum_zero(self):
        K = kernel_matrix(husimi_covariance(vacuum_state(2)))
        assert np.abs(K.matrix).max() < 1e-14

    def test_squeezed_closed_form(self):
        r = 1.0
        K = kernel_matrix(husimi_covariance(squeezed_state([r])))
        t = math.tanh(r)
        assert np.allclose(K.matrix, [[0, t], [t, 0]], atol=1e-12)

    def test_block_symmetry_and_radius(self, rng):
        for _ in range(3):
            K = kernel_matrix(husimi_covariance(random_state(3, rng)))
            X = block_swap(3)
            assert np.abs(K.matrix - X @ K.matrix.conj() @ X).max() < 1e-12
            assert K.spectral_radius < 1.0

    def test_mode_relabeling_covariance(self, rng):
        state = random_state(4, rng)
        order = [3, 1, 4, 2]
        K = kernel_matrix(husimi_covariance(state)).matrix
        Kp = kernel_matrix(husimi_covariance(reduce_state(state, order))).matrix
        idx = np.array([o - 1 for o in order] + [o - 1 + 4 for o in order])
        assert np.abs(Kp - K[np.ix_(idx, idx)]).max() < 1e-12


class TestReduce:
    def test_worked_three_mode_example(self):
        # s = (3, 0, 1): W_11 fills a 3x3 corner, W_13 the next column,
        # then the W_31 row and W_33, repeated for every block.
        W = np.arange(1, 10).reshape(3, 3) * (1 + 0.5j)
        W = 0.5 * (W + W.conj().T) + np.eye(3)  # Hermitian
        Y = np.arange(1, 10).reshape(3, 3) * (0.3 - 0.2j)
        Y = 0.5 * (Y + Y.T)  # symmetric
        A = np.block([[W, Y.conj()], [Y, W.conj()]])
        out = reduce_matrix(A, PNRPattern(3, (3, 0, 1)))
        assert out.shape == (8, 8)
        Ws = out[:4, :4]
        assert np.all(Ws[:3, :3] == W[0, 0])
        assert np.all(Ws[:3, 3] == W[0, 2])
        assert np.all(Ws[3, :3] == W[2, 0])
        assert Ws[3, 3] == W[2, 2]
        Ys = out[4:, :4]
        assert np.all(Ys[:3, :3] == Y[0, 0])
        assert np.all(Ys[3, :3] == Y[2, 0])
        assert Ys[3, 3] == Y[2, 2]
        assert np.all(out[:4, 4:] == Ys.conj().T.T)  # Y* block mirrors Y

    def test_full_pattern_identity(self, rng):
        A = rng.standard_normal((6, 6))
        assert np.array_equal(reduce_matrix(A, (1, 1, 1)), A)

    def test_empty_pattern(self):
        out = reduce_matrix(np.eye(6), (0, 0, 0))
        assert out.shape == (0, 0)

    def test_click_pattern_multiplicities_are_one(self, rng):
        A = rng.standard_normal((6, 6))
        out = reduce_matrix(A, ClickPattern(3, (1, 3)))
        idx = np.array([0, 2, 3, 5])
        assert np.array_equal(out, A[np.ix_(idx, idx)])

    def test_composition(self, rng):
        # reducing by S then selecting a sub-multiset equals reducing directly;
        # the slots of the first reduction are (mode1, mode1, mode2, mode4)
        A = rng.standard_normal((8, 8))
        big = reduce_matrix(A, (2, 1, 0, 1))
        sub = reduce_matrix(big, (1, 0, 1, 1))  # drop one mode-1 slot
        direct = reduce_matrix(A, (1, 1, 0, 1))
        assert np.array_equal(sub, direct)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            reduce_matrix(np.eye(4), (1, 0, 1))


class TestQFunction:
    def test_vacuum_peak(self):
        sigma = husimi_covariance(vacuum_state(2))
        assert q_function(sigma, np.zeros(4)) == pytest.approx(1 / math.pi ** 2, rel=1e-12)

    def test_squeezed_peak(self):
        r = 1.3
        sigma = husimi_covariance(squeezed_state([r]))
        assert q_function(sigma, np.zeros(2)) == pytest.approx(1 / (math.pi * math.cosh(r)), rel=1e-12)

    def test_normalization_by_quadrature(self):
        # integrate Q over the complex plane on a Gauss-Legendre grid
        r = 0.6
        sigma = husimi_covariance(squeezed_state([r]))
        n, half = 120, 8.0
        x, w = np.polynomial.legendre.leggauss(n)
        x, w = half * x, half * w
        total = 0.0
        for i, re in enumerate(x):
            for j, im in enumerate(x):
                alpha = re + 1j * im
                total += w[i] * w[j] * q_function(sigma, np.array([alpha, alpha.conjugate()]))
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_inconsistent_conjugate_layout(self):
        sigma = husimi_covariance(vacuum_state(1))
        with pytest.raises(ValueError):
            q_function(sigma, np.array([1.0 + 1j, 1.0 + 1j]))


class TestValidateState:
    def test_vacuum_passes(self):
        diag = validate_state(vacuum_state(1))
        assert diag.physical and not diag.warnings

    def test_below_vacuum_noise_flagged(self):
        diag = validate_state(np.diag([0.5, 0.5]))
        assert not diag.physical

    def test_strong_squeezing_condition_warning(self):
        diag = validate_state(squeezed_state([5.0]))
        assert diag.physical
        assert diag.condition_v > 1e8
        assert any("conditioned" in w for w in diag.warnings)

    def test_constructor_rejects_unphysical(self):
        with pytest.raises(PhysicalityError):
            QuadratureState(np.diag([0.5, 0.5]))

    def test_constructor_rejects_asymmetric(self):
        V = np.eye(2)
        V[0, 1] = 1e-6
        with pytest.raises(PhysicalityError):
            QuadratureState(V)


class TestClampProbability:
    @pytest.mark.parametrize("p, expected", [
        (float("nan"), NumericalError),
        (float("inf"), NumericalError),
        (-1e-9, NumericalError),
        (-1e-11, 0.0),
        (1 + 1e-11, 1.0),
    ])
    def test_clamps_within_tolerance_and_raises_beyond(self, p, expected):
        if expected is NumericalError:
            with pytest.raises(NumericalError):
                _clamp_probability(p, "test")
        else:
            assert _clamp_probability(p, "test") == expected

    def test_roundoff_clamps_log_no_warning(self, caplog):
        # a 2-mode pure state has no odd photon numbers, so their probabilities clamp from roundoff
        state = random_state(2, np.random.default_rng(1))
        with caplog.at_level(logging.DEBUG, logger="gbsim.gaussian"):
            for n in range(11):
                for k in range(n + 1):
                    pnr_prob(state, (k, n - k))
        assert any("clamped probability" in record.getMessage() for record in caplog.records)
        assert not [record for record in caplog.records if record.levelno >= logging.WARNING]


class TestRoundTripInvariants:
    def test_husimi_invariants_random(self, rng):
        for modes in range(1, 7):
            sigma = husimi_covariance(random_state(modes, rng, pure=False))
            eigs = np.linalg.eigvalsh(sigma.sigma)
            assert eigs[0] >= 0.5 - 1e-10

    def test_reduce_state_marginal(self, rng):
        state = random_state(4, rng)
        marg = reduce_state(state, [2, 4])
        idx = np.array([1, 3, 5, 7])
        assert np.allclose(marg.V, state.V[np.ix_(idx, idx)])
