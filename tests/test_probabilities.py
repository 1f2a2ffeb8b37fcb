import itertools
import math

import numpy as np
import pytest
from scipy import stats

from gbsim import (
    NumericalError,
    apply_interferometer,
    collision_probability,
    distribution,
    haar_collision_experiment,
    haar_unitary,
    hafnian_naive,
    photon_moments,
    pnr_prob,
    squeezed_state,
    threshold_prob,
    threshold_prob_oracle,
    tor_as_hafnian_sum,
    torontonian,
    vacuum_state,
)
from gbsim.gaussian import block_swap, random_state, reduce_matrix
from gbsim.probabilities import _covariance_photon_moments, _photon_law, state_kernel

from conftest import tmsv


def matching_pnr_term(kernel, counts):
    """Haf(X O_(s)) / prod(s_k!) by perfect-matching enumeration, independent of the Torontonian series."""
    haf = hafnian_naive(block_swap(sum(counts)) @ reduce_matrix(kernel.matrix, counts))
    return haf.real / math.prod(math.factorial(c) for c in counts)


def random_and_haar_states(modes, rng):
    """One random pure state and one Haar-interferometer state at squeezing 1.0."""
    return [
        random_state(modes, rng),
        apply_interferometer(squeezed_state([1.0] * modes), haar_unitary(modes, rng)),
    ]


class TestThresholdProb:
    def test_vacuum_empty_pattern(self):
        assert threshold_prob(vacuum_state(2), ()) == pytest.approx(1.0, abs=1e-14)

    def test_single_squeezed_click(self):
        p = threshold_prob(squeezed_state([1.0]), (1,))
        assert p == pytest.approx(1 - 1 / math.cosh(1.0), abs=1e-12)
        assert p == pytest.approx(0.3519453, abs=5e-7)

    def test_tmsv_single_click_vanishes(self):
        # perfect photon-number correlation: one mode never clicks alone
        assert threshold_prob(tmsv(1.0), (1,)) == pytest.approx(0.0, abs=1e-12)
        assert threshold_prob(tmsv(1.0), (2,)) == pytest.approx(0.0, abs=1e-12)

    def test_displaced_state_rejected(self):
        state = vacuum_state(1)
        shifted = type(state)(state.V, np.array([0.5, 0.0]))
        with pytest.raises(ValueError):
            threshold_prob(shifted, (1,))


class TestOracle:
    def test_vacuum_any_click_zero(self):
        assert threshold_prob_oracle(vacuum_state(3), (2,)) == pytest.approx(0.0, abs=1e-14)
        assert threshold_prob_oracle(vacuum_state(3), (1, 3)) == pytest.approx(0.0, abs=1e-14)

    def test_single_squeezed(self):
        p = threshold_prob_oracle(squeezed_state([1.0]), (1,))
        assert p == pytest.approx(1 - 1 / math.cosh(1.0), abs=1e-12)

    def test_agreement_all_patterns_four_modes(self, rng):
        state = random_state(4, rng)
        for mask in range(16):
            clicked = tuple(i + 1 for i in range(4) if mask >> i & 1)
            a = threshold_prob(state, clicked)
            b = threshold_prob_oracle(state, clicked)
            assert abs(a - b) < 1e-10

    def test_twelve_clicks_exactly_summed(self):
        # 4096 signed overlaps: an fsum keeps the oracle within 2e-8 of the Torontonian (a running += drifts to 5e-8)
        state = apply_interferometer(squeezed_state([0.6] * 16), haar_unitary(16, np.random.default_rng(3)))
        clicked = tuple(range(1, 13))
        assert threshold_prob_oracle(state, clicked) == pytest.approx(threshold_prob(state, clicked), rel=2e-8, abs=0)


class TestPnrProb:
    def test_vacuum_all_zero(self):
        assert pnr_prob(vacuum_state(2), (0, 0)) == pytest.approx(1.0, abs=1e-14)

    def test_squeezed_two_photons(self):
        r = 1.0
        p = pnr_prob(squeezed_state([r]), (2,))
        assert p == pytest.approx(math.tanh(r) ** 2 / (2 * math.cosh(r)), rel=1e-10)

    def test_odd_parity_zero(self):
        assert pnr_prob(squeezed_state([1.0]), (1,)) == pytest.approx(0.0, abs=1e-12)
        assert pnr_prob(squeezed_state([0.8, 0.3]), (2, 1)) == pytest.approx(0.0, abs=1e-12)

    def test_tmsv_coincidence(self):
        r = 0.7
        p = pnr_prob(tmsv(r), (1, 1))
        assert p == pytest.approx(math.tanh(r) ** 2 / math.cosh(r) ** 2, rel=1e-10)

    @pytest.mark.parametrize("counts", [(2, 0, 1, 1), (3, 1, 0, 2), (1, 1, 1, 1), (0, 2, 0, 2), (0, 0, 3, 0)])
    def test_matches_perfect_matchings(self, rng, counts):
        states = [
            random_state(4, rng),
            random_state(4, rng, pure=False),
            apply_interferometer(squeezed_state([0.8] * 4), haar_unitary(4, rng)),
        ]
        for state in states:
            _, kernel, sqdet = state_kernel(state)
            expect = matching_pnr_term(kernel, counts) / sqdet
            assert pnr_prob(state, counts) == pytest.approx(expect, rel=1e-9, abs=1e-14)

    def test_pnr_fock_law_many_orders(self):
        # squeezed-vacuum Fock weights p(2m) = tanh^2m(r) (2m)!/(4^m m!^2 cosh r)
        r = 0.9
        state = squeezed_state([r])
        for m in range(4):
            expect = (
                math.tanh(r) ** (2 * m)
                * math.factorial(2 * m)
                / (4 ** m * math.factorial(m) ** 2 * math.cosh(r))
            )
            assert pnr_prob(state, (2 * m,)) == pytest.approx(expect, rel=1e-8)


class TestDominance:
    def test_threshold_dominates_collision_free_part(self, rng):
        state = random_state(3, rng)
        for mask in range(8):
            counts = tuple(mask >> i & 1 for i in range(3))
            clicked = tuple(i + 1 for i in range(3) if counts[i])
            assert threshold_prob(state, clicked) >= pnr_prob(state, counts) - 1e-10


class TestTorAsHafnianSum:
    def test_first_term_is_all_ones_hafnian(self, rng):
        state = random_state(3, rng, max_squeezing=0.5)
        result = tor_as_hafnian_sum(state, (1, 3), photon_cutoff=2)
        _, kernel, _ = state_kernel(state)
        expect = matching_pnr_term(kernel, (1, 0, 1))
        assert result.partial_sums[0][1] == pytest.approx(expect, rel=1e-10)

    @pytest.mark.parametrize("pure", [True, False])
    def test_partial_sums_match_per_pattern_hafnians(self, pure):
        # the referee sums one matching Hafnian per count vector with support exactly S
        state = random_state(3, np.random.default_rng(4), pure=pure)
        _, kernel, _ = state_kernel(state)
        clicked, cutoff = (1, 3), 6
        running, expect = 0.0, []
        for total in range(len(clicked), cutoff + 1):
            for on_clicked in itertools.product(range(1, total + 1), repeat=len(clicked)):
                if sum(on_clicked) == total:
                    counts = [0] * state.modes
                    for mode, count in zip(clicked, on_clicked):
                        counts[mode - 1] = count
                    running += matching_pnr_term(kernel, counts)
            expect.append((total, running))
        result = tor_as_hafnian_sum(state, clicked, photon_cutoff=cutoff)
        assert [total for total, _ in result.partial_sums] == [total for total, _ in expect]
        np.testing.assert_allclose([s for _, s in result.partial_sums], [s for _, s in expect], rtol=1e-10, atol=1e-14)

    def test_single_mode_partial_sums_closed_form(self):
        # partial sums are the central-binomial series of cosh(r) - 1
        r = 1.0
        state = squeezed_state([r])
        result = tor_as_hafnian_sum(state, (1,), photon_cutoff=10)
        t2 = math.tanh(r) ** 2
        expect = 0.0
        closed = []
        for m in range(1, 6):
            expect += t2 ** m * math.factorial(2 * m) / (4 ** m * math.factorial(m) ** 2)
            closed.append(expect)
        sums = dict(result.partial_sums)
        for m in range(1, 6):
            assert sums[2 * m] == pytest.approx(closed[m - 1], rel=1e-9)
        assert sums[2 * m - 1] == pytest.approx(closed[m - 2], rel=1e-9)  # odd adds nothing

    def test_monotone_convergence_to_torontonian(self, rng):
        state = random_state(2, rng, max_squeezing=0.7)
        _, kernel, _ = state_kernel(state)
        result = tor_as_hafnian_sum(state, (1, 2), photon_cutoff=12)
        sums = [s for _, s in result.partial_sums]
        assert all(b >= a - 1e-12 for a, b in zip(sums, sums[1:]))
        target = torontonian(reduce_matrix(kernel.matrix, (1, 1))).value
        assert sums[-1] <= target + 1e-10
        assert abs(sums[-1] - target) <= result.residual_bound + 1e-10

    def test_tmsv_tail_bound(self):
        r = 0.8
        state = tmsv(r)
        result = tor_as_hafnian_sum(state, (1, 2), photon_cutoff=8)
        _, kernel, _ = state_kernel(state)
        target = torontonian(reduce_matrix(kernel.matrix, (1, 1))).value
        assert abs(result.value - target) < 10 * math.tanh(r) ** 10

    def test_cutoff_below_clicks_rejected(self, rng):
        with pytest.raises(ValueError):
            tor_as_hafnian_sum(random_state(3, rng), (1, 2), photon_cutoff=1)

    def test_six_clicks_converge_within_residual(self):
        state = random_state(6, np.random.default_rng(4), max_squeezing=0.4)
        _, kernel, _ = state_kernel(state)
        result = tor_as_hafnian_sum(state, tuple(range(1, 7)), photon_cutoff=24)
        sums = [s for _, s in result.partial_sums]
        assert all(b >= a - 1e-15 for a, b in zip(sums, sums[1:]))
        target = torontonian(kernel).value
        assert abs(result.value - target) <= result.residual_bound

    def test_mixed_state_converges_within_residual(self):
        state = random_state(3, np.random.default_rng(9), pure=False)
        _, _, sqdet = state_kernel(state)
        result = tor_as_hafnian_sum(state, (1, 2), photon_cutoff=12)
        target = threshold_prob(state, (1, 2)) * sqdet
        assert result.value <= target + 1e-10
        assert target - result.value <= result.residual_bound


class TestDistribution:
    def test_vacuum_point_mass(self):
        dist = distribution(vacuum_state(3))
        assert dist.probability(()) == pytest.approx(1.0, abs=1e-12)
        assert all(p < 1e-12 for k, p in dist.items_sorted() if k)

    def test_random_state_normalizes(self, rng):
        state = apply_interferometer(squeezed_state(rng.uniform(-0.8, 0.8, 3)), haar_unitary(3, rng))
        dist = distribution(state)
        assert abs(dist.normalization_defect) < 1e-9

    def test_tmsv_support(self):
        dist = distribution(tmsv(1.0))
        for pattern, p in dist.items_sorted():
            if pattern in ((), (1, 2)):
                assert p > 0.1
            else:
                assert p < 1e-12

    @pytest.mark.parametrize("modes", [1, 2, 4, 6])
    def test_table_equals_threshold_prob_exactly(self, rng, modes):
        for state in random_and_haar_states(modes, rng):
            for clicked, p in distribution(state).table.items():
                assert p == threshold_prob(state, clicked)

    def test_scale_guard(self):
        with pytest.raises(ValueError):
            distribution(vacuum_state(13))


class TestPhotonMoments:
    def test_no_squeezing(self):
        m = photon_moments([0.0], 4)
        assert m.mean == 0.0 and m.second_moment == 0.0

    def test_single_mode_closed_form(self):
        # tanh^2(1) ~ 0.58 per photon pair: the 1e-12 tail needs N ~ 120
        m = photon_moments([1.0], 140)
        assert m.mean == pytest.approx(math.sinh(1.0) ** 2, rel=1e-10)
        assert m.mean == pytest.approx(1.3811, abs=5e-5)
        var = math.sinh(2.0) ** 2 / 2
        assert m.second_moment == pytest.approx(var + m.mean ** 2, rel=1e-9)

    def test_two_modes_independence(self):
        m = photon_moments([1.0, 1.0], 260)
        mean_i = math.sinh(1.0) ** 2
        var_i = math.sinh(2.0) ** 2 / 2
        assert m.mean == pytest.approx(2 * mean_i, rel=1e-10)
        assert m.second_moment == pytest.approx(2 * var_i + (2 * mean_i) ** 2, rel=1e-9)

    def test_insufficient_cutoff_rejected(self):
        with pytest.raises(ValueError):
            photon_moments([1.5], 6)


class TestCollision:
    def test_vacuum(self):
        report = collision_probability(vacuum_state(2))
        assert report.epsilon == pytest.approx(0.0, abs=1e-12)

    def test_single_squeezed_all_clicks_are_collisions(self):
        # odd photon numbers never occur, so every click has >= 2 photons
        report = collision_probability(squeezed_state([1.0]))
        assert report.epsilon == pytest.approx(1 - 1 / math.cosh(1.0), abs=1e-10)

    def test_weak_squeezing_small_epsilon(self, rng):
        state = apply_interferometer(squeezed_state([0.1] * 4), haar_unitary(4, rng))
        report = collision_probability(state)
        assert report.epsilon < 1e-2

    def test_gaps_nonnegative(self, rng):
        report = collision_probability(random_state(3, rng))
        assert min(report.gaps.values()) >= -1e-10

    def test_l1_identity_within_residual(self, rng):
        for modes in (2, 3, 4, 6):
            state = random_state(modes, rng, max_squeezing=0.5)
            report = collision_probability(state, photon_cutoff=8)
            assert abs(report.l1_patternwise - report.epsilon) <= report.residual_bound

    @pytest.mark.parametrize("modes", [2, 3])
    def test_l1_matches_patternwise_sum(self, rng, modes):
        # reference: every PNR outcome up to 8 photons, one pnr_prob (one Hafnian) each
        for state in random_and_haar_states(modes, rng):
            diffs = []
            for counts in itertools.product(range(9), repeat=modes):
                if sum(counts) > 8:
                    continue
                p = pnr_prob(state, counts)
                if max(counts) <= 1:  # collision-free: the threshold distribution's own support
                    p -= threshold_prob(state, tuple(i + 1 for i, c in enumerate(counts) if c))
                diffs.append(abs(p))
            report = collision_probability(state, photon_cutoff=8)
            assert report.l1_patternwise == pytest.approx(0.5 * math.fsum(diffs), rel=1e-12)

    @pytest.mark.parametrize("modes", [1, 2, 4])
    def test_cutoff_leaves_gaps_unchanged(self, rng, modes):
        for state in random_and_haar_states(modes, rng):
            with_l1 = collision_probability(state, photon_cutoff=8)
            without = collision_probability(state, photon_cutoff=None)
            assert with_l1.gaps == without.gaps
            assert with_l1.epsilon == without.epsilon

    @pytest.mark.parametrize("modes", [1, 2, 4, 6])
    def test_gaps_match_threshold_minus_pnr(self, rng, modes):
        # pnr_prob takes each Hafnian from its own reduced kernel's series, not from the collision pass
        for state in random_and_haar_states(modes, rng):
            for clicked, gap in collision_probability(state, photon_cutoff=None).gaps.items():
                counts = tuple(int(i + 1 in clicked) for i in range(modes))
                expect = threshold_prob(state, clicked) - pnr_prob(state, counts)
                assert gap == pytest.approx(expect, abs=1e-12)

    def test_mixed_state(self):
        # the gaps and the photon moments need no pure state
        state = random_state(5, np.random.default_rng(9), pure=False)
        report = collision_probability(state, photon_cutoff=None)
        for clicked, gap in report.gaps.items():
            counts = tuple(int(i + 1 in clicked) for i in range(5))
            assert gap == pytest.approx(threshold_prob(state, clicked) - pnr_prob(state, counts), abs=1e-12)
        assert report.mean_photons_sq > report.mean_photons ** 2 > 0
        assert report.haar_bound == 8 * report.mean_photons_sq / 5

    @pytest.mark.parametrize("pure", [True, False])
    def test_photon_moments_match_pnr_sums(self, pure):
        # every PNR outcome of up to 10 photons, one pnr_prob each: the rest carries below 1e-7 of the probability
        state = random_state(2, np.random.default_rng(3), pure=pure, max_squeezing=0.2, max_thermal=0.1)
        outcomes = [(n, pnr_prob(state, (k, n - k))) for n in range(11) for k in range(n + 1)]
        mean = math.fsum(n * p for n, p in outcomes)
        second = math.fsum(n * n * p for n, p in outcomes)
        report = collision_probability(state, photon_cutoff=None)
        assert mean <= report.mean_photons == pytest.approx(mean, rel=1e-4)
        assert second <= report.mean_photons_sq == pytest.approx(second, rel=1e-4)
        # the photon-number law from det(1 - eta O)^(-1/2): the same sums, photon number by photon number
        _, kernel, sqdet = state_kernel(state)
        law, tail = _photon_law(kernel, sqdet, 10)
        sums = [math.fsum(p for n, p in outcomes if n == total) for total in range(11)]
        np.testing.assert_allclose(law, sums, rtol=0, atol=1e-15)
        assert tail == pytest.approx(1 - math.fsum(sums), abs=1e-15)
        assert 0 < tail < 1e-7
        # and the moments of tr V once the tail is below roundoff
        law, tail = _photon_law(kernel, sqdet, 40)
        assert tail < 1e-15
        ns = np.arange(41)
        assert (law @ ns, law @ ns ** 2) == pytest.approx(_covariance_photon_moments(state.V), rel=1e-12)

    def test_mixed_state_l1_route(self):
        # the default cutoff (8 photons at 3 modes) takes the tail from the mixed state's own photon-number law
        state = random_state(3, np.random.default_rng(9), pure=False)
        report = collision_probability(state)
        assert report.photon_cutoff == 8
        assert 0 < report.residual_bound < 0.01
        assert abs(report.l1_patternwise - report.epsilon) <= report.residual_bound

    def test_scale_guard(self):
        with pytest.raises(ValueError):
            collision_probability(vacuum_state(11))


class TestHaarCollision:
    def test_bound_arithmetic(self):
        # 8 * E[N^2] / l for l = 6, E[N^2] = 0.5
        assert 8 * 0.5 / 6 == pytest.approx(2 / 3)

    def test_zero_squeezing_trivial(self, rng):
        result = haar_collision_experiment(3, [0.0, 0.0, 0.0], 30, rng)
        assert result.mean_epsilon == pytest.approx(0.0, abs=1e-12)
        assert result.bound == pytest.approx(0.0, abs=1e-12)

    def test_small_experiment_below_bound(self, rng):
        result = haar_collision_experiment(3, [0.3, 0.3, 0.0], 30, rng)
        assert result.mean_epsilon < result.bound
        # one-sided 95% confidence: mean + t(0.95, trials - 1) * SE below the bound
        assert result.mean_epsilon + stats.t.ppf(0.95, result.trials - 1) * result.stderr <= result.bound

    def test_trial_floor(self, rng):
        with pytest.raises(ValueError):
            haar_collision_experiment(3, [0.1, 0.1, 0.1], 5, rng)


class TestNormalization:
    def test_sum_to_one_up_to_eight_modes(self, rng):
        state = random_state(8, rng, max_squeezing=0.6)
        dist = distribution(state)
        assert abs(dist.normalization_defect) < 1e-9
