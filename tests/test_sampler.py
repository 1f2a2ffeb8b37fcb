import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gbsim import (
    ClickPattern,
    GaussianMixture,
    NumericalError,
    PhysicalityError,
    QuadratureState,
    chain_rule_probability,
    distribution,
    herald,
    q_function,
    husimi_covariance,
    reduce_state,
    sample,
    sample_batch,
    squeezed_state,
    step,
    substream_id,
    threshold_prob,
    vacuum_state,
)
from gbsim.cv import paired_source_state
from gbsim.gaussian import haar_unitary, random_state
from gbsim.sampler import (
    _Forced,
    _chain,
    _coin,
    _measurement_order,
    _sample_records,
    _substream_rng,
    mixture_apply_interferometer,
)

from conftest import tmsv


class TestConditionNoClick:
    # a forced no-click is herald(state, [mode], [0]): (conditioned mixture, no-click probability)
    def test_vacuum(self):
        rest, q = herald(vacuum_state(2), [2], [0])
        assert q == pytest.approx(1.0, abs=1e-14)
        assert np.allclose(rest.covs[0], np.eye(2))

    def test_thermal(self):
        nbar = 0.8
        V = np.diag([2 * nbar + 1] * 4)
        _, q = herald(QuadratureState(V), [1], [0])
        assert q == pytest.approx(1 / (nbar + 1), rel=1e-12)

    def test_squeezed(self):
        r = 1.0
        _, q = herald(squeezed_state([r, 0.0]), [1], [0])
        assert q == pytest.approx(1 / math.cosh(r), rel=1e-12)

    def test_displaced_vacuum_matches_q_function(self):
        # vacuum overlap of a displaced vacuum: pi^l Q(0) is the oracle
        x, p = 0.9, -1.4
        state = QuadratureState(np.eye(2), np.array([x, p]))
        _rest, q = herald(GaussianMixture.from_state(state), [1], [0])
        alpha = (x + 1j * p) / 2
        sigma = husimi_covariance(vacuum_state(1))
        oracle = math.pi * q_function(sigma, np.array([alpha, np.conj(alpha)]))
        assert q == pytest.approx(oracle, rel=1e-12)
        assert q == pytest.approx(math.exp(-(x * x + p * p) / 4), rel=1e-12)

    def test_mixture_is_conditioned_as_a_whole(self):
        # q is the no-click probability of the whole signed mixture, not of branch 0
        state = random_state(5, np.random.default_rng(1))
        mixture, p_clicks = herald(state, [5, 4], [1, 1])
        rest, q = herald(mixture, [3], [0])
        assert q == pytest.approx(herald(state, [5, 4, 3], [1, 1, 0])[1] / p_clicks, rel=0, abs=1e-12)
        assert isinstance(rest, GaussianMixture)
        assert rest.branch_count == 4
        assert rest.labels == (1, 2)


class TestStep:
    def test_vacuum_never_clicks(self, rng):
        mixture = GaussianMixture.from_state(vacuum_state(3))
        outcome, new = step(mixture, 3, rng)
        assert outcome == 0
        assert new.modes == 2
        assert new.branch_count == 1
        assert np.allclose(new.covs[0], np.eye(4))

    def test_single_squeezed_click_frequency(self):
        r = 1.0
        hits = 0
        n = 4000
        rng = np.random.default_rng(123)
        state = squeezed_state([r])
        for _ in range(n):
            outcome, _ = step(GaussianMixture.from_state(state), 1, rng)
            hits += outcome
        p = 1 - 1 / math.cosh(r)
        assert abs(hits / n - p) < 4 * math.sqrt(p * (1 - p) / n)

    def test_tmsv_conditional_click_is_certain(self, rng):
        mixture, _ = herald(tmsv(1.0), [2], [1])
        assert mixture.branch_count == 2
        outcome, final = step(mixture, 1, rng)
        assert outcome == 1
        assert final.branch_count == 4

    def test_unknown_mode_rejected(self, rng):
        mixture = GaussianMixture.from_state(vacuum_state(2))
        with pytest.raises(ValueError):
            step(mixture, 5, rng)

    def test_hand_loop_matches_sample_mixture(self, rng):
        # one draw rule: stepping by hand on the tree replays the signed-mixture loop's outcomes
        state = random_state(6, rng, max_squeezing=0.9)
        order = [2, 6, 1, 5, 3, 4]
        for seed in range(8):
            final, _, _ = _loop_sample(GaussianMixture.from_state(state), np.random.default_rng(seed), order=order)
            mixture = GaussianMixture.from_state(state)
            draws = np.random.default_rng(seed)
            for label in order:
                _, mixture = step(mixture, label, draws)
            assert mixture.history == final.history
            assert np.abs(mixture.weights - final.weights).max() <= 1e-9 * np.abs(final.weights).max()


class TestMixtureInvariants:
    def test_weight_conservation_along_forced_paths(self, rng):
        state = random_state(4, rng)
        for mask in range(16):
            outcomes = [mask >> i & 1 for i in range(4)]
            mixture = GaussianMixture.from_state(state)
            from gbsim.sampler import _advance

            for label in (4, 3, 2, 1):
                _, mixture = _advance(mixture, label, _Forced({label: outcomes[label - 1]}))
                assert abs(mixture.weights.sum() - 1.0) < 1e-9

    def test_branch_growth_is_exactly_two_per_click(self, rng):
        state = random_state(5, rng, max_squeezing=0.9)
        most_clicks = 0
        for seed in range(17, 57):
            final, probs, counts = _loop_sample(GaussianMixture.from_state(state), np.random.default_rng(seed))
            for prob in probs:
                assert 0.0 <= prob <= 1.0
            assert final.branch_count == counts[-1] == 2 ** len(final.clicked_labels)
            clicks = np.cumsum([outcome for _, outcome in final.history])
            assert list(counts) == [2 ** int(c) for c in clicks]
            most_clicks = max(most_clicks, int(clicks[-1]))
        assert most_clicks >= 2  # the growth was exercised, not only the all-silent path

    def test_branch_covariances_stay_physical(self, rng):
        state = random_state(4, rng)
        mixture, _ = herald(state, [4, 3], [1, 1])
        assert mixture.validate() > -1e-8

    def test_weight_sum_enforced(self):
        with pytest.raises(NumericalError):
            GaussianMixture(
                labels=(1,),
                weights=np.array([0.7, 0.7]),
                covs=np.stack([np.eye(2), np.eye(2)]),
                means=np.zeros((2, 2)),
                history=((2, 1),),
            )

    def test_branch_bound_enforced(self):
        with pytest.raises(NumericalError):
            GaussianMixture(
                labels=(1,),
                weights=np.array([0.5, 0.5]),
                covs=np.stack([np.eye(2), np.eye(2)]),
                means=np.zeros((2, 2)),
                history=(),  # no clicks recorded, so two branches are illegal
            )

    def test_arrays_are_frozen_copies(self):
        w, c, m = np.array([1.0]), np.eye(2)[None].copy(), np.zeros((1, 2))
        mixture = GaussianMixture(labels=(1,), weights=w, covs=c, means=m)
        assert w.flags.writeable and c.flags.writeable and m.flags.writeable
        c[0, 0, 0] = -5.0
        assert mixture.covs[0, 0, 0] == 1.0
        assert not (mixture.weights.flags.writeable or mixture.covs.flags.writeable or mixture.means.flags.writeable)

    def test_indefinite_branch_rejected(self):
        # V_B + 1 = -2 I has det 4 > 0: a determinant-only test takes it for positive definite
        mixture = GaussianMixture(labels=(1, 2), weights=[1.0], covs=[-3 * np.eye(4)], means=[np.zeros(4)])
        with pytest.raises(NumericalError, match="not positive definite"):
            herald(mixture, [2], [0])
        # the tree walk names the vacuum-overlap block of the state that fails, not a kernel the caller never passed
        with pytest.raises(PhysicalityError, match=r"Sigma_\(T\) = .* not positive definite for modes T = \[2\]"):
            sample(QuadratureState(np.diag([1.0, -3.0, 1.0, 1.0]), validate=False), np.random.default_rng(0))

    @pytest.mark.parametrize("route", [
        lambda state: sample(state, np.random.default_rng(0)),
        lambda state: herald(state, [2], [0]),
        lambda state: step(state, 2, np.random.default_rng(0)),
    ], ids=["sample", "herald", "step"])
    def test_unphysical_state_blames_the_state(self, route):
        # a state is walked as given, so the fault names the state, not a mixture the caller never built
        bad = QuadratureState(np.diag([1.0, -3.0, 1.0, 1.0]), validate=False)
        with pytest.raises(PhysicalityError, match="the state is not physical"):
            route(bad)


class TestChainRule:
    def test_matches_enumeration_every_pattern(self, rng):
        for modes in (2, 3, 4):
            state = random_state(modes, rng)
            dist = distribution(state)
            for pattern, p in dist.items_sorted():
                assert chain_rule_probability(state, pattern) == pytest.approx(p, abs=1e-9)

    def test_order_invariance(self, rng):
        state = random_state(3, rng)
        dist = distribution(state)
        for order in ([3, 2, 1], [1, 2, 3], [2, 3, 1]):
            for pattern, p in dist.items_sorted():
                got = chain_rule_probability(state, pattern, order=order)
                assert got == pytest.approx(p, abs=1e-9)

    def test_pattern_mode_count_checked(self):
        # as in threshold_prob: a 7-mode pattern is not read as a 5-mode one
        with pytest.raises(ValueError, match="mode count"):
            chain_rule_probability(squeezed_state([0.5] * 5), ClickPattern(7, (6,)))


class TestSample:
    def test_vacuum_always_empty(self):
        recs = sample_batch(vacuum_state(3), 200, seed=5)
        assert all(r.pattern.clicked == () for r in recs)

    def test_tmsv_supports_and_frequency(self):
        r = 1.0
        recs = sample_batch(tmsv(r), 20_000, seed=9)
        seen = {rec.pattern.clicked for rec in recs}
        assert seen <= {(), (1, 2)}
        freq = sum(1 for rec in recs if rec.pattern.clicked == (1, 2)) / len(recs)
        p = 1 - 1 / math.cosh(r) ** 2
        assert abs(freq - p) < 4 * math.sqrt(p * (1 - p) / len(recs))

    def test_three_mode_tv_distance(self, rng):
        state = random_state(3, rng)
        dist = distribution(state)
        recs = sample_batch(state, 20_000, seed=31)
        counts = {}
        for rec in recs:
            counts[rec.pattern.clicked] = counts.get(rec.pattern.clicked, 0) + 1
        emp = {k: v / len(recs) for k, v in counts.items()}
        assert dist.total_variation(emp) < 0.02

    def test_record_diagnostics(self, rng):
        rec = sample(random_state(3, rng), np.random.default_rng(2))
        assert len(rec.noclick_probs) == 3
        assert len(rec.branch_counts) == 3

    @pytest.mark.parametrize("modes, pure, order", [
        (3, True, None), (3, False, None), (5, True, None), (5, False, None),
        (8, True, None), (8, False, None), (5, True, [2, 5, 1, 4, 3]), (18, True, None),
    ])
    def test_table_route_matches_mixture(self, modes, pure, order):
        # zero-mean states walk the pivot tree of their vacuum overlaps, at 18 modes too; the signed mixture is the
        # reference
        state = random_state(modes, np.random.default_rng(100 + modes), pure=pure)
        for i in range(20):
            rec = sample(state, _substream_rng(61, i), order=order)
            final, probs, counts = _loop_sample(GaussianMixture.from_state(state), _substream_rng(61, i), order)
            assert rec.pattern.clicked == tuple(sorted(final.clicked_labels))
            assert rec.branch_counts == counts
            assert np.abs(np.subtract(rec.noclick_probs, probs)).max() <= 1e-8

    def test_displaced_state_closed_form(self):
        # a coherent product state: each mode's no-click probability is exp(-(x^2 + p^2) / 4) whatever the
        # other modes read; the tree reads it from the mean border, which a zero-mean walk would miss (1.0)
        r = np.array([0.9, -1.4, 0.3, 0.5, 1.1, -0.7])
        closed = {j: math.exp(-(r[j - 1] ** 2 + r[j + 2] ** 2) / 4) for j in (1, 2, 3)}
        for rec in sample_batch(QuadratureState(np.eye(6), r), 30, seed=8):
            assert np.allclose(rec.noclick_probs, [closed[j] for j in (3, 2, 1)], rtol=0, atol=1e-12)


def _batch_state(modes, rng, displaced):
    state = random_state(modes, rng)
    if not displaced:
        return state
    # a nonzero mean: the border row and column of the walk carry it
    return QuadratureState(state.V, rng.normal(size=2 * modes), validate=False)


def _record_fields(rec):
    return rec.pattern, rec.noclick_probs, rec.branch_counts


class TestSampleBatch:
    def test_single_sample_equals_batch_head(self, rng):
        for displaced in (False, True):  # with and without a mean border
            state = _batch_state(3, rng, displaced)
            one = sample(state, np.random.Generator(np.random.PCG64(substream_id(99, 0))))
            batch = sample_batch(state, 1, seed=99)
            assert _record_fields(batch[0]) == _record_fields(one)

    def test_records_equal_lone_samples(self):
        # the batch walk shares tree nodes between its samples; sharing never moves a record
        state = random_state(10, np.random.default_rng(3))
        batch = sample_batch(state, 24, seed=41)
        assert max(rec.clicks for rec in batch) >= 3
        for i, rec in enumerate(batch):
            assert _record_fields(rec) == _record_fields(sample(state, _substream_rng(41, i)))

    def test_same_seed_identical(self, rng):
        state = random_state(3, rng)
        a = sample_batch(state, 50, seed=4)
        b = sample_batch(state, 50, seed=4)
        assert [r.pattern.clicked for r in a] == [r.pattern.clicked for r in b]

    def test_halves_merge_to_full_batch(self, rng):
        for modes, n, displaced in ((2, 40, False), (4, 10, True)):  # with and without a mean border
            state = _batch_state(modes, rng, displaced)
            full = sample_batch(state, n, seed=12)
            head = sample_batch(state, n // 2, seed=12)
            assert [_record_fields(r) for r in full[:n // 2]] == [_record_fields(r) for r in head]
            assert [r.substream for r in full[:n // 2]] == [r.substream for r in head]


def _displaced(mixture):
    """The mixture with every branch's mean moved by one fixed nonzero vector."""
    return GaussianMixture(mixture.labels, mixture.weights, mixture.covs,
                           mixture.means + np.linspace(-0.6, 0.8, 2 * mixture.modes), mixture.history)


def _heralded_mixture(modes, heralds, seed):
    mixture, _ = herald(paired_source_state(modes, heralds, 0.9), list(range(modes + 1, modes + heralds + 1)),
                        [1] * heralds)
    return mixture_apply_interferometer(mixture, haar_unitary(modes, np.random.default_rng(seed)).matrix)


class TestMixtureWalk:
    @pytest.mark.parametrize("modes, heralds, seed, order", [
        (4, 2, 1, None), (6, 2, 2, None), (6, 3, 3, None), (7, 3, 4, [2, 7, 5, 1, 6, 3, 4]),
        (5, 2, 5, [1, 2, 3, 4, 5]),
    ])
    def test_heralded_walk_matches_sample_mixture(self, modes, heralds, seed, order):
        # a heralded source is a signed mixture of zero-mean states: its branches are the roots of one tree walk
        mixture = _heralded_mixture(modes, heralds, seed)
        records = _sample_records(mixture, [_substream_rng(seed, i) for i in range(40)], order)
        assert max(rec.clicks for rec in records) >= 2
        for i, rec in enumerate(records):
            final, probs, counts = _loop_sample(mixture, _substream_rng(seed, i), order)
            assert rec.pattern.clicked == tuple(sorted(set(final.clicked_labels) & set(mixture.labels)))
            assert rec.branch_counts == counts
            assert np.abs(np.subtract(rec.noclick_probs, probs)).max() <= 1e-9

    def test_one_branch_mixture_walks_like_its_state(self):
        state = random_state(7, np.random.default_rng(6), pure=False)
        for order in (None, [3, 1, 7, 2, 6, 4, 5]):
            alone = _sample_records(state, [_substream_rng(7, i) for i in range(30)], order)
            mixture = GaussianMixture.from_state(state)
            rooted = _sample_records(mixture, [_substream_rng(7, i) for i in range(30)], order)
            assert max(rec.clicks for rec in alone) >= 2
            assert [_record_fields(r) for r in rooted] == [_record_fields(r) for r in alone]

    def test_displaced_mixture_matches_loop(self):
        # a coherent product state as a one-branch mixture: each no-click probability is exp(-(x^2 + p^2) / 4),
        # read from the mean border; a displaced heralded mixture walks like the signed-mixture loop
        r = np.array([0.9, -1.4, 0.3, 0.5, 1.1, -0.7])
        coherent = GaussianMixture.from_state(QuadratureState(np.eye(6), r))
        closed = [math.exp(-(r[j - 1] ** 2 + r[j + 2] ** 2) / 4) for j in (3, 2, 1)]
        for rec in _sample_records(coherent, [_substream_rng(8, i) for i in range(20)], None):
            assert np.allclose(rec.noclick_probs, closed, rtol=0, atol=1e-12)
        displaced = _displaced(_heralded_mixture(4, 2, 9))
        records = _sample_records(displaced, [_substream_rng(9, i) for i in range(40)], None)
        assert max(rec.clicks for rec in records) >= 2
        for i, rec in enumerate(records):
            final, probs, counts = _loop_sample(displaced, _substream_rng(9, i))
            assert rec.pattern.clicked == tuple(sorted(set(final.clicked_labels) & {1, 2, 3, 4}))
            assert rec.branch_counts == counts
            assert np.abs(np.subtract(rec.noclick_probs, probs)).max() <= 1e-9


class TestHerald:
    def test_vacuum_all_silent(self):
        mixture, p = herald(vacuum_state(3), [1, 2, 3], [0, 0, 0])
        assert p == pytest.approx(1.0, abs=1e-12)
        assert mixture.modes == 0

    def test_tmsv_click_structure(self):
        mixture, p = herald(tmsv(1.0), [2], [1])
        assert p == pytest.approx(1 - 1 / math.cosh(1.0) ** 2, rel=1e-12)
        assert mixture.branch_count == 2
        assert mixture.labels == (1,)
        # weights are (1, -q)/(1-p) with q = no-click weight of the branch
        q = 1 / math.cosh(1.0) ** 2
        assert mixture.weights[0] == pytest.approx(1 / (1 - q), rel=1e-12)
        assert mixture.weights[1] == pytest.approx(-q / (1 - q), rel=1e-12)

    def test_single_squeezed_click_probability(self):
        _, p = herald(squeezed_state([1.0]), [1], [1])
        assert p == pytest.approx(1 - 1 / math.cosh(1.0), rel=1e-12)

    def test_probability_matches_marginal_threshold(self, rng):
        state = random_state(4, rng)
        _, p = herald(state, [2, 4], [1, 0])
        marginal_state = reduce_state(state, [2, 4])
        expect = threshold_prob(marginal_state, (1,))  # mode 2 is index 1 of the marginal
        assert p == pytest.approx(expect, abs=1e-10)

    def test_impossible_event_rejected(self):
        with pytest.raises(NumericalError):
            herald(vacuum_state(2), [1], [1])  # vacuum cannot click

    @pytest.mark.parametrize("order", [[2], [1, 2, 3], [2, 2]])
    def test_order_must_permute_measured_modes(self, order):
        # [2] would leave mode 1 unmeasured; [1, 2, 3] names a mode without an outcome
        with pytest.raises(ValueError, match="permutation"):
            herald(squeezed_state([0.5, 0.7, 0.9]), [1, 2], [1, 0], order=order)

    @pytest.mark.parametrize("outcomes", [[1, 0, 1], [2, 0], [-1, 0]])
    def test_outcomes_must_be_one_bit_per_measured_mode(self, outcomes):
        # an extra bit must not be dropped, nor a 2 taken as a click or a -1 as a no-click
        with pytest.raises(ValueError, match="one outcome, 0 or 1"):
            herald(squeezed_state([0.5, 0.7, 0.9]), [1, 2], outcomes)


def _loop_herald(source, measured, outcomes, order=None):
    """The signed-mixture chain rule forced along the same path: the referee of the tree herald."""
    mixture = source if isinstance(source, GaussianMixture) else GaussianMixture.from_state(source)
    draw = _Forced(dict(zip(measured, outcomes)))
    return _chain(mixture, _measurement_order(measured, order), draw)[0], draw.probability


def _loop_sample(mixture, rng, order=None):
    """The signed-mixture chain rule drawn by the coin rule over every mode: the referee of the tree sampler."""
    return _chain(mixture, _measurement_order(mixture.labels, order), _coin(rng))


def _assert_same_branches(tree, loop):
    # labels, history and branch order exactly; weights, covariances and means to roundoff of the cancelling signed
    # sum; a zero-mean source keeps means of exactly 0
    assert (tree.labels, tree.history, tree.branch_count) == (loop.labels, loop.history, loop.branch_count)
    assert np.abs(tree.weights - loop.weights).max() <= 1e-9 * np.abs(loop.weights).max()
    assert np.abs(tree.covs - loop.covs).max(initial=0.0) <= 1e-12
    assert np.abs(tree.means - loop.means).max(initial=0.0) <= 1e-12
    assert tree.means.any() == loop.means.any()


class TestHeraldTree:
    # a zero-mean herald walks the forced path of the pivot tree; the signed-mixture chain rule referees it

    @pytest.mark.parametrize("seed, pure, measured, outcomes, order", [
        (1, True, [6, 4, 3, 1], [1, 0, 1, 1], None),
        (2, False, [6, 4, 3, 1], [1, 0, 1, 1], None),
        (3, True, [2, 5, 6], [1, 1, 0], [5, 2, 6]),
        (4, False, [1, 2, 3, 4, 5], [0, 1, 1, 0, 1], [3, 1, 5, 2, 4]),
        (5, True, [1, 3, 5, 6], [1, 1, 1, 1], None),
        (6, False, [1, 3, 5, 6], [1, 1, 1, 1], [1, 6, 3, 5]),
        (7, True, [2, 3, 4], [0, 0, 0], None),
        (8, False, [1, 2, 3, 4, 5, 6], [0, 0, 0, 0, 0, 0], None),
        (9, False, [1, 2, 3, 4, 5, 6], [1, 0, 1, 1, 0, 1], [4, 1, 6, 2, 5, 3]),
    ])
    def test_state_matches_loop(self, seed, pure, measured, outcomes, order):
        # each case zero-mean and displaced: the mean rides the same walk as a border column
        rng = np.random.default_rng(seed)
        state = random_state(6, rng, pure=pure)
        for source in (state, QuadratureState(state.V, 0.5 * rng.normal(size=12))):
            tree, p = herald(source, measured, outcomes, order=order)
            loop, q = _loop_herald(source, measured, outcomes, order)
            _assert_same_branches(tree, loop)
            assert p == pytest.approx(q, rel=1e-9)

    @pytest.mark.parametrize("modes, heralds, seed, measured, outcomes, order", [
        (5, 2, 1, [5, 3, 1], [1, 0, 1], None),
        (5, 3, 2, [2, 4], [1, 1], [2, 4]),
        (6, 3, 3, [1, 2, 3, 4], [0, 0, 0, 0], None),
        (6, 2, 4, [6, 5, 4, 3, 2, 1], [1, 1, 0, 1, 0, 1], None),
    ])
    def test_heralded_mixture_heralded_again(self, modes, heralds, seed, measured, outcomes, order):
        # the heralded mixture, after an interferometer, heralded again: its branches are the roots of the tree
        mixture = _heralded_mixture(modes, heralds, seed)
        tree, p = herald(mixture, measured, outcomes, order=order)
        loop, q = _loop_herald(mixture, measured, outcomes, order)
        _assert_same_branches(tree, loop)
        assert p == pytest.approx(q, rel=1e-9)

    def test_heralded_source_heralded_again(self):
        # straight from the heralding, before any interferometer: signals 1-3 hold a photon each, so they click,
        # and signal 4 is unpaired vacuum, so it stays silent
        source, _ = herald(paired_source_state(4, 3, 0.9), [5, 6, 7], [1, 1, 1])
        tree, p = herald(source, [3, 1, 4], [1, 1, 0])
        loop, q = _loop_herald(source, [3, 1, 4], [1, 1, 0])
        _assert_same_branches(tree, loop)
        assert tree.branch_count == 32 and p == pytest.approx(1.0, rel=1e-12) and q == pytest.approx(1.0, rel=1e-12)

    def test_displaced_mixture_heralded_again(self):
        # a displaced heralded mixture: its branch means enter the roots' borders and come out conditioned
        mixture = _displaced(_heralded_mixture(6, 2, 4))
        for measured, outcomes, order in (([5, 3, 1], [1, 0, 1], None),
                                          ([6, 5, 4, 3, 2, 1], [1, 1, 0, 1, 0, 1], [2, 6, 4, 1, 5, 3])):
            tree, p = herald(mixture, measured, outcomes, order=order)
            loop, q = _loop_herald(mixture, measured, outcomes, order)
            _assert_same_branches(tree, loop)
            assert p == pytest.approx(q, rel=1e-9)

    @pytest.mark.parametrize("measured, outcomes", [([3, 2, 1], [1, 0, 0]), ([3, 2, 1], [0, 1, 0]),
                                                    ([3, 2, 1], [0, 0, 1])])
    def test_vanishing_forced_outcome_raises_numerical_error(self, measured, outcomes):
        # vacuum never clicks: the forced click has probability 0 wherever it falls on the path, and the walk
        # refuses it before any later step divides by the vanished total
        with pytest.raises(NumericalError, match="vanishing probability"):
            herald(vacuum_state(3), measured, outcomes)

    def test_outcome_lost_in_roundoff_raises_numerical_error(self):
        # signal 1 holds a photon once its idler has clicked, so its no-click is impossible; roundoff reads it as
        # about 1e-16, far above MIN_EVENT_PROB, but no larger than the roundoff of the sum it came from
        source, _ = herald(paired_source_state(4, 3, 0.9), [5, 6, 7], [1, 1, 1])
        with pytest.raises(NumericalError, match="forced no-click on mode 1 has vanishing probability"):
            herald(source, [3, 1, 4], [1, 0, 0])

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="mode 3 is not available"):
            herald(vacuum_state(2), [3], [0])

    def test_corrupted_branch_of_many_rejected(self):
        mixture = _heralded_mixture(3, 2, 1)
        covs = mixture.covs.copy()
        covs[1] = -3 * np.eye(6)
        corrupted = GaussianMixture(mixture.labels, mixture.weights, covs, mixture.means, mixture.history)
        with pytest.raises(NumericalError, match="of branch 1 is not positive definite"):
            herald(corrupted, [3], [0])

    @pytest.mark.parametrize("clicks, seed", [(6, 1), (7, 2), (8, 3)])
    def test_chain_rule_agrees_with_tree(self, clicks, seed):
        # two algorithms for one pattern: the signed-mixture chain rule and the forced path of the pivot tree, on a
        # zero-mean state and on it displaced
        rng = np.random.default_rng(seed)
        state = random_state(10, rng, pure=bool(seed % 2))
        bits = [0] * 10
        for mode in rng.choice(10, clicks, replace=False):
            bits[mode] = 1
        pattern = ClickPattern(10, tuple(i + 1 for i, bit in enumerate(bits) if bit))
        for source in (state, QuadratureState(state.V, 0.5 * rng.normal(size=20))):
            assert herald(source, range(1, 11), bits)[1] == pytest.approx(chain_rule_probability(source, pattern),
                                                                          rel=1e-9)

    @settings(max_examples=40, deadline=None)
    @given(modes=st.integers(2, 5), seed=st.integers(0, 2 ** 32 - 1), data=st.data())
    def test_displaced_herald_matches_loop_property(self, modes, seed, data):
        # any displaced state, forced pattern and measurement order: the tree and the loop herald alike
        rng = np.random.default_rng(seed)
        state = random_state(modes, rng, pure=bool(seed % 2))
        source = QuadratureState(state.V, rng.normal(size=2 * modes))
        measured = data.draw(st.lists(st.integers(1, modes), min_size=1, max_size=modes, unique=True))
        outcomes = data.draw(st.lists(st.integers(0, 1), min_size=len(measured), max_size=len(measured)))
        order = data.draw(st.permutations(measured))
        loop, q = _loop_herald(source, measured, outcomes, order)
        assume(q > 1e-6)
        tree, p = herald(source, measured, outcomes, order=order)
        _assert_same_branches(tree, loop)
        assert p == pytest.approx(q, rel=1e-9)

    @pytest.mark.parametrize("pairs, r", [(1, 0.4), (2, 1.0), (3, 1.0), (3, -0.8)])
    def test_paired_source_closed_form(self, pairs, r):
        # every idler clicks iff its signal pair holds a photon pair: probability tanh(r)^(2 pairs)
        _, p = herald(paired_source_state(5, pairs, r), list(range(6, 6 + pairs)), [1] * pairs)
        assert p == pytest.approx(math.tanh(r) ** (2 * pairs), rel=1e-12)


class TestMeasurementOrderEmpirical:
    def test_two_orders_agree_with_enumeration(self, rng):
        # measuring in any order yields the same distribution: 1e5 samples
        # per order, all pairwise TV distances below 0.015
        state = random_state(3, rng)
        dist = distribution(state)
        n = 100_000
        empiricals = []
        for order in ([3, 2, 1], [1, 3, 2]):
            counts = {}
            for i in range(n):
                g = np.random.Generator(np.random.PCG64(substream_id(7, i)))
                final, _, _ = _loop_sample(GaussianMixture.from_state(state), g, order=order)
                key = tuple(sorted(final.clicked_labels))
                counts[key] = counts.get(key, 0) + 1
            emp = {k: v / n for k, v in counts.items()}
            assert dist.total_variation(emp) < 0.015
            empiricals.append(emp)
        keys = set(empiricals[0]) | set(empiricals[1])
        mutual = 0.5 * sum(abs(empiricals[0].get(k, 0) - empiricals[1].get(k, 0)) for k in keys)
        assert mutual < 0.015
