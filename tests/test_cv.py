import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats
from scipy.special import ndtr
from scipy.stats import qmc

from gbsim import (
    GaussianMixture,
    NumericalError,
    PipelineConfig,
    QuadratureState,
    backaction,
    herald,
    heterodyne,
    homodyne,
    marginal,
    outcome_density,
    sample_outcomes,
    simulate_pipeline,
    vacuum_state,
)
from gbsim.cv import (
    CDF_TOL,
    NEGATIVITY_PROBES,
    GaussianPOVM,
    OutcomeDensity,
    _conditional_components,
    _invert_mixture_cdf,
    _normal_cdf,
    _unit_probe_points,
    measure_all_cv,
    paired_source_state,
)
from gbsim.gaussian import apply_interferometer, haar_unitary, random_state
from gbsim.sampler import _substream_rng, mixture_apply_interferometer

from conftest import gauss_legendre_2d, integrate_density, tmsv


class TestPOVM:
    def test_heterodyne_identity(self):
        assert np.array_equal(heterodyne().W, np.eye(2))

    def test_homodyne_diag(self):
        W = homodyne(100.0).W
        assert W[0, 0] == pytest.approx(1e-4)
        assert W[1, 1] == pytest.approx(1e4)

    def test_invalid_rejected(self):
        with pytest.raises(ValueError):
            homodyne(-1.0)

        with pytest.raises(ValueError):
            GaussianPOVM(np.diag([1.0, -1.0]))

    @pytest.mark.parametrize("s", [0.0, math.nan, math.inf, -math.inf])
    def test_homodyne_s_must_be_finite_and_positive(self, s):
        with pytest.raises(ValueError, match="finite and positive"):
            homodyne(s)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_W_rejected(self, bad):
        with pytest.raises(ValueError, match="W must be finite"):
            GaussianPOVM(np.array([[1.0, 0.0], [0.0, bad]]))


class TestMarginal:
    def test_vacuum(self):
        single = marginal(GaussianMixture.from_state(vacuum_state(3)), 2)
        assert single.branch_count == 1
        assert np.allclose(single.covs[0], np.eye(2))

    def test_tmsv_thermal(self):
        r = 0.8
        single = marginal(GaussianMixture.from_state(tmsv(r)), 1)
        assert np.allclose(single.covs[0], math.cosh(2 * r) * np.eye(2), atol=1e-12)

    def test_post_click_two_branches(self):
        r = 1.0
        mixture, _ = herald(tmsv(r), [2], [1])
        single = marginal(mixture, 1)
        q = 1 / math.cosh(r) ** 2
        assert single.branch_count == 2
        assert single.weights[0] == pytest.approx(1 / (1 - q), rel=1e-12)
        assert single.weights[1] == pytest.approx(-q / (1 - q), rel=1e-12)


class TestOutcomeDensity:
    def test_vacuum_heterodyne_symmetric_and_normalized(self):
        density = outcome_density(marginal(GaussianMixture.from_state(vacuum_state(1)), 1), heterodyne())
        pts = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
        vals = density.pdf(pts)
        assert np.allclose(vals, vals[0], rtol=1e-12)
        total = gauss_legendre_2d(density.pdf, -12.0, 12.0)
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_vacuum_homodyne_x_variance(self):
        density = outcome_density(
            marginal(GaussianMixture.from_state(vacuum_state(1)), 1), homodyne(1e3)
        )
        # x-marginal variance of the hbar=2 vacuum is 1 (+1e-6 detector noise)
        assert density.covs[0, 0, 0] == pytest.approx(1.0, abs=1e-3)

    def test_squeezed_homodyne_x_variance(self):
        from gbsim import squeezed_state

        r, s = 0.6, 1e3
        density = outcome_density(
            marginal(GaussianMixture.from_state(squeezed_state([r])), 1), homodyne(s)
        )
        assert density.covs[0, 0, 0] == pytest.approx(math.exp(2 * r) + 1 / s ** 2, rel=1e-12)

    def test_heralded_density_normalized_nonnegative_bimodal(self):
        mixture, _ = herald(tmsv(1.0), [2], [1])
        density = outcome_density(marginal(mixture, 1), homodyne(1e3))
        assert integrate_density(density) == pytest.approx(1.0, abs=1e-9)
        # heralded one-or-more-photon state: density dips at the origin
        mid = density.pdf(np.array([[0.0, 0.0]]))[0]
        side = density.pdf(np.array([[1.6, 0.0]]))[0]
        assert side > mid

    def test_two_branch_closed_form(self):
        r = 1.0
        mixture, _ = herald(tmsv(r), [2], [1])
        density = outcome_density(marginal(mixture, 1), heterodyne())
        q = 1 / math.cosh(r) ** 2
        c = math.cosh(2 * r)
        x = np.array([[0.7, -0.4]])
        w1, w2 = 1 / (1 - q), -q / (1 - q)
        g1 = math.exp(-(0.7 ** 2 + 0.4 ** 2) / (2 * (c + 1))) / (2 * math.pi * (c + 1))
        g2 = math.exp(-(0.7 ** 2 + 0.4 ** 2) / 4) / (4 * math.pi)
        assert density.pdf(x)[0] == pytest.approx(w1 * g1 + w2 * g2, rel=1e-12)

    @pytest.mark.parametrize("povm", [heterodyne(), homodyne()], ids=["het", "hom"])
    def test_eight_branch_closed_form(self, povm):
        mixture, _ = herald(paired_source_state(3, 3, 0.9), [4, 5, 6], [1, 1, 1])
        mixture = mixture_apply_interferometer(mixture, haar_unitary(3, np.random.default_rng(5)).matrix)
        density = outcome_density(marginal(mixture, 2), povm)
        assert len(density.weights) == 8
        scale = np.sqrt([density.covs[:, 0, 0].max(), density.covs[:, 1, 1].max()])
        points = np.random.default_rng(6).normal(0.0, 1.0, (100, 2)) * scale
        expected = []
        for x, p in points:
            terms = []
            for w, cov, mean in zip(density.weights, density.covs, density.means):
                a, b, d = cov[0, 0], cov[0, 1], cov[1, 1]
                det = a * d - b * b
                dx, dy = x - mean[0], p - mean[1]
                quad = (d * dx * dx - 2 * b * dx * dy + a * dy * dy) / det
                terms.append(w * math.exp(-0.5 * quad) / (2 * math.pi * math.sqrt(det)))
            expected.append(math.fsum(terms))
        # the pdf works in place on its own temporaries: a read-only array and
        # a single 1-D [x, p] point evaluate the same and come back untouched
        frozen = points.copy()
        frozen.setflags(write=False)
        for given, rows in ((points, expected), (frozen, expected), (points[0].copy(), expected[:1])):
            before = given.copy()
            assert density.pdf(given) == pytest.approx(rows, rel=1e-12)
            assert np.array_equal(given, before)

    def test_multimode_rejected(self):
        with pytest.raises(ValueError):
            outcome_density(GaussianMixture.from_state(vacuum_state(2)), heterodyne())

    @pytest.mark.parametrize(
        "lo, hi",
        [
            ([0.0, 0.0], [1.0, 1.0]),
            ([-6.0, -6.0], [6.0, 6.0]),
            ([-13.7, 0.25], [4.1, 91.3]),
            ([-1e3, -7.5], [-2.2, 1e-3]),
        ],
    )
    def test_probe_points_match_per_density_qmc_scale(self, lo, hi):
        lo, hi = np.array(lo), np.array(hi)
        reference = qmc.scale(qmc.Halton(d=2, seed=7).random(NEGATIVITY_PROBES), lo, hi)
        unit = _unit_probe_points()
        assert np.array_equal(unit * (hi - lo) + lo, reference)
        assert unit is _unit_probe_points()
        assert not unit.flags.writeable
        # qmc's layout: each column contiguous, so pdf reads x and p without a copy
        assert unit.flags.f_contiguous

    def test_pdf_independent_of_point_layout(self):
        mixture, _ = herald(paired_source_state(3, 3, 0.9), [4, 5, 6], [1, 1, 1])
        density = outcome_density(marginal(mixture, 2), heterodyne())
        columns = np.asfortranarray(_unit_probe_points() * 12.0 - 6.0)
        rows = np.ascontiguousarray(columns)
        assert rows.flags.c_contiguous and not rows.flags.f_contiguous
        assert np.array_equal(density.pdf(rows), density.pdf(columns))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_parameters_rejected(self, bad):
        # the mixture and the density share one array check
        arrays = {"weights": [1.0], "covs": [np.eye(2)], "means": [[0.0, 0.0]]}
        for field, value in (("weights", [bad]), ("covs", [[[bad, 0.0], [0.0, 1.0]]]), ("means", [[bad, 0.0]])):
            with pytest.raises(ValueError, match="finite"):
                OutcomeDensity(**{**arrays, field: value}, povm=heterodyne())
            with pytest.raises(ValueError, match="finite"):
                GaussianMixture(labels=(1,), **{**arrays, field: value})

    def test_cancelling_weights_take_the_mixture_rule(self):
        # fsum is off by 2^-23 = 1.2e-7, inside 1e-9 * sum|w| = 2.0; an unscaled 1e-9 rejected it
        mixture = GaussianMixture(
            labels=(1,),
            weights=[1e9, 1 - 1e9 + 2 ** -23],
            covs=[np.eye(2), np.eye(2)],
            means=np.zeros((2, 2)),
            history=((2, 1),),
        )
        density = outcome_density(mixture, heterodyne())
        assert np.array_equal(density.weights, mixture.weights)

    def test_negative_signed_density_rejected(self):
        # 2 N(0, I) - N(0, I / 4) has pdf -1/pi at its mean
        with pytest.raises(NumericalError, match="not a valid density"):
            OutcomeDensity(
                weights=[2.0, -1.0],
                covs=[np.eye(2), 0.25 * np.eye(2)],
                means=np.zeros((2, 2)),
                povm=heterodyne(),
            )

    def test_negative_homodyne_shaped_density_rejected(self):
        # the density above stretched 1e3-fold along p, as a homodyne(1e3)
        # outcome density is: pdf -3.2e-4 at its mean, inside |x| < 1, so a
        # probe box sized by the p spread on both axes misses it
        with pytest.raises(NumericalError, match="not a valid density"):
            OutcomeDensity(
                weights=[2.0, -1.0],
                covs=[np.diag([1.0, 1e6]), np.diag([0.25, 0.25e6])],
                means=np.zeros((2, 2)),
                povm=homodyne(),
            )


def _cdf_residual(u, weights, means, sigmas):
    """|CDF(x) - u| at the inverter's solution x, by the closed-form CDF."""
    x = _invert_mixture_cdf(u, weights, means, sigmas, CDF_TOL)
    return np.abs(np.sum(ndtr((x[..., None] - means) / sigmas) * weights, axis=-1) - u)


class TestNormalCdf:
    def test_matches_scipy_ndtr(self):
        # one float64 eps absolute everywhere; relative, 4 (1 + z^2) eps where ndtr is a normal float: a
        # relative eps in z moves Phi(z) by about z^2 eps relative in the lower tail. Below z = -37.7 ndtr
        # flushes to 0 where erfc still gives subnormals, within the absolute bound.
        eps = np.finfo(float).eps
        z = np.linspace(-38.0, 9.0, 47_001)
        ours, ref = _normal_cdf(z), ndtr(z)
        err = np.abs(ours - ref)
        assert err.max() <= eps
        normal = ref >= np.finfo(float).tiny
        assert normal.sum() > 45_000
        assert (err[normal] <= 4 * (1 + z[normal] ** 2) * eps * ref[normal]).all()

    def test_special_values(self):
        z = np.array([[-np.inf, np.inf], [np.nan, 0.0], [-0.0, 1.0]])
        ours = _normal_cdf(z)
        assert ours.shape == z.shape and ours.dtype == float
        np.testing.assert_array_equal(ours, ndtr(z))


class TestInverseCdf:
    QUANTILES = np.array([0.0, 1e-300, 1e-13, 0.25, 0.5, 0.75, 1 - 1e-13, np.nextafter(1.0, 0.0)])

    @pytest.mark.parametrize("r", [1.0, 2.0, 3.0])
    def test_heralded_single_photon_quantiles(self, r):
        # the x marginal dips towards zero at its median
        mixture, _ = herald(paired_source_state(1, 1, r), [2], [1])
        density = outcome_density(marginal(mixture, 1), homodyne())
        sigmas = np.sqrt(density.covs[:, 0, 0])
        assert _cdf_residual(self.QUANTILES, density.weights, density.means[:, 0], sigmas).max() <= CDF_TOL

    @settings(max_examples=40, deadline=None)
    @given(
        heralds=st.integers(2, 3),
        extra_modes=st.integers(0, 2),
        r=st.floats(0.3, 1.5),
        seed=st.integers(0, 2 ** 32 - 1),
        het=st.booleans(),
        u=st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=1, max_size=8),
    )
    def test_random_heralded_mixture_marginals(self, heralds, extra_modes, r, seed, het, u):
        modes = heralds + extra_modes
        idlers = list(range(modes + 1, modes + heralds + 1))
        mixture, _ = herald(paired_source_state(modes, heralds, r), idlers, [1] * heralds)
        mixture = mixture_apply_interferometer(mixture, haar_unitary(modes, np.random.default_rng(seed)).matrix)
        density = outcome_density(marginal(mixture, 1), heterodyne() if het else homodyne())
        u = np.array(u)
        for axis in (0, 1):
            sigmas = np.sqrt(density.covs[:, axis, axis])
            assert _cdf_residual(u, density.weights, density.means[:, axis], sigmas).max() <= CDF_TOL

    @pytest.mark.parametrize("povm", [heterodyne(), homodyne()], ids=["het", "hom"])
    def test_conditional_solve_with_per_row_weights(self, povm):
        # the p solve gets one row of conditional weights per sampled x
        mixture, _ = herald(paired_source_state(3, 3, 0.9), [4, 5, 6], [1, 1, 1])
        mixture = mixture_apply_interferometer(mixture, haar_unitary(3, np.random.default_rng(5)).matrix)
        density = outcome_density(marginal(mixture, 2), povm)
        assert len(density.weights) == 8
        xs, ps = sample_outcomes(density, 64, np.random.default_rng(12)).T
        u = np.random.default_rng(12).random((64, 2))
        sig_x = np.sqrt(density.covs[:, 0, 0])
        x_cdf = np.sum(ndtr((xs[:, None] - density.means[:, 0]) / sig_x) * density.weights, axis=-1)
        assert np.abs(x_cdf - u[:, 0]).max() <= CDF_TOL
        w, mu, sig = _conditional_components(density.weights, density.means, density.covs, xs)
        assert w.shape == (64, 8) and np.ptp(w, axis=0).max() > 0
        p_cdf = np.sum(ndtr((ps[:, None] - mu) / sig) * w, axis=-1)
        assert np.abs(p_cdf - u[:, 1]).max() <= CDF_TOL

    def test_quantiles_that_stalled_from_the_midpoint(self):
        # started at the bracket midpoint, these rows of the r = 1 x marginal took in-bracket Newton steps that
        # barely shrank the bracket and ran out of iterations; the moment-matched start converges
        mixture, _ = herald(paired_source_state(1, 1, 1.0), [2], [1])
        density = outcome_density(marginal(mixture, 1), homodyne())
        u = np.array([0.2554648989342906, 0.25545778737046654, 0.7445302949273511, 0.7445335801655323])
        sigmas = np.sqrt(density.covs[:, 0, 0])
        assert _cdf_residual(u, density.weights, density.means[:, 0], sigmas).max() <= CDF_TOL

    def test_start_outside_bracket_takes_midpoint(self):
        # two far-apart modes: the moment-matched normal is about 100 wide, so its extreme quantiles lie beyond
        # the components' +-12 sigma bracket and those rows start from its midpoint
        weights, means, sigmas = np.array([0.5, 0.5]), np.array([-100.0, 100.0]), np.array([1.0, 1.0])
        assert _cdf_residual(self.QUANTILES, weights, means, sigmas).max() <= CDF_TOL

    def test_batch_rows_equal_solo_solves(self):
        # a converged row stops moving, so whatever else is in the batch each row returns its solo solve's bits;
        # the rows mix extreme quantiles (bracket widening) with ordinary ones, shared and per-row weights
        rng = np.random.default_rng(25)
        for heralds, het in ((1, False), (2, True), (3, False), (3, True)):
            mixture, _ = herald(paired_source_state(4, heralds, 1.2), list(range(5, 5 + heralds)), [1] * heralds)
            mixture = mixture_apply_interferometer(mixture, haar_unitary(4, rng).matrix)
            densities = [outcome_density(marginal(mixture, mode), heterodyne() if het else homodyne())
                         for mode in (1, 2, 3, 4)]
            u = np.concatenate([self.QUANTILES, rng.random(8)])
            rows = [densities[i % 4] for i in range(len(u))]
            weights = np.array([d.weights for d in rows])
            means = np.array([d.means[:, 0] for d in rows])
            sigmas = np.sqrt([d.covs[:, 0, 0] for d in rows])
            batch = _invert_mixture_cdf(u, weights, means, sigmas, CDF_TOL)
            for i in range(len(u)):
                alone = _invert_mixture_cdf(u[i:i + 1], weights[i], means[i], sigmas[i], CDF_TOL)
                assert batch[i:i + 1].tobytes() == alone.tobytes()
            shared = _invert_mixture_cdf(u, weights[0], means[0], sigmas[0], CDF_TOL)
            for i in range(len(u)):
                assert shared[i:i + 1].tobytes() == _invert_mixture_cdf(u[i:i + 1], weights[0], means[0], sigmas[0],
                                                                      CDF_TOL).tobytes()


class TestSampling:
    def test_vacuum_heterodyne_moments(self):
        density = outcome_density(marginal(GaussianMixture.from_state(vacuum_state(1)), 1), heterodyne())
        pts = sample_outcomes(density, 50_000, np.random.default_rng(3))
        stderr_mean = math.sqrt(2.0 / len(pts))
        assert np.abs(pts.mean(axis=0)).max() < 3 * stderr_mean
        var = pts.var(axis=0)
        stderr_var = 2.0 * math.sqrt(2.0 / len(pts))
        assert np.abs(var - 2.0).max() < 3 * stderr_var

    def test_symmetry_zero_skew(self):
        density = outcome_density(marginal(GaussianMixture.from_state(tmsv(0.8)), 1), heterodyne())
        pts = sample_outcomes(density, 40_000, np.random.default_rng(8))
        skew = stats.skew(pts[:, 0])
        assert abs(skew) < 3 * math.sqrt(6.0 / len(pts))

    def test_ks_against_closed_form(self):
        density = outcome_density(marginal(GaussianMixture.from_state(vacuum_state(1)), 1), heterodyne())
        pts = sample_outcomes(density, 20_000, np.random.default_rng(21))
        # closed-form x-marginal: normal with variance 2
        result = stats.kstest(pts[:, 0], lambda x: ndtr(x / math.sqrt(2.0)))
        assert result.pvalue > 0.01

    def test_single_outcome_deterministic(self):
        density = outcome_density(marginal(GaussianMixture.from_state(vacuum_state(1)), 1), heterodyne())
        a = sample_outcomes(density, 1, np.random.default_rng(5))[0]
        b = sample_outcomes(density, 1, np.random.default_rng(5))[0]
        assert np.array_equal(a, b)

    def test_inverse_cdf_tolerance(self):
        density = outcome_density(marginal(GaussianMixture.from_state(vacuum_state(1)), 1), heterodyne())
        rng = np.random.default_rng(11)
        u = rng.random()
        from gbsim.cv import _invert_mixture_cdf

        x = _invert_mixture_cdf(
            np.array([u]), density.weights, density.means[:, 0], np.sqrt(density.covs[:, 0, 0]), 1e-12
        )
        assert abs(float(ndtr(x[0] / math.sqrt(2.0))) - u) < 1e-11


class TestBackaction:
    def test_vacuum_projection_is_heterodyne_at_zero(self):
        # a threshold no-click is the heterodyne (W = 1) outcome 0, up to 4 pi
        rng = np.random.default_rng(3)
        base = random_state(6, rng, pure=False)
        state = QuadratureState(base.V, rng.normal(0.0, 0.7, 12))
        mixture, _ = herald(state, [6, 5], [1, 1])
        assert mixture.branch_count == 4
        projected, q = herald(mixture, [2], [0])
        density = outcome_density(marginal(mixture, 2), heterodyne())
        assert q == pytest.approx(4 * math.pi * density.pdf([0.0, 0.0])[0], rel=1e-12)
        measured = backaction(mixture, 2, heterodyne(), [0.0, 0.0])
        assert measured.labels == projected.labels
        for name in ("weights", "covs", "means"):
            np.testing.assert_allclose(getattr(measured, name), getattr(projected, name), rtol=1e-12, atol=0)

    def test_vacuum_product_state(self):
        mixture = GaussianMixture.from_state(vacuum_state(3))
        after = backaction(mixture, 3, heterodyne(), np.array([2.0, -1.0]))
        assert np.allclose(after.covs[0], np.eye(4))
        assert np.allclose(after.means[0], 0.0)

    def test_tmsv_heterodyne_closed_form(self):
        r = 0.9
        mixture = GaussianMixture.from_state(tmsv(r))
        outcome = np.array([1.3, 0.4])
        after = backaction(mixture, 2, heterodyne(), outcome)
        gain = math.sinh(2 * r) / (math.cosh(2 * r) + 1)  # tanh(r)
        assert gain == pytest.approx(math.tanh(r), rel=1e-12)
        assert after.means[0] == pytest.approx([gain * 1.3, -gain * 0.4], rel=1e-10)
        expected_var = math.cosh(2 * r) - math.sinh(2 * r) ** 2 / (math.cosh(2 * r) + 1)
        assert np.allclose(after.covs[0], expected_var * np.eye(2), atol=1e-12)

    def test_tmsv_homodyne_epr_slope(self):
        r = 0.7
        mixture = GaussianMixture.from_state(tmsv(r))
        outcome = np.array([0.9, 0.0])
        after = backaction(mixture, 2, homodyne(1e4), outcome)
        # sharp x measurement: conditional mean approaches tanh(2r) * outcome
        assert after.means[0][0] == pytest.approx(math.tanh(2 * r) * 0.9, rel=1e-6)

    def test_recovers_unconditional_marginal(self):
        # integrating the conditioned mode-1 x-density over mode-2 outcomes
        # recovers the unconditional thermal x-marginal
        r = 0.6
        mixture = GaussianMixture.from_state(tmsv(r))
        density2 = outcome_density(marginal(mixture, 2), heterodyne())
        # TMSV heterodyne outcomes factorize; the conditioned x-density does
        # not depend on the p outcome, so the p direction integrates out.
        base = backaction(mixture, 2, heterodyne(), np.array([0.3, 0.0]))
        for oy in (-1.0, 2.0):
            other = backaction(mixture, 2, heterodyne(), np.array([0.3, oy]))
            assert np.allclose(other.covs, base.covs)
            assert other.means[0][0] == pytest.approx(base.means[0][0], abs=1e-14)
        nodes, weights = np.polynomial.legendre.leggauss(240)
        half = 16.0
        nodes, weights = half * nodes, half * weights
        sig_p2 = density2.covs[0, 1, 1]
        xs = np.linspace(-6, 6, 41)
        recovered = np.zeros_like(xs)
        for ox, w in zip(nodes, weights):
            marg2 = density2.pdf(np.array([[ox, 0.0]]))[0] * math.sqrt(2 * math.pi * sig_p2)
            after = backaction(mixture, 2, heterodyne(), np.array([ox, 0.0]))
            sig = after.covs[0, 0, 0] + 1.0  # heterodyne noise on mode 1
            mu = after.means[0, 0]
            recovered += w * marg2 * np.exp(-0.5 * (xs - mu) ** 2 / sig) / math.sqrt(2 * math.pi * sig)
        direct = outcome_density(marginal(mixture, 1), heterodyne())
        sig = direct.covs[0, 0, 0]
        target = np.exp(-0.5 * xs ** 2 / sig) / math.sqrt(2 * math.pi * sig)
        l1 = np.trapezoid(np.abs(recovered - target), xs)
        assert l1 < 1e-6

    @pytest.mark.parametrize("case", range(20))
    def test_matches_dense_schur_complement(self, case):
        # random displaced heralded mixtures, 2-4 signal modes and 2-4 branches, against one np.linalg.solve per branch
        rng = np.random.default_rng(100 + case)
        modes, heralds = int(rng.integers(2, 5)), int(rng.integers(1, 3))
        base = random_state(modes + heralds, rng, pure=bool(case % 2))
        state = QuadratureState(base.V, rng.normal(0.0, 0.7, 2 * (modes + heralds)))
        mixture, _ = herald(state, list(range(modes + 1, modes + heralds + 1)), [1] * heralds)
        if case % 5 == 4:  # three branches: drop one and renormalise
            mixture = GaussianMixture(mixture.labels, mixture.weights[:3] / mixture.weights[:3].sum(),
                                      mixture.covs[:3], mixture.means[:3], mixture.history)
        A = rng.normal(size=(2, 2))
        povm = (heterodyne(), homodyne(1e3), GaussianPOVM(A @ A.T + 0.1 * np.eye(2)))[case % 3]
        mode, outcome = int(rng.integers(1, modes + 1)), rng.normal(0.0, 1.5, 2)
        pos = mode - 1
        b = np.array([pos, pos + modes])
        a = np.array([i for i in range(2 * modes) if i not in b])
        weights, covs, means = [], [], []
        for w, V, r in zip(mixture.weights, mixture.covs, mixture.means):
            pivot, cross, d = V[np.ix_(b, b)] + povm.W, V[np.ix_(a, b)], outcome - r[b]
            weights.append(w * math.exp(-0.5 * d @ np.linalg.solve(pivot, d)) / math.sqrt(np.linalg.det(pivot)))
            covs.append(V[np.ix_(a, a)] - cross @ np.linalg.solve(pivot, cross.T))
            means.append(r[a] + cross @ np.linalg.solve(pivot, d))
        after = backaction(mixture, mode, povm, outcome)
        assert after.labels == tuple(label for label in mixture.labels if label != mode)
        # signed weights cancel: their normaliser's relative roundoff grows with sum |w|, each weight's with max |w|
        spread = np.abs(after.weights).max() * np.abs(after.weights).sum()
        np.testing.assert_allclose(after.weights, np.array(weights) / math.fsum(weights), rtol=0,
                                   atol=1e-12 + 1e-15 * spread)
        np.testing.assert_allclose(after.covs, covs, rtol=0, atol=1e-12)
        np.testing.assert_allclose(after.means, means, rtol=0, atol=1e-12)

    def test_impossible_outcome_rejected(self):
        mixture = GaussianMixture.from_state(vacuum_state(2))
        with pytest.raises(NumericalError, match="vanishing density"):
            backaction(mixture, 1, heterodyne(), np.array([500.0, 0.0]))

    def test_indefinite_branch_rejected(self):
        # V_B + W = -2 I has det 4 > 0: the pivot's leading-entry test rejects it
        mixture = GaussianMixture(labels=(1, 2), weights=[1.0], covs=[-3 * np.eye(4)], means=[np.zeros(4)])
        with pytest.raises(NumericalError, match="V_B \\+ W is not positive definite"):
            backaction(mixture, 2, heterodyne(), np.zeros(2))


class TestHomodyneConvergence:
    def test_variance_error_scales_inverse_square(self):
        from gbsim import squeezed_state

        r = 0.5
        svals = np.array([10.0, 30.0, 100.0, 300.0])
        errors = []
        for s in svals:
            density = outcome_density(
                marginal(GaussianMixture.from_state(squeezed_state([r])), 1), homodyne(s)
            )
            errors.append(density.covs[0, 0, 0] - math.exp(2 * r))
        slope = np.polyfit(np.log(svals), np.log(errors), 1)[0]
        assert abs(slope + 2.0) < 0.4  # within 20% of the 1/s^2 law


class TestMarginalThenMeasure:
    def test_moments_match_full_state(self):
        r = 0.8
        mixture = GaussianMixture.from_state(tmsv(r))
        density = outcome_density(marginal(mixture, 1), heterodyne())
        pts = sample_outcomes(density, 50_000, np.random.default_rng(14))
        expect_var = math.cosh(2 * r) + 1.0
        stderr = expect_var * math.sqrt(2.0 / len(pts))
        assert abs(pts[:, 0].var() - expect_var) < 3 * stderr
        assert abs(pts[:, 1].var() - expect_var) < 3 * stderr


class TestMixtureInterferometer:
    def test_branches_match_state_route(self):
        # three threshold heralds give 8 branches; random means make the mean map visible
        mixture, _ = herald(paired_source_state(4, 3, 0.9), [5, 6, 7], [1, 1, 1])
        means = np.random.default_rng(9).normal(0.0, 1.0, mixture.means.shape)
        mixture = GaussianMixture(
            labels=mixture.labels, weights=mixture.weights, covs=mixture.covs, means=means, history=mixture.history
        )
        U = haar_unitary(4, np.random.default_rng(10)).matrix
        evolved = mixture_apply_interferometer(mixture, U)
        assert evolved.branch_count == 8
        for k in range(8):
            state = apply_interferometer(QuadratureState(mixture.covs[k], mixture.means[k]), U)
            assert np.abs(evolved.covs[k] - state.V).max() <= 1e-13 * np.abs(state.V).max()
            assert np.abs(evolved.means[k] - state.r).max() <= 1e-13 * np.abs(state.r).max()


class TestPipelines:
    def test_pipeline_a_vacuum(self):
        config = PipelineConfig(pipeline="A", modes=3, shots=20, seed=1)
        records, meta = simulate_pipeline(config)
        assert all(rec["pattern"] == [] for rec in records)

    def test_pipeline_b_heralded_threshold(self):
        config = PipelineConfig(pipeline="B", modes=2, shots=25, seed=2, herald_count=1)
        records, meta = simulate_pipeline(config)
        assert meta["branches"] == 2
        assert 0 < meta["herald_probability"] < 1
        for rec in records:
            assert set(rec["pattern"]) <= {1, 2}

    def test_pipeline_c_zero_heralds_gaussian_stats(self):
        config = PipelineConfig(pipeline="C", modes=1, shots=400, seed=3, herald_count=0)
        records, meta = simulate_pipeline(config)
        xs = np.array([rec["cv"][0]["outcome"][0] for rec in records])
        # vacuum homodyne x: variance 1 + 1e-6
        assert abs(xs.var() - 1.0) < 5 * math.sqrt(2.0 / len(xs))

    def test_pipeline_d_heterodyne_records(self):
        config = PipelineConfig(pipeline="D", modes=2, shots=10, seed=4, herald_count=1)
        records, meta = simulate_pipeline(config)
        for rec in records:
            assert [c["povm"] for c in rec["cv"]] == ["het", "het"]

    def test_pipeline_a_squeezing_needs_one_value_per_mode(self):
        with pytest.raises(ValueError, match="squeezing"):
            PipelineConfig(pipeline="A", modes=3, shots=1, seed=1, squeezing=(0.5, 0.5))

    @pytest.mark.parametrize("field", ["homodyne_s", "cdf_tolerance"])
    @pytest.mark.parametrize("value", [0.0, -1.0, math.nan, math.inf])
    def test_config_rejects_bad_measurement_parameter(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be finite and positive"):
            PipelineConfig(pipeline="C", modes=2, shots=1, seed=1, **{field: value})

    @pytest.mark.parametrize("count", [-1, 3])
    def test_config_rejects_herald_count_outside_modes(self, count):
        with pytest.raises(ValueError, match="herald_count"):
            PipelineConfig(pipeline="B", modes=2, shots=1, seed=1, herald_count=count)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_config_rejects_non_finite_herald_squeezing(self, value):
        with pytest.raises(ValueError, match="herald_squeezing must be finite"):
            PipelineConfig(pipeline="B", modes=2, shots=1, seed=1, herald_count=1, herald_squeezing=value)

    def test_config_accepts_negative_herald_squeezing(self):
        config = PipelineConfig(pipeline="B", modes=2, shots=1, seed=1, herald_count=1, herald_squeezing=-0.8)
        _, meta = simulate_pipeline(config)
        assert 0 < meta["herald_probability"] < 1

    def test_pipeline_determinism(self):
        config = PipelineConfig(pipeline="B", modes=2, shots=10, seed=11, herald_count=1)
        a, _ = simulate_pipeline(config)
        b, _ = simulate_pipeline(config)
        assert a == b

    @pytest.mark.parametrize("povm", [heterodyne(), homodyne()], ids=["het", "hom"])
    def test_lockstep_shots_equal_solo_runs(self, povm):
        # the shots share one inversion per coordinate and mode; each shot's records are those of its solo run
        mixture, _ = herald(paired_source_state(5, 3, 1.0), [6, 7, 8], [1, 1, 1])
        mixture = mixture_apply_interferometer(mixture, haar_unitary(5, np.random.default_rng(8)).matrix)
        shots = measure_all_cv(mixture, povm, [_substream_rng(19, i) for i in range(9)])
        for i, records in enumerate(shots):
            [alone] = measure_all_cv(mixture, povm, [_substream_rng(19, i)])
            assert [np.array(r["outcome"]).tobytes() for r in records] == [
                np.array(r["outcome"]).tobytes() for r in alone]
            assert records == alone

    def test_measure_all_cv_runs_out_modes(self):
        mixture, _ = herald(tmsv(0.8), [2], [1])
        [records] = measure_all_cv(mixture, heterodyne(), [np.random.default_rng(0)])
        assert len(records) == 1
        assert records[0]["mode"] == 1
