"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints a single PASS line (with the measured residual) once its
assertions hold, so `pytest -s tests/test_acceptance.py` gives the
one-line-per-criterion report; pytest itself enforces the pass/fail.
"""

import json
import math
import time

import numpy as np
import pytest
from scipy import stats
from scipy.special import ndtr

import gbsim.hafnian as hafnian_mod
from gbsim import (
    GaussianMixture,
    chain_rule_probability,
    collision_probability,
    distribution,
    hafnian_from_torontonian,
    hafnian_naive,
    hafnian_powerset,
    heterodyne,
    homodyne,
    herald,
    husimi_covariance,
    kernel_matrix,
    marginal,
    outcome_density,
    photon_moments,
    sample_batch,
    sample_outcomes,
    squeezed_state,
    threshold_prob,
    threshold_prob_oracle,
    tor_as_hafnian_sum,
    torontonian,
    backaction,
)
from gbsim.bench import bench_sampler, bench_torontonian
from gbsim.cli import main
from gbsim.gaussian import block_swap, random_state, reduce_matrix
from gbsim.probabilities import haar_collision_experiment, state_kernel
from gbsim.serialize import save_state

from conftest import integrate_density, tmsv


def report(number, name, detail):
    print(f"ACCEPTANCE {number:>2} {name}: PASS ({detail})")


class TestAcceptance:
    def test_01_closed_form_click_probability(self):
        start = time.perf_counter()
        r = 1.0
        state = squeezed_state([r])
        expect = 1 - 1 / math.cosh(r)
        exact = threshold_prob(state, (1,))
        oracle = threshold_prob_oracle(state, (1,))
        assert abs(exact - expect) < 1e-10
        assert abs(oracle - expect) < 1e-10
        n = 100_000
        records = sample_batch(state, n, seed=20240809)
        clicks = sum(1 for rec in records if rec.pattern.clicked == (1,))
        sigma = math.sqrt(expect * (1 - expect) / n)
        assert abs(clicks / n - expect) < 3 * sigma
        elapsed = time.perf_counter() - start
        assert elapsed < 60
        report(1, "closed-form click probability",
               f"p={expect:.7f}, |d_exact|={abs(exact - expect):.1e}, "
               f"|d_emp|={abs(clicks / n - expect):.2e} < 3s={3 * sigma:.2e}, {elapsed:.0f}s")

    def test_02_torontonian_sign_anchor(self):
        t = math.tanh(1.0)
        value = torontonian(np.array([[0, t], [t, 0]], dtype=complex)).value
        expect = math.cosh(1.0) - 1.0
        assert abs(value - expect) < 1e-12
        report(2, "Torontonian sign anchor", f"|Tor - (cosh 1 - 1)| = {abs(value - expect):.2e}")

    def test_03_oracle_equivalence(self):
        start = time.perf_counter()
        rng = np.random.default_rng(31)
        worst = 0.0
        for _ in range(100):
            modes = int(rng.integers(1, 7))
            state = random_state(modes, rng)
            for mask in range(1 << modes):
                clicked = tuple(i + 1 for i in range(modes) if mask >> i & 1)
                gap = abs(threshold_prob(state, clicked) - threshold_prob_oracle(state, clicked))
                worst = max(worst, gap)
        assert worst < 1e-10
        elapsed = time.perf_counter() - start
        assert elapsed < 600
        report(3, "vacuum-overlap oracle equivalence",
               f"100 states, max |d| = {worst:.2e}, {elapsed:.0f}s")

    def test_04_normalization_eight_modes(self):
        rng = np.random.default_rng(17)
        worst = 0.0
        for _ in range(50):
            state = random_state(8, rng, max_squeezing=0.6)
            dist = distribution(state)
            worst = max(worst, abs(dist.normalization_defect))
        assert worst < 1e-9
        report(4, "distribution normalization", f"50 states at l=8, max defect = {worst:.2e}")

    def test_05_hafnian_cross_validation(self, monkeypatch):
        rng = np.random.default_rng(5)
        worst = 0.0
        for dim in (2, 4, 6, 8, 10):
            for _ in range(200):
                A = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
                A = A + A.T
                ref = hafnian_naive(A)
                err = abs(hafnian_powerset(A) - ref) / max(abs(ref), 1e-12)
                worst = max(worst, err)
        assert worst < 1e-8
        # mutation: corrupting the (A X) arrangement must break diagonal irrelevance
        A = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        A = A + A.T
        B = A + np.diag(np.full(4, 2.0 + 0j))
        clean_gap = abs(hafnian_powerset(B) - hafnian_powerset(A))
        monkeypatch.setattr(hafnian_mod, "_WRONG_REDUCTION", True)
        corrupt_gap = abs(hafnian_powerset(B) - hafnian_powerset(A))
        monkeypatch.setattr(hafnian_mod, "_WRONG_REDUCTION", False)
        assert clean_gap < 1e-10
        assert corrupt_gap > 1e-6
        report(5, "Hafnian cross-validation",
               f"1000 matrices, max rel err = {worst:.2e}; mutation gap {corrupt_gap:.2e}")

    def test_06_series_bridge(self):
        # the eta^l Taylor coefficient of Tor(eta O) equals Haf(XO), here by
        # perfect matchings; mixed states keep odd-mode values away from the
        # parity zero so the relative comparison is meaningful
        rng = np.random.default_rng(6)
        worst = 0.0
        for modes in (1, 2, 3, 4, 5):
            for _ in range(4):
                state = random_state(modes, rng, max_squeezing=0.6, pure=modes % 2 == 0)
                kernel = kernel_matrix(husimi_covariance(state))
                a = hafnian_from_torontonian(kernel)
                b = hafnian_naive(block_swap(modes) @ kernel.matrix)
                worst = max(worst, abs(a - b) / (abs(b) + 1e-5))
        assert worst < 1e-7
        report(6, "Torontonian-Hafnian series bridge", f"modes 1..5, max rel err = {worst:.2e}")

    def test_07_hafnian_sum_convergence(self):
        start = time.perf_counter()
        rng = np.random.default_rng(7)
        # squeezing capped so the 13+ photon mass sits below the 1e-6 target
        from gbsim import apply_interferometer, haar_unitary

        state = apply_interferometer(squeezed_state([0.3, 0.3, 0.3]), haar_unitary(3, rng))
        _, kernel, _ = state_kernel(state)
        worst = 0.0
        for clicked in ((2,), (1, 3), (1, 2, 3)):
            result = tor_as_hafnian_sum(state, clicked, photon_cutoff=12)
            sums = [s for _, s in result.partial_sums]
            assert all(b >= a - 1e-12 for a, b in zip(sums, sums[1:]))
            mult = [1 if i + 1 in clicked else 0 for i in range(3)]
            target = torontonian(reduce_matrix(kernel.matrix, mult)).value
            assert sums[-1] <= target + 1e-10
            gap = abs(sums[-1] - target)
            assert gap < 1e-6
            worst = max(worst, gap)
        elapsed = time.perf_counter() - start
        report(7, "PNR expansion of the Torontonian",
               f"|S| <= 3, cutoff 12, max gap = {worst:.2e}, {elapsed:.0f}s")

    def test_08_l1_equals_collision_probability(self):
        rng = np.random.default_rng(8)
        details = []
        for modes in (2, 3, 4):
            state = random_state(modes, rng, max_squeezing=0.5)
            rep = collision_probability(state, photon_cutoff=8)
            gap = abs(rep.l1_patternwise - rep.epsilon)
            assert gap <= rep.residual_bound
            details.append(f"l={modes}: |d|={gap:.1e} <= {rep.residual_bound:.1e}")
        report(8, "L1 distance equals collision probability", "; ".join(details))

    def test_09_haar_collision_bound(self):
        start = time.perf_counter()
        rng = np.random.default_rng(9)
        result = haar_collision_experiment(6, [0.3, 0.3, 0.3, 0.0, 0.0, 0.0], 50, rng)
        # one-sided 95% confidence: mean + t(0.95, 49) * SE below the bound
        tval = stats.t.ppf(0.95, result.trials - 1)
        upper = result.mean_epsilon + tval * result.stderr
        assert upper < result.bound
        elapsed = time.perf_counter() - start
        assert elapsed < 1200
        report(9, "Haar-averaged collision bound",
               f"mean eps = {result.mean_epsilon:.4f} (95% upper {upper:.4f}) "
               f"< bound {result.bound:.4f}, {elapsed:.0f}s")

    def test_10_sampler_exactness(self):
        rng = np.random.default_rng(10)
        state = random_state(3, rng)
        dist = distribution(state)
        # chain-rule path products
        worst_path = 0.0
        for pattern, p in dist.items_sorted():
            worst_path = max(worst_path, abs(chain_rule_probability(state, pattern) - p))
        assert worst_path < 1e-9
        # branch doubling
        mixture, _ = herald(state, [3, 2, 1], [1, 1, 1])
        assert mixture.branch_count == 8
        recs = sample_batch(state, 100_000, seed=1010)
        counts = {}
        for rec in recs:
            counts[rec.pattern.clicked] = counts.get(rec.pattern.clicked, 0) + 1
            assert rec.branch_counts[-1] == 2 ** rec.clicks
        emp = {k: v / len(recs) for k, v in counts.items()}
        tv = dist.total_variation(emp)
        assert tv < 0.01
        report(10, "sampler exactness",
               f"TV = {tv:.4f} over 1e5 samples; chain-rule |d| = {worst_path:.1e}; branches 2^N")

    def test_11_scaling_laws(self):
        start = time.perf_counter()
        tor = bench_torontonian(range(12, 21), seed=11, repeats=5)
        assert 1.8 <= tor.doubling_factor <= 2.3
        samp = bench_sampler(range(6, 15), seed=11, repeats=5)
        assert 1.7 <= samp.doubling_factor <= 2.4
        elapsed = time.perf_counter() - start
        assert elapsed < 1800
        report(11, "scaling laws",
               f"Tor doubling {tor.doubling_factor:.2f} in [1.8, 2.3]; "
               f"sampler doubling {samp.doubling_factor:.2f} in [1.7, 2.4]; {elapsed:.0f}s")

    def test_12_cv_measurements(self):
        # (a) heterodyne on vacuum: KS against the closed-form marginal CDF
        from gbsim import vacuum_state

        density = outcome_density(marginal(GaussianMixture.from_state(vacuum_state(1)), 1), heterodyne())
        pts = sample_outcomes(density, 100_000, np.random.default_rng(12))
        ks = stats.kstest(pts[:, 0], lambda x: ndtr(x / math.sqrt(2.0)))
        assert ks.pvalue > 0.01
        # (b) heralded single photon + homodyne: normalized, nonnegative density
        mixture, _ = herald(tmsv(1.0), [2], [1])
        her_density = outcome_density(marginal(mixture, 1), homodyne(1e3))
        total = integrate_density(her_density)
        assert total == pytest.approx(1.0, abs=1e-9)  # negativity probed at construction
        # (c) TMSV homodyne conditional-mean slope = tanh(2r) within 3 sigma
        r = 0.6
        slope_expect = math.tanh(2 * r)
        rng = np.random.default_rng(1212)
        base = GaussianMixture.from_state(tmsv(r))
        d2 = outcome_density(marginal(base, 2), homodyne(1e3))
        n = 4000
        outs2 = sample_outcomes(d2, n, rng)
        x1 = np.empty(n)
        for i in range(n):
            after = backaction(base, 2, homodyne(1e3), outs2[i])
            d1 = outcome_density(marginal(after, 1), homodyne(1e3))
            x1[i] = sample_outcomes(d1, 1, rng)[0, 0]
        fit, cov = np.polyfit(outs2[:, 0], x1, 1, cov=True)
        slope, slope_err = fit[0], math.sqrt(cov[0, 0])
        assert abs(slope - slope_expect) < 3 * slope_err
        report(12, "CV measurements",
               f"KS p = {ks.pvalue:.3f}; heralded density mass = {total:.10f}; "
               f"slope {slope:.4f} = tanh(2r) {slope_expect:.4f} +- {3 * slope_err:.4f}")

    def test_13_determinism(self, tmp_path):
        state_path = tmp_path / "state.json"
        save_state(tmsv(1.0), state_path)
        outputs = {}
        for label in ("run1", "run2", "run3"):
            out = tmp_path / f"samples-{label}.jsonl"
            code = main(["--seed", "77", "sample", str(state_path), "-n", "500",
                         "--out", str(out)])
            assert code == 0
            outputs[label] = out.read_bytes()
        assert outputs["run1"] == outputs["run2"] == outputs["run3"]
        # prep with a Haar seed
        preps = []
        for name in ("p1.json", "p2.json"):
            out = tmp_path / name
            assert main(["prep", "--squeeze", "0.4,0.4,0.4", "--unitary", "haar(5)",
                         "--out", str(out)]) == 0
            preps.append(out.read_bytes())
        assert preps[0] == preps[1]
        cvs = []
        for label in ("c1", "c2", "c3"):
            out = tmp_path / f"cv-{label}.jsonl"
            code = main(["--seed", "13", "cv", "--pipeline", "B",
                         "--modes", "2", "--shots", "40", "--heralds", "1", "--out", str(out)])
            assert code == 0
            cvs.append(out.read_bytes())
        assert cvs[0] == cvs[1] == cvs[2]
        dists = []
        for label in ("d1", "d2"):
            out = tmp_path / f"dist-{label}.json"
            assert main(["dist", str(state_path), "--out", str(out)]) == 0
            dists.append(out.read_bytes())
        assert dists[0] == dists[1]
        report(13, "determinism", "sample/prep/cv/dist byte-identical across runs")
