import json
import math
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from scipy import stats

import gbsim
from gbsim import (
    ClickPattern,
    FormatError,
    QuadratureState,
    apply_interferometer,
    chain_rule_probability,
    haar_unitary,
    reduce_state,
    squeezed_state,
    vacuum_state,
)
from gbsim import cli
from gbsim.cli import main
from gbsim.gaussian import random_state
from gbsim.serialize import (
    complex_matrix_from_dict,
    complex_matrix_to_dict,
    load_state,
    save_matrix,
    save_state,
    state_from_dict,
    state_to_dict,
)
from gbsim.validation import _chisquare

from conftest import tmsv


class TestSerialization:
    def test_state_round_trip_exact(self, rng, tmp_path):
        state = random_state(3, rng)
        path = tmp_path / "state.json"
        save_state(state, path)
        back = load_state(path)
        assert np.array_equal(back.V, state.V)
        assert np.array_equal(back.r, state.r)

    def test_file_rewrite_byte_identical(self, rng, tmp_path):
        state = random_state(2, rng)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        save_state(state, a)
        save_state(load_state(a), b)
        assert a.read_bytes() == b.read_bytes()

    def test_complex_matrix_round_trip(self, rng):
        M = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        back = complex_matrix_from_dict(complex_matrix_to_dict(M))
        assert np.array_equal(back, M)

    def test_wrong_hbar_rejected(self):
        data = state_to_dict(vacuum_state(1))
        data["hbar"] = 1
        with pytest.raises(FormatError):
            state_from_dict(data)

    def test_malformed_rejected(self):
        with pytest.raises(FormatError):
            state_from_dict({"modes": 2, "V": [[1.0]], "r": [0.0]})

    @pytest.mark.parametrize("data", [[1, 2], "x", None])
    def test_non_object_record_rejected(self, data):
        with pytest.raises(FormatError, match="JSON object"):
            state_from_dict(data)


def run_cli(*argv):
    return main([str(a) for a in argv])


def _src_env():
    return dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))


class TestCliExitCodes:
    def test_missing_file_is_format_error(self, tmp_path):
        assert run_cli("tor", tmp_path / "nope.json") == 3

    def test_invalid_json_is_format_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run_cli("tor", bad) == 3

    def test_non_object_state_is_format_error(self, tmp_path):
        bad = tmp_path / "list.json"
        bad.write_text("[1, 2]")
        assert run_cli("prob", bad, "--pattern", "1") == 3

    @pytest.mark.parametrize("argv", [("tor", "{path}"), ("prob", "{path}", "--pattern", "1")])
    def test_non_utf8_file_is_format_error(self, tmp_path, argv):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b"\xff\xfe{")
        assert run_cli(*(a.format(path=bad) for a in argv)) == 3

    def test_unphysical_kernel_is_numerical_error(self, tmp_path):
        bad = tmp_path / "kernel.json"
        save_matrix(np.array([[0, 1.5], [1.5, 0]], dtype=complex), bad)
        assert run_cli("tor", bad) == 2

    @pytest.mark.parametrize("entries", [[[0, 0], [0, 2]], [[0.1, 0.3], [0.3, 0.2]]])
    def test_kernel_without_block_structure_is_numerical_error(self, tmp_path, entries):
        bad = tmp_path / "kernel.json"
        save_matrix(np.array(entries, dtype=complex), bad)
        assert run_cli("tor", bad) == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ("prob", "{state}", "--pattern", "1,x"),
            ("prep", "--squeeze", "0.5,abc", "--out", "{out}"),
            ("--seed", "1", "sample", "{state}", "-n", "2", "--order", "1,a", "--out", "{out}"),
            ("herald", "{state}", "--click", "z"),
            ("bench", "--kind", "tor", "--sizes", "1:b"),
            ("prep", "--squeeze", "0.5,0.5", "--unitary", "haar(x)", "--out", "{out}"),
            ("--seed", "1", "prep", "--squeeze", "0.5,0.5", "--unitary", "haar(5)x", "--out", "{out}"),
            ("--seed", "1", "cv", "--pipeline", "C", "--modes", "2", "--shots", "1", "--unitary", "haar(5",
             "--out", "{out}"),
            ("prep", "--squeeze", "0.5,0.5", "--unitary", "haar(-3)", "--out", "{out}"),
            ("--seed", "-3", "prep", "--squeeze", "0.5,0.5", "--unitary", "haar", "--out", "{out}"),
            ("--seed", "11", "cv", "--pipeline", "A", "--modes", "6", "--shots", "2", "--squeeze", "0.7",
             "--out", "{out}"),
        ],
    )
    def test_malformed_list_argument_is_format_error(self, tmp_path, argv):
        state_path = tmp_path / "sq.json"
        save_state(squeezed_state([0.5, 0.5]), state_path)
        out = tmp_path / "out.json"
        assert run_cli(*(a.format(state=state_path, out=out) for a in argv)) == 3

    @pytest.mark.parametrize("command", ["tor", "haf"])
    @pytest.mark.parametrize("shape", [(2, 3), (3, 3)])
    def test_matrix_not_square_even_is_format_error(self, tmp_path, command, shape):
        path = tmp_path / "matrix.json"
        save_matrix(np.zeros(shape, dtype=complex), path)
        assert run_cli(command, path) == 3

    @pytest.mark.parametrize("tolerance", ["0", "nan"])
    def test_non_positive_tolerance_is_format_error(self, tmp_path, tolerance):
        out = tmp_path / "c.jsonl"
        argv = ("--seed", 1, "--tolerance", tolerance, "cv", "--pipeline", "C", "--modes", 1, "--shots", 1,
                "--out", out)
        assert run_cli(*argv) == 3

    @pytest.mark.parametrize("s", ["nan", "inf", "0"])
    def test_bad_homodyne_s_is_numerical_error_naming_it(self, tmp_path, capsys, s):
        out = tmp_path / "c.jsonl"
        argv = ("--seed", 1, "cv", "--pipeline", "C", "--modes", 1, "--shots", 1, "--homodyne-s", s, "--out", out)
        assert run_cli(*argv) == 2
        assert "homodyne_s must be finite and positive" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [("tor", "{state}/kernel.json"),
                                      ("--seed", "1", "sample", "{state}", "-n", "3", "--out", "{state}/x.jsonl")])
    def test_path_under_a_regular_file_is_format_error(self, tmp_path, argv):
        # NotADirectoryError, like any OSError on a path, is a file problem, not a traceback
        state_path = tmp_path / "sq.json"
        save_state(squeezed_state([0.5, 0.5]), state_path)
        assert run_cli(*(a.format(state=state_path) for a in argv)) == 3

    def test_success_is_zero(self, tmp_path):
        path = tmp_path / "kernel.json"
        t = math.tanh(1.0)
        save_matrix(np.array([[0, t], [t, 0]], dtype=complex), path)
        assert run_cli("tor", path) == 0


class TestCliValues:
    def test_tor_zero_kernel(self, tmp_path, capsys):
        path = tmp_path / "zero.json"
        save_matrix(np.zeros((2, 2), dtype=complex), path)
        assert run_cli("tor", path) == 0
        out = json.loads(capsys.readouterr().out)
        assert abs(out["value"]) < 1e-15
        assert out["terms"] == 2

    def test_tor_squeezed_anchor(self, tmp_path, capsys):
        path = tmp_path / "kernel.json"
        t = math.tanh(1.0)
        save_matrix(np.array([[0, t], [t, 0]], dtype=complex), path)
        run_cli("tor", path)
        out = json.loads(capsys.readouterr().out)
        assert out["value"] == pytest.approx(math.cosh(1.0) - 1, abs=1e-12)
        ratio = (math.cosh(1.0) + 1) / (math.cosh(1.0) - 1)
        assert out["error_estimate"] == pytest.approx(2.0 ** -53 * ratio, rel=1e-12)

    def test_haf_all_ones(self, tmp_path, capsys):
        path = tmp_path / "ones.json"
        save_matrix(np.ones((4, 4), dtype=complex), path)
        assert run_cli("haf", path) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["re"] == pytest.approx(3.0)

    def test_prob_squeezed(self, tmp_path, capsys):
        state_path = tmp_path / "sq.json"
        save_state(squeezed_state([1.0]), state_path)
        assert run_cli("prob", state_path, "--pattern", "1") == 0
        out = json.loads(capsys.readouterr().out)
        assert out["p"] == pytest.approx(1 - 1 / math.cosh(1.0), abs=1e-10)
        assert out["p"] == pytest.approx(0.3519453, abs=5e-7)

    def test_prob_vacuum_empty(self, tmp_path, capsys):
        state_path = tmp_path / "vac.json"
        save_state(vacuum_state(2), state_path)
        run_cli("prob", state_path, "--pattern", "")
        out = json.loads(capsys.readouterr().out)
        assert out["p"] == pytest.approx(1.0)

    def test_dist_normalization(self, tmp_path, capsys, rng):
        state_path = tmp_path / "state.json"
        save_state(random_state(3, rng), state_path)
        out_path = tmp_path / "dist.json"
        assert run_cli("dist", state_path, "--out", out_path) == 0
        data = json.loads(out_path.read_text())
        assert abs(data["normalization_defect"]) < 1e-9
        total = sum(row["p"] for row in data["probabilities"])
        assert total == pytest.approx(1.0, abs=1e-9)
        patterns = [tuple(row["pattern"]) for row in data["probabilities"]]
        assert patterns == sorted(patterns)


class TestCliPrep:
    def test_vacuum_file(self, tmp_path, capsys):
        out = tmp_path / "vac.json"
        assert run_cli("prep", "--squeeze", "0", "--unitary", "identity", "--out", out) == 0
        state = load_state(out)
        assert np.array_equal(state.V, np.eye(2))

    def test_squeezed_file(self, tmp_path, capsys):
        out = tmp_path / "sq.json"
        run_cli("prep", "--squeeze", "1", "--unitary", "identity", "--out", out)
        state = load_state(out)
        assert np.allclose(np.diag(state.V), [math.exp(2), math.exp(-2)])

    def test_haar_deterministic(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run_cli("prep", "--squeeze", "0.5,0.5", "--unitary", "haar(7)", "--out", a)
        run_cli("prep", "--squeeze", "0.5,0.5", "--unitary", "haar(7)", "--out", b)
        assert a.read_bytes() == b.read_bytes()


class TestCliSample:
    def test_vacuum_all_empty(self, tmp_path, capsys):
        state_path = tmp_path / "vac.json"
        save_state(vacuum_state(2), state_path)
        out = tmp_path / "samples.jsonl"
        assert run_cli("--seed", 5, "sample", state_path, "-n", 100, "--out", out) == 0
        rows = [json.loads(line) for line in out.read_text().splitlines()]
        assert len(rows) == 100
        assert all(row["pattern"] == [] for row in rows)

    def test_seed_reproducibility(self, tmp_path, capsys):
        state_path = tmp_path / "state.json"
        save_state(tmsv(1.0), state_path)
        outs = []
        for name in ("a.jsonl", "b.jsonl"):
            out = tmp_path / name
            assert run_cli("--seed", 42, "sample", state_path, "-n", 200, "--out", out) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_tmsv_coincidence_frequency(self, tmp_path, capsys):
        state_path = tmp_path / "tmsv.json"
        save_state(tmsv(1.0), state_path)
        out = tmp_path / "samples.jsonl"
        n = 100_000
        assert run_cli("--seed", 2024, "sample", state_path, "-n", n, "--out", out) == 0
        rows = [json.loads(line) for line in out.read_text().splitlines()]
        freq = sum(1 for row in rows if row["pattern"] == [1, 2]) / n
        p = 1 - 1 / math.cosh(1.0) ** 2
        assert p == pytest.approx(0.580026, abs=5e-7)
        assert abs(freq - p) < 3 * math.sqrt(p * (1 - p) / n)
        histogram = json.loads(capsys.readouterr().out)["click_histogram"]
        assert set(histogram) <= {"0", "2"}

    def test_requires_seed(self, tmp_path, capsys):
        state_path = tmp_path / "vac.json"
        save_state(vacuum_state(1), state_path)
        assert run_cli("sample", state_path, "-n", 5, "--out", tmp_path / "x.jsonl") == 3


class TestCliHerald:
    def test_squeezed_click(self, tmp_path, capsys):
        state_path = tmp_path / "sq.json"
        save_state(squeezed_state([1.0]), state_path)
        assert run_cli("herald", state_path, "--click", "1") == 0
        out = json.loads(capsys.readouterr().out)
        assert out["herald_probability"] == pytest.approx(1 - 1 / math.cosh(1.0), rel=1e-10)

    def test_impossible_event(self, tmp_path, capsys):
        state_path = tmp_path / "vac.json"
        save_state(vacuum_state(1), state_path)
        assert run_cli("herald", state_path, "--click", "1") == 2

    def test_displaced_state_matches_loop(self, tmp_path, capsys):
        # a displaced state walks the pivot tree with its mean as a border; the signed-mixture chain rule on the
        # marginal of modes 2, 3, 5 (clicks on 2 and 5, measured 5, 3, 2 on both routes) referees it
        zero_mean = random_state(5, np.random.default_rng(4))
        state = QuadratureState(zero_mean.V, 0.5 * np.random.default_rng(5).normal(size=10))
        state_path = tmp_path / "displaced.json"
        save_state(state, state_path)
        assert run_cli("herald", state_path, "--click", "5,2", "--noclick", "3") == 0
        out = json.loads(capsys.readouterr().out)
        expect = chain_rule_probability(reduce_state(state, [2, 3, 5]), ClickPattern(3, (1, 3)))
        assert out["herald_probability"] == pytest.approx(expect, rel=1e-9)
        assert out["branches"] == 4 and out["remaining_modes"] == [1, 4]


class TestCliCollision:
    def test_report(self, tmp_path, capsys):
        state_path = tmp_path / "sq.json"
        save_state(squeezed_state([1.0]), state_path)
        assert run_cli("collision", state_path) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["epsilon"] == pytest.approx(1 - 1 / math.cosh(1.0), abs=1e-10)

    def test_l1_route_at_four_modes(self, tmp_path, capsys):
        state = apply_interferometer(squeezed_state([0.6] * 4), haar_unitary(4, np.random.default_rng(5)))
        state_path = tmp_path / "haar4.json"
        save_state(state, state_path)
        assert run_cli("collision", state_path) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["photon_cutoff"] == 8
        assert abs(out["l1_patternwise"] - out["epsilon"]) <= out["residual_bound"]

    def test_mixed_state(self, tmp_path, capsys):
        state_path = tmp_path / "mixed3.json"
        save_state(random_state(3, np.random.default_rng(9), pure=False), state_path)
        assert run_cli("collision", state_path) == 0
        out = json.loads(capsys.readouterr().out)
        assert abs(out["l1_patternwise"] - out["epsilon"]) <= out["residual_bound"]


class TestCliCv:
    def test_pipeline_a_deterministic(self, tmp_path, capsys):
        outs = []
        for name in ("a.jsonl", "b.jsonl"):
            out = tmp_path / name
            code = run_cli(
                "--seed", 9, "cv", "--pipeline", "A", "--modes", 2, "--shots", 10,
                "--squeeze", "0.6,0.6", "--out", out,
            )
            assert code == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_pipeline_c_records(self, tmp_path, capsys):
        out = tmp_path / "c.jsonl"
        code = run_cli(
            "--seed", 4, "cv", "--pipeline", "C", "--modes", 2, "--shots", 3,
            "--heralds", 1, "--out", out,
        )
        assert code == 0
        rows = [json.loads(line) for line in out.read_text().splitlines()]
        assert len(rows) == 3
        for row in rows:
            assert all(rec["povm"] == "hom" for rec in row["cv"])


class TestCliValidate:
    def test_passes_at_small_scale(self, capsys):
        assert run_cli("--seed", 123, "validate", "--scale", "small") == 0
        out = json.loads(capsys.readouterr().out)
        assert out["passed"] is True

    def test_passes_at_default_scale(self, capsys):
        assert run_cli("--seed", 2024, "validate") == 0
        out = json.loads(capsys.readouterr().out)
        assert out["passed"] is True
        assert len(out["checks"]) == 7

    def test_tor_sign_flip_caught(self, capsys):
        assert run_cli("--seed", 123, "validate", "--scale", "small", "--mutate", "tor_sign_flip") == 1
        out = json.loads(capsys.readouterr().out)
        failed = {c["name"] for c in out["checks"] if not c["passed"]}
        assert "threshold_oracle" in failed
        assert "bridge" in failed  # the flipped series against perfect matchings

    def test_wrong_reduction_caught(self, capsys):
        assert run_cli("--seed", 123, "validate", "--scale", "small", "--mutate", "haf_wrong_reduction") == 1
        out = json.loads(capsys.readouterr().out)
        failed = {c["name"] for c in out["checks"] if not c["passed"]}
        assert "hafnian_diagonal" in failed or "hafnian_oracle" in failed

    def test_haf_sign_flip_caught(self, capsys):
        assert run_cli("--seed", 123, "validate", "--scale", "small", "--mutate", "haf_sign_flip") == 1
        out = json.loads(capsys.readouterr().out)
        failed = {c["name"] for c in out["checks"] if not c["passed"]}
        assert "hafnian_oracle" in failed

    @pytest.mark.parametrize("cells", [2, 3, 7, 16, 39])
    def test_chisquare_matches_scipy_stats(self, cells):
        # the sampler check's statistic and p-value, bit for bit, against the scipy.stats referee
        rng = np.random.default_rng(cells)
        expected = rng.uniform(5.0, 200.0, cells)
        observed = rng.poisson(expected).astype(float)
        expected *= observed.sum() / expected.sum()
        stat, pvalue = _chisquare(observed, expected)
        reference = stats.chisquare(observed, expected)
        assert (stat, pvalue) == (reference.statistic, reference.pvalue)


class TestCliBench:
    def test_smoke_tiny(self, tmp_path, capsys):
        out = tmp_path / "bench.csv"
        assert run_cli("--seed", 1, "bench", "--kind", "tor", "--sizes", "2,3,4,5", "--out", out) == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("size,")
        assert len(lines) == 5
        # N = 2 stays comfortably inside the smoke budget
        n2 = float(lines[1].split(",")[1])
        assert n2 < 0.01


class TestCliSeed:
    """``--seed 0`` is a seed like any other, not a request for the default."""

    @pytest.mark.parametrize("argv, expected", [(("--seed", 0), 0), ((), 20240801)])
    def test_validate_receives_seed(self, monkeypatch, capsys, argv, expected):
        seen = []
        monkeypatch.setattr(cli, "run_validation", lambda seed, **kw: seen.append(seed) or (True, []))
        assert run_cli(*argv, "validate") == 0
        assert seen == [expected]

    @pytest.mark.parametrize("kind, runner", [("tor", "bench_torontonian"), ("sample", "bench_sampler")])
    def test_bench_receives_seed_zero(self, monkeypatch, capsys, tmp_path, kind, runner):
        seen = []
        result = SimpleNamespace(kind=kind, doubling_factor=2.0, to_csv=lambda: "size\n")
        monkeypatch.setattr(cli, runner, lambda sizes, seed, **kw: seen.append(seed) or result)
        assert run_cli("--seed", 0, "bench", "--kind", kind, "--sizes", "2", "--out", tmp_path / "b.csv") == 0
        assert seen == [0]


class TestCliImport:
    def test_public_api(self):
        # one entry point per job: a new public wrapper shows up here; submodules are not exported
        assert sorted(gbsim.__all__) == [
            "ClickPattern", "CollisionReport", "ComplexUnitary", "FormatError", "GaussianMixture", "GaussianPOVM",
            "GbsimError", "HBAR", "HusimiCovariance", "KernelMatrix", "NumericalError", "OutcomeDensity", "PNRPattern",
            "PhysicalityError", "PipelineConfig", "QuadratureState", "SampleRecord", "ThresholdDistribution",
            "TorontonianResult", "apply_interferometer", "backaction", "chain_rule_probability",
            "collision_probability", "distribution", "haar_collision_experiment", "haar_unitary",
            "hafnian_from_torontonian", "hafnian_naive", "hafnian_powerset", "herald", "heterodyne",
            "homodyne", "husimi_covariance", "kernel_matrix", "marginal", "outcome_density", "photon_moments",
            "pnr_prob", "q_function", "quadrature_covariance", "reduce_matrix", "reduce_state", "sample",
            "sample_batch", "sample_outcomes", "simulate_pipeline", "squeezed_state", "step", "substream_id",
            "threshold_prob", "threshold_prob_oracle", "tor_as_hafnian_sum", "torontonian", "torontonian_series",
            "vacuum_state", "validate_state",
        ]

    def test_global_options(self):
        # the options before the subcommand: a new global knob shows up here
        options = {opt for action in cli.build_parser()._actions for opt in action.option_strings}
        assert options == {"-h", "--help", "--seed", "--tolerance"}

    def test_import_leaves_scipy_unloaded(self):
        # scipy.special adds about 0.2 s of CPU and 300 modules to a call's start-up, and
        # scipy.stats 0.7 s and 430 modules more; only validate imports scipy.special, lazily
        code = "import sys, gbsim.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        out = subprocess.run([sys.executable, "-c", code], env=_src_env(), capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "[]"

    def test_cv_runs_without_scipy(self, tmp_path):
        # with scipy unimportable, cv pipelines C and D and sample_outcomes still run: no cv path needs scipy
        code = """
import sys
sys.modules["scipy"] = None
import numpy as np
from gbsim.cli import main
from gbsim.cv import homodyne, outcome_density, paired_source_state, sample_outcomes
from gbsim.sampler import herald
for pipeline in "CD":
    assert main(["--seed", "3", "cv", "--pipeline", pipeline, "--modes", "3", "--shots", "2", "--heralds", "2",
                 "--out", f"{pipeline}.jsonl"]) == 0
mixture, _ = herald(paired_source_state(1, 1, 1.0), [2], [1])
points = sample_outcomes(outcome_density(mixture, homodyne()), 50, np.random.default_rng(1))
assert points.shape == (50, 2) and np.isfinite(points).all()
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""
        out = subprocess.run([sys.executable, "-c", code], env=_src_env(), cwd=tmp_path, capture_output=True,
                             text=True, check=True)
        assert out.stdout.strip().splitlines()[-1] == "['scipy']"
        for pipeline in "CD":
            records = [json.loads(line) for line in (tmp_path / f"{pipeline}.jsonl").read_text().splitlines()]
            assert len(records) == 2 and all(len(rec["cv"]) == 3 for rec in records)

    @pytest.mark.parametrize(
        ("argv", "loads_scipy"),
        [
            (("prob", "{state}", "--pattern", "1"), False),
            (("dist", "{state}"), False),
            (("--seed", "1", "sample", "{state}", "-n", "5", "--out", "{dir}/s.jsonl"), False),
            (("herald", "{state}", "--click", "1"), False),
            (("tor", "{kernel}"), False),
            (("--seed", "1", "cv", "--pipeline", "D", "--modes", "2", "--shots", "2", "--heralds", "1",
              "--out", "{dir}/d.jsonl"), False),
            (("--seed", "5", "validate", "--scale", "small"), True),
        ],
    )
    def test_command_from_cold_start(self, tmp_path, argv, loads_scipy):
        # a fresh interpreter per command: only validate reaches scipy, and of it
        # only scipy.special (never scipy.stats); its lazy import works from cold
        state_path, kernel_path = tmp_path / "sq.json", tmp_path / "kernel.json"
        save_state(squeezed_state([0.5, 0.5]), state_path)
        t = math.tanh(1.0)
        save_matrix(np.array([[0, t], [t, 0]], dtype=complex), kernel_path)
        code = ("import json, sys\nfrom gbsim.cli import main\nexit_code = main(sys.argv[1:])\n"
                "print(json.dumps([exit_code, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')]))")
        args = [a.format(state=state_path, kernel=kernel_path, dir=tmp_path) for a in argv]
        out = subprocess.run([sys.executable, "-c", code, *args], env=_src_env(), cwd=tmp_path,
                             capture_output=True, text=True, check=True)
        exit_code, scipy_modules = json.loads(out.stdout.strip().splitlines()[-1])
        assert exit_code == 0
        assert "scipy.stats" not in scipy_modules
        # the public subpackages loaded; scipy's private helpers and version module come with any of them
        parts = {m.split(".")[1] for m in scipy_modules if "." in m} - {"version"}
        assert sorted(p for p in parts if not p.startswith("_")) == (["special"] if loads_scipy else [])
        assert bool(scipy_modules) == loads_scipy
