"""Command-line front end.

Exit codes: 0 on success, 2 on numerical or physicality failures, 3 on
file/format problems, a path that cannot be read or written included. All
primary outputs are deterministic given the seed and flags; anything
time-dependent goes to stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import sys

import numpy as np

from . import serialize
from .bench import bench_sampler, bench_torontonian
from .cv import PipelineConfig, simulate_pipeline
from .errors import FormatError, NumericalError
from .gaussian import (
    ComplexUnitary,
    apply_interferometer,
    haar_unitary,
    husimi_covariance,
    squeezed_state,
    sqrt_det_sigma,
    validate_state,
)
from .hafnian import hafnian_powerset
from .probabilities import collision_probability, distribution, threshold_prob
from .sampler import herald, sample_batch
from .serialize import collision_report_to_dict
from .torontonian import torontonian
from .validation import MUTATIONS, run_validation

EXIT_OK = 0
EXIT_NUMERICAL = 2
EXIT_FORMAT = 3


def _list_argument(parse):
    """A malformed list argument is a format error (exit 3), not a numerical one."""

    @functools.wraps(parse)
    def checked(text):
        try:
            return parse(text)
        except ValueError as exc:
            raise FormatError(f"malformed list argument {text!r}: {exc}") from None

    return checked


@_list_argument
def _parse_floats(text):
    return tuple(float(x) for x in text.split(",")) if text else ()


@_list_argument
def _parse_ints(text):
    return tuple(int(x) for x in text.split(",")) if text else ()


@_list_argument
def _parse_range(text):
    if ":" in text:
        lo, hi = text.split(":")
        return list(range(int(lo), int(hi) + 1))
    return [int(x) for x in text.split(",")]


def _emit(obj, out):
    payload = serialize.dumps(obj)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)


def _load_unitary(source, modes, seed):
    if source == "identity":
        return ComplexUnitary(np.eye(modes))
    if source == "haar" or source.startswith("haar("):
        if source != "haar":
            try:
                seed = int(source[len("haar("):-1] if source.endswith(")") else "")
            except ValueError:
                raise FormatError(f"malformed unitary {source!r}: use haar(SEED)") from None
        if seed is None or seed < 0:
            raise FormatError("haar unitary needs a nonnegative seed: use haar(SEED) or --seed")
        return haar_unitary(modes, np.random.default_rng(seed))
    matrix = serialize.load_matrix(source)
    if matrix.shape != (modes, modes):
        raise FormatError(f"unitary file has shape {matrix.shape}, expected {(modes, modes)}")
    try:
        return ComplexUnitary(matrix)
    except ValueError as exc:
        raise FormatError(str(exc)) from exc


def _load_square_matrix(path):
    """A matrix file that is square with even dimension, as ``tor`` and ``haf`` take."""
    matrix = serialize.load_matrix(path)
    if matrix.shape[0] != matrix.shape[1] or matrix.shape[0] % 2:
        raise FormatError(f"matrix file has shape {matrix.shape}, expected square with even dimension")
    return matrix


def cmd_prep(args):
    r_vec = _parse_floats(args.squeeze)
    if not r_vec:
        raise FormatError("--squeeze must list at least one squeezing parameter")
    state = squeezed_state(r_vec)
    unitary = _load_unitary(args.unitary, len(r_vec), args.seed)
    state = apply_interferometer(state, unitary)
    serialize.save_state(state, args.out)
    diag = validate_state(state)
    _emit(
        {
            "modes": state.modes,
            "det_sigma": sqrt_det_sigma(husimi_covariance(state)) ** 2,
            "physical": diag.physical,
            "min_physicality_eig": diag.min_physicality_eig,
            "warnings": list(diag.warnings),
            "out": args.out,
        },
        None,
    )
    return EXIT_OK


def cmd_tor(args):
    result = torontonian(_load_square_matrix(args.matrix))
    _emit(dataclasses.asdict(result), args.out)
    return EXIT_OK


def cmd_haf(args):
    matrix = _load_square_matrix(args.matrix)
    value = hafnian_powerset(matrix)
    _emit({"re": value.real, "im": value.imag, "terms": 1 << (matrix.shape[0] // 2)}, args.out)
    return EXIT_OK


def cmd_prob(args):
    state = serialize.load_state(args.state)
    pattern = _parse_ints(args.pattern)
    p = threshold_prob(state, pattern)
    _emit({"pattern": list(pattern), "p": p}, args.out)
    return EXIT_OK


def cmd_dist(args):
    state = serialize.load_state(args.state)
    dist = distribution(state)
    if args.out:
        serialize.save_distribution(dist, args.out)
        _emit({"modes": dist.modes, "normalization_defect": dist.normalization_defect, "out": args.out}, None)
    else:
        _emit(serialize.distribution_to_dict(dist), None)
    return EXIT_OK


def cmd_sample(args):
    if args.seed is None:
        raise FormatError("sample requires --seed")
    state = serialize.load_state(args.state)
    order = list(_parse_ints(args.order)) if args.order else None
    records = sample_batch(state, args.n, args.seed, order=order)
    serialize.save_samples(records, args.out, trace=args.trace)
    histogram = {}
    for rec in records:
        histogram[rec.clicks] = histogram.get(rec.clicks, 0) + 1
    _emit({"n": args.n, "click_histogram": {str(k): v for k, v in sorted(histogram.items())}, "out": args.out}, None)
    return EXIT_OK


def cmd_herald(args):
    state = serialize.load_state(args.state)
    clicks = _parse_ints(args.click)
    noclicks = _parse_ints(args.noclick)
    measured = list(clicks) + list(noclicks)
    outcomes = [1] * len(clicks) + [0] * len(noclicks)
    mixture, probability = herald(state, measured, outcomes)
    _emit(
        {
            "herald_probability": probability,
            "branches": mixture.branch_count,
            "remaining_modes": list(mixture.labels),
            "weights": [float(w) for w in mixture.weights],
        },
        args.out,
    )
    return EXIT_OK


def cmd_cv(args):
    if args.seed is None:
        raise FormatError("cv requires --seed")
    unitary = None
    if args.unitary and args.unitary not in ("haar",):
        unitary = _load_unitary(args.unitary, args.modes, args.seed).matrix
    squeezing = _parse_floats(args.squeeze)
    if args.pipeline == "A" and len(squeezing) not in (0, args.modes):
        raise FormatError(f"--squeeze needs one value per mode ({args.modes}) or none, got {len(squeezing)}")
    config = PipelineConfig(
        pipeline=args.pipeline,
        modes=args.modes,
        shots=args.shots,
        seed=args.seed,
        squeezing=squeezing,
        herald_count=args.heralds,
        herald_squeezing=args.herald_squeeze,
        unitary=unitary,
        homodyne_s=args.homodyne_s,
        cdf_tolerance=min(args.tolerance, 1e-10),
    )
    records, meta = simulate_pipeline(config)
    serialize.save_jsonl(records, args.out)
    _emit(meta, None)
    return EXIT_OK


def cmd_collision(args):
    state = serialize.load_state(args.state)
    cutoff = args.cutoff if args.cutoff is not None else "auto"
    report = collision_probability(state, photon_cutoff=cutoff)
    _emit(collision_report_to_dict(report), args.out)
    return EXIT_OK


def cmd_validate(args):
    seed = 20240801 if args.seed is None else args.seed
    passed, checks = run_validation(seed=seed, scale=args.scale, mutate=args.mutate)
    _emit({"passed": passed, "checks": [c.to_dict() for c in checks]}, args.out)
    return EXIT_OK if passed else 1


def cmd_bench(args):
    sizes = _parse_range(args.sizes)
    seed = 1 if args.seed is None else args.seed
    if args.kind == "tor":
        result = bench_torontonian(sizes, seed)
    else:
        result = bench_sampler(sizes, seed)
    csv = result.to_csv()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(csv)
    else:
        sys.stdout.write(csv)
    _emit({"kind": result.kind, "doubling_factor": result.doubling_factor, "out": args.out}, None)
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(prog="gbsim", description=__doc__)
    parser.add_argument("--seed", type=int, default=None, help="RNG seed (required for stochastic commands)")
    parser.add_argument("--tolerance", type=float, default=1e-10,
                        help="CDF tolerance of cv inverse-CDF sampling; values above 1e-10 are capped at 1e-10")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("prep", help="prepare a squeezed-light state file")
    p.add_argument("--squeeze", required=True, help="comma-separated squeezing parameters")
    p.add_argument("--unitary", default="identity", help="identity | haar(SEED) | matrix file")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_prep)

    p = sub.add_parser("tor", help="Torontonian of a kernel matrix file")
    p.add_argument("matrix")
    p.add_argument("--out")
    p.set_defaults(func=cmd_tor)

    p = sub.add_parser("haf", help="Hafnian of a symmetric matrix file")
    p.add_argument("matrix")
    p.add_argument("--out")
    p.set_defaults(func=cmd_haf)

    p = sub.add_parser("prob", help="threshold probability of one click pattern")
    p.add_argument("state")
    p.add_argument("--pattern", default="", help="comma-separated clicked modes (1-based)")
    p.add_argument("--out")
    p.set_defaults(func=cmd_prob)

    p = sub.add_parser("dist", help="full threshold distribution")
    p.add_argument("state")
    p.add_argument("--out")
    p.set_defaults(func=cmd_dist)

    p = sub.add_parser("sample", help="draw exact threshold samples")
    p.add_argument("state")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--order", default="", help="measurement order (default: highest mode first)")
    p.add_argument("--trace", action="store_true", help="include per-step diagnostics")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("herald", help="condition on forced threshold outcomes")
    p.add_argument("state")
    p.add_argument("--click", default="", help="modes forced to click")
    p.add_argument("--noclick", default="", help="modes forced to stay silent")
    p.add_argument("--out")
    p.set_defaults(func=cmd_herald)

    p = sub.add_parser("cv", help="run a sampling pipeline (threshold or homodyne/heterodyne)")
    p.add_argument("--pipeline", choices=["A", "B", "C", "D"], required=True)
    p.add_argument("--modes", type=int, required=True)
    p.add_argument("--shots", type=int, required=True)
    p.add_argument("--squeeze", default="",
                   help="pipeline A: comma-separated squeezing, one value per mode (default: vacuum inputs)")
    p.add_argument("--heralds", type=int, default=0)
    p.add_argument("--herald-squeeze", type=float, default=1.0)
    p.add_argument("--homodyne-s", type=float, default=1e3)
    p.add_argument("--unitary", default="haar", help="haar | matrix file")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_cv)

    p = sub.add_parser("collision", help="collision probability and PNR/threshold distance")
    p.add_argument("state")
    p.add_argument("--cutoff", type=int, default=None)
    p.add_argument("--out")
    p.set_defaults(func=cmd_collision)

    p = sub.add_parser("validate", help="run the cross-validation suite")
    p.add_argument("--scale", choices=["small", "default"], default="default")
    p.add_argument("--mutate", choices=list(MUTATIONS), default=None,
                   help="inject a known bug; the suite must catch it")
    p.add_argument("--out")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("bench", help="scaling benchmarks (CSV output)")
    p.add_argument("--kind", choices=["tor", "sample"], required=True)
    p.add_argument("--sizes", required=True, help="e.g. 12:20 or 12,14,16")
    p.add_argument("--out")
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        if not args.tolerance > 0:
            raise FormatError(f"--tolerance must be positive, got {args.tolerance}")
        return args.func(args)
    except (FormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FORMAT
    except (NumericalError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
