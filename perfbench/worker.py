"""One benchmark process: set up a workload in a fresh interpreter, then run it.

Started by ``run.py``, which pins the BLAS threads in its environment before
numpy loads. Modes:

* ``setup``: import gbsim and build the inputs, report the times, exit.
* ``run``: set up, warm up, then the untraced closed loop for ``--seconds``.
* ``trace``: set up, warm up, replay a fixed op prefix untraced, then install
  the tracer, rebuild the inputs and replay the same prefix traced.

Prints one JSON object on its last stdout line.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import math
import platform
import resource
import sys
import time
import traceback


def _setup(name, seed, workdir):
    """Time ``import gbsim.cli`` (what every CLI call pays) and the input build, in CPU time."""
    modules_before = len(sys.modules)
    t0 = time.process_time()
    import gbsim.cli  # noqa: F401

    t_import = time.process_time()
    import_modules = len(sys.modules) - modules_before
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    inputs = workload.build(seed, workdir)
    t_setup = time.process_time()
    return workload, inputs, {
        "setup_s": t_setup - t0,
        "import_s": t_import - t0,
        "import_modules": import_modules,
        "gbsim_file": sys.modules["gbsim"].__file__,
    }


def _run_op(op, tracer=None):
    """Time one call; check it outside the timed region.

    Returns ((cpu_s, wall_s) or None, rel_err or None). The metrics use the
    process's CPU time: the process is single-threaded with BLAS pinned to
    one thread, so CPU time equals wall time except while the host runs
    other guests instead of this one (steal time on a shared VM), which
    wall time would count as gbsim's. Wall time goes to the info line.
    """
    from workloads import CheckFailed

    scope = tracer.tracing(f"bench.{op.kind}") if tracer else contextlib.nullcontext()
    try:
        with scope:
            w0, c0 = time.perf_counter(), time.process_time()
            result = op.call()
            latency = (time.process_time() - c0, time.perf_counter() - w0)
    except Exception:  # a failing call is counted, not fatal
        traceback.print_exc(file=sys.stderr)
        return None, None
    try:
        return latency, op.check(result)
    except CheckFailed as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return latency, None
    except Exception:
        traceback.print_exc(file=sys.stderr)
        return latency, None


def _loop(ops, seconds, block_ops):
    """Closed loop, one client: the next call starts when the previous call and its check end.

    The loop runs whole blocks of ``block_ops`` consecutive calls (one deck
    where there are decks) until ``seconds`` have passed, so every run holds
    the same mix and the latency quantiles do not hop between op sizes.
    """
    latencies, units, attempted, failed, max_err = [], 0, 0, 0, 0.0
    deadline = time.perf_counter() + seconds
    while not attempted or time.perf_counter() < deadline:
        for op in itertools.islice(ops, block_ops):
            attempted += 1
            latency, err = _run_op(op)
            if latency is not None:
                latencies.append(latency)
            if err is None:
                failed += 1
            else:
                units += op.units
                max_err = max(max_err, err)
    return latencies, units, attempted, failed, max_err


def _environment():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": blas.get("name"), "blas_version": blas.get("version")}


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # Linux reports KiB


def _layer_metrics(tracer, untraced_ops_per_s, traced_ops_per_s):
    def module_self(module):
        return tracer.self_seconds(lambda s: s["module"] == module)

    def func_self(*names):
        return tracer.self_seconds(lambda s: s["name"] in names)

    counters = dict(tracer.counters)
    peaks = tracer.peaks
    tor_s = tracer.inclusive_seconds("torontonian.torontonian")
    sampler_s = tracer.inclusive_seconds("sampler.sample_mixture") + tracer.inclusive_seconds("sampler.herald")
    subsets = counters.get("torontonian.subsets", 0)
    updates = counters.get("sampler.branch_updates", 0)
    return {
        "gaussian.calls": tracer.calls("gaussian"),
        "gaussian.self_s": module_self("gaussian"),
        "serialize.self_s": module_self("serialize"),
        "serialize.bytes": counters.get("serialize.bytes", 0),
        "torontonian.calls": tracer.calls("torontonian"),
        "torontonian.subsets": subsets,
        "torontonian.self_s": module_self("torontonian"),
        "torontonian.subsets_per_s": subsets / tor_s if tor_s else 0.0,
        "torontonian.chol_flops": counters.get("torontonian.chol_flops", 0.0),
        "hafnian.calls": tracer.calls("hafnian"),
        "hafnian.subsets": counters.get("hafnian.subsets", 0),
        "hafnian.self_s": module_self("hafnian"),
        "probabilities.self_s": module_self("probabilities"),
        "probabilities.tor_calls": counters.get("probabilities.tor_calls", 0),
        "probabilities.threshold_prob_p50_s": tracer.p50("probabilities.threshold_prob"),
        "probabilities.pnr_prob_p50_s": tracer.p50("probabilities.pnr_prob"),
        "probabilities.distribution_p50_s": tracer.p50("probabilities.distribution"),
        "probabilities.collision_p50_s": tracer.p50("probabilities.collision_probability"),
        "sampler.self_s": module_self("sampler"),
        "sampler.herald_p50_s": tracer.p50("sampler.herald"),
        "sampler.branch_updates": updates,
        "sampler.peak_branches": peaks.get("sampler.peak_branches", 0),
        "sampler.branch_updates_per_s": updates / sampler_s if sampler_s else 0.0,
        "sampler.peak_branch_mb": peaks.get("sampler.peak_branch_mb", 0.0),
        "cv.outcome_density_self_s": func_self("cv.outcome_density"),
        "cv.sample_outcome_self_s": func_self("cv.sample_outcome", "cv.sample_outcomes"),
        "cv.backaction_self_s": func_self("cv.backaction"),
        "cv.self_s": module_self("cv"),
        "cv.densities": counters.get("cv.densities", 0),
        "trace.overhead_frac": untraced_ops_per_s / traced_ops_per_s - 1.0 if traced_ops_per_s else 0.0,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--spans", help="trace mode: write the spans here as JSON lines")
    args = parser.parse_args(argv)

    workload, inputs, out = _setup(args.workload, args.seed, args.workdir)
    out["environment"] = _environment()
    if args.mode == "setup":
        print(json.dumps(out))
        return 0

    for op in workload.warmup(inputs):
        _run_op(op)
    if args.mode == "run":
        latencies, units, attempted, failed, max_err = _loop(workload.ops(inputs), args.seconds, workload.block_ops)
        out.update(latencies=latencies, units=units, attempted=attempted, failed=failed, max_rel_err=max_err,
                   peak_rss_mb=_peak_rss_mb())
        print(json.dumps(out))
        return 0

    from tracer import Tracer

    def prefix(ins):
        return list(itertools.islice(workload.ops(ins), workload.traced_ops))

    # Untraced and traced calls of the same op alternate (ABBA), so load drift
    # cancels in trace.overhead_frac. Checks always run unwrapped.
    tracer = Tracer()
    with tracer.tracing("bench.setup"):
        traced_inputs = workload.build(args.seed, args.workdir)
    pairs = zip(prefix(inputs), prefix(traced_inputs))
    plain, traced = [], []
    for i, (plain_op, traced_op) in enumerate(pairs):
        runs = [(plain_op, None, plain), (traced_op, tracer, traced)]
        for op, tr, results in runs[::-1] if i % 2 else runs:
            results.append((op, *_run_op(op, tr)))
    if args.spans:
        tracer.dump(args.spans)
    failed = sum(1 for _, _, err in plain + traced if err is None)
    errors = [err for _, _, err in plain + traced if err is not None]

    def rate(results):
        done = [(op.units, latency[0]) for op, latency, err in results if err is not None]
        return sum(u for u, _ in done) / math.fsum(t for _, t in done) if done else 0.0

    layers = _layer_metrics(tracer, rate(plain), rate(traced))
    layers["check.max_rel_err"] = max(errors, default=0.0)
    out.update(layers=layers, attempted=len(plain) + len(traced), failed=failed)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
