"""gbsim benchmark: one command per workload, end-to-end or traced per-layer metrics.

Run from the root of a gbsim checkout:

    python3 perfbench/run.py --workload {sample,exact,cv} --seed N --seconds S --trace {0,1}

Each run starts fresh interpreters with BLAS pinned to one thread and the
library at ``threads=1``: one warm-up import (compiles bytecode), then
``SETUPS`` set-up-only processes, then the measuring process, which also
times its own set-up. ``--trace 0`` runs the untraced closed loop and prints
the end-to-end metrics; ``--trace 1`` replays a fixed, seed-determined op
prefix untraced and traced and prints the per-layer metrics. The last
stdout line is the result object; the line before it records the
environment and the sample counts.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SPEC = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
WORKLOADS = ("sample", "exact", "cv")
SETUPS = 4  # set-up-only processes per run; the measuring process adds one more set-up sample
BLAS_THREADS = "1"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
UNITS = {"sample": "samples", "exact": "queries", "cv": "shots"}
COMPUTED = ("torontonian.chol_flops", "sampler.peak_branch_mb")
SUBPROCESS_TIMEOUT_S = 170


def _loadavg():
    with open("/proc/loadavg", encoding="ascii") as fh:
        return fh.read().split()[:3]


def _python(args, env, cwd):
    proc = subprocess.run(
        [sys.executable, *args], env=env, cwd=cwd, capture_output=True, text=True, timeout=SUBPROCESS_TIMEOUT_S
    )
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RuntimeError(f"benchmark process {args[:2]} exited with {proc.returncode}")
    return proc.stdout


def _worker(mode, args, env, root, workdir, extra=()):
    argv = [os.path.join(HERE, "worker.py"), "--mode", mode, "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--workdir", workdir, *extra]
    return json.loads(_python(argv, env, root).strip().splitlines()[-1])


def _named(values, spec_metrics):
    """Values in BENCHMARK.json order with its units; the two name sets must agree."""
    names = [m["name"] for m in spec_metrics]
    if set(values) != set(names):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {sorted(set(values) ^ set(names))}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec_metrics}


def _timings(latencies, units):
    """Throughput over the whole timed loop and the latency quantiles, from one clock's readings."""
    deciles = statistics.quantiles(latencies, n=10) if len(latencies) > 1 else latencies * 9
    return {
        "ops_per_s": units / math.fsum(latencies),
        "op_p50_s": statistics.median(latencies),
        "op_p90_s": deciles[8],
    }, sum(1 for x in latencies if x > deciles[8])


def _end_to_end(run, setups):
    values, beyond_p90 = _timings([cpu for cpu, _ in run["latencies"]], run["units"])
    wall, _ = _timings([wall for _, wall in run["latencies"]], run["units"])
    values.update(
        setup_s=statistics.median(s["setup_s"] for s in setups),
        ok_frac=(run["attempted"] - run["failed"]) / run["attempted"],
        peak_rss_mb=run["peak_rss_mb"],
    )
    info = {
        "calls": len(run["latencies"]),
        "setup_s_samples": [s["setup_s"] for s in setups],
        "calls_beyond_p90": beyond_p90,
        "wall_clock": wall,
        "ops_unit": UNITS[run["workload"]],
        "max_rel_err": run["max_rel_err"],
    }
    return values, info


def _per_layer(traced, setups):
    values = dict(traced["layers"])
    values["cli.import_s"] = statistics.median(s["import_s"] for s in setups)
    values["cli.import_modules"] = statistics.median(s["import_modules"] for s in setups)
    return values


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "gbsim", "__init__.py")):
        print(f"no gbsim sources under {src}; run from the root of a gbsim checkout", file=sys.stderr)
        return 2

    env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED="0")
    env.update((var, BLAS_THREADS) for var in BLAS_VARS)
    workroot = os.path.join(root, ".perfbench_work")
    workdir = os.path.join(workroot, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        load_start = _loadavg()
        _worker("setup", args, env, root, workdir)  # warm-up: bytecode compilation is not set-up cost
        setups = [_worker("setup", args, env, root, workdir) for _ in range(SETUPS)]
        if args.trace:
            spans_dir = os.path.join(root, ".perfbench_out")
            os.makedirs(spans_dir, exist_ok=True)
            spans = os.path.join(spans_dir, f"spans-{args.workload}-{args.seed}.jsonl")
            run = _worker("trace", args, env, root, workdir, ("--spans", spans))
            values = _per_layer(run, setups + [run])
            info = {"computed_metrics": list(COMPUTED), "spans": os.path.relpath(spans, root)}
        else:
            run = dict(_worker("run", args, env, root, workdir), workload=args.workload)
            values, info = _end_to_end(run, setups + [run])
        for s in setups + [run]:
            if not s["gbsim_file"].startswith(src + os.sep):
                raise RuntimeError(f"gbsim imported from {s['gbsim_file']}, not from {src}")
        environment = dict(run["environment"], nproc=len(os.sched_getaffinity(0)),
                           blas_threads={var: env[var] for var in BLAS_VARS})
        info.update(environment=environment, loadavg_start=load_start, loadavg_end=_loadavg(),
                    setup_samples=len(setups) + 1)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(workroot)  # only when no other run is using it

    with open(SPEC, encoding="utf-8") as fh:
        spec = json.load(fh)
    metrics = _named(values, spec["per_layer" if args.trace else "end_to_end"])
    print(json.dumps(info, sort_keys=True))
    print(json.dumps({"correct": run["failed"] == 0, "attempted": run["attempted"], "failed": run["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
