"""Benchmark of the mirabolic engine: seeded workloads, exact output checks.

    python3 perfbench/run.py --workload schur-mul --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40

Run from the root of a checkout; the package is imported from its src/.
Each workload is a closed loop: one client in one process issues operations
back to back.  Operations come in batches; each batch runs in a fresh
session (a fresh import of the package, so every memo cache starts empty).
A run makes --seconds / BATCH_SECONDS[workload] batches (at least one): a
count fixed by the arguments, not by timing, so that every run of a
workload pools its latencies over the same number of operations.

--trace 0 prints the end-to-end metrics (BENCHMARK.json "end_to_end");
--trace 1 runs the first half of each batch once plain and once with every
layer wrapped and prints the per-layer metrics ("per_layer"), writing the
spans to perfbench/out/.  The last line of stdout is one JSON object with
the keys correct, attempted, failed and metrics; the lines before it record
the environment and details such as the tail percentile and failed_ratio.
"""

import os

# one BLAS/OpenMP thread, so the numbers measure the program, not the scheduler
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse          # noqa: E402
import gc                # noqa: E402
import json              # noqa: E402
import resource          # noqa: E402
import statistics        # noqa: E402
import subprocess        # noqa: E402
import sys               # noqa: E402
import time              # noqa: E402
from pathlib import Path  # noqa: E402

from bench_session import (ROOT, environment, load_reference,  # noqa: E402
                           open_session, package_available)
from bench_trace import Tracer, cache_entries  # noqa: E402
from bench_workloads import BATCH_SECONDS, WORKLOADS, batch_rng  # noqa: E402

OUT_DIR = Path(__file__).resolve().parent / "out"
# fresh sessions set up per batch, all timed for setup_s, the last one used;
# spread over the run, they meet the machine in the states the batches meet
SETUP_REPEATS = 3
TAIL_BEYOND = 10      # the tail percentile keeps this many operations above it


def setup(workload, seed, index, limit=None):
    """A fresh session plus the inputs of one batch (its first `limit`
    operations, if given); returns the set-up time too."""
    gc.collect()
    t0 = time.perf_counter()
    s = open_session()
    ref = load_reference()
    make_batch, _ = WORKLOADS[workload]
    ops = make_batch(s, ref, batch_rng(workload, seed, index))[:limit]
    return s, ref, ops, time.perf_counter() - t0


def run_batch(workload, s, ref, ops, tracer=None):
    """Run every operation; returns (wall seconds, latencies, failures)."""
    _, run_op = WORKLOADS[workload]
    latencies, failed = [], 0
    t0 = time.perf_counter()
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = i
        start = time.perf_counter()
        try:
            ok = run_op(s, ref, op)
        except Exception as ex:   # a raising operation is a failed one
            print(f"operation {i} raised {type(ex).__name__}: {ex}",
                  file=sys.stderr)
            ok = False
        latencies.append(time.perf_counter() - start)
        failed += not ok
    return time.perf_counter() - t0, latencies, failed


def tail(latencies):
    """(percentile, value) of the highest percentile with TAIL_BEYOND
    operations above it, or the maximum when there are too few."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return 100.0, ordered[-1]
    return 100.0 * (n - TAIL_BEYOND) / n, ordered[n - TAIL_BEYOND - 1]


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run(workload, seed, seconds, trace, limit=None):
    """One run; returns (result dict, detail dict).  `limit` cuts every
    batch short, for smoke tests."""
    setups, walls, latencies, layers = [], [], [], []
    attempted = failed = 0
    tracer = Tracer() if trace else None
    batches = max(1, round(seconds / BATCH_SECONDS[workload]))
    for index in range(batches):
        setups += [setup(workload, seed, index, limit)[3]
                   for _ in range(SETUP_REPEATS - 1)]
        s, ref, ops, took = setup(workload, seed, index, limit)
        setups.append(took)
        if trace:
            ops = ops[:(len(ops) + 1) // 2]
        wall, lat, bad = run_batch(workload, s, ref, ops)
        walls.append(wall)
        latencies += lat
        attempted += len(ops)
        failed += bad
        if tracer is not None:
            # the same operations again, drawn in a fresh session
            s, ref, ops, _ = setup(workload, seed, index, len(ops))
            tracer.install(s)
            before = tracer.snapshot()
            traced_wall, _, bad = run_batch(workload, s, ref, ops, tracer)
            attempted += len(ops)
            failed += bad
            metrics = tracer.layer_metrics(before, tracer.snapshot())
            metrics.update(cache_entries(s))
            metrics["trace.overhead_s"] = traced_wall - wall
            layers.append(metrics)
        del s, ref, ops

    pct, tail_value = tail(latencies)
    detail = {
        "workload": workload, "seed": seed, "batches": batches,
        "ops_per_batch": len(latencies) // batches,
        "failed_ratio": failed / attempted,
        "op_ms_tail_percentile": round(pct, 2),
        "op_ms_tail_ops": len(latencies),
    }
    if trace:
        units = {m["name"]: m["unit"] for m in declared("per_layer")}
        values = {k: statistics.median(m[k] for m in layers) for k in units}
        path = OUT_DIR / f"trace-{workload}-seed{seed}.jsonl"
        tracer.write_spans(path, {"workload": workload, "seed": seed})
        detail["spans_file"] = str(path.relative_to(ROOT))
    else:
        units = {m["name"]: m["unit"] for m in declared("end_to_end")}
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(walls),
            "op_ms_p50": 1000.0 * statistics.median(latencies),
            "op_ms_tail": 1000.0 * tail_value,
            "peak_rss_mb": peak_rss_mb(),
        }
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }
    return result, detail


def declared(section):
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)[section]


def run_all(seed, seconds, trace):
    """Each workload in its own fresh process, one after the other."""
    worst = 0
    for name in WORKLOADS:
        print(f"== {name}", flush=True)
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace)], check=False)
        worst = max(worst, proc.returncode)
    return worst


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not package_available():
        print("perfbench: no src/mirabolic here; run from the root of a "
              "checkout of the repository", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    result, detail = run(args.workload, args.seed, args.seconds, args.trace)
    print("env " + json.dumps(environment(), sort_keys=True))
    print("detail " + json.dumps(detail, sort_keys=True))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
