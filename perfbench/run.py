"""Benchmark of subspace_bounds: four closed-loop workloads, one process each.

    python3 perfbench/run.py --workload bound_solve --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25

A run imports the library from ``src/`` of the checkout it sits in, turns
the seed into one cycle of ops, warms up, and repeats whole cycles until
``--seconds`` have passed, one op at a time.  Outputs are checked after the
timed loop.  ``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs
the same cycles untraced and then traced, and prints per-layer metrics.
The last line of standard output is one JSON object.  A results file with
the machine record goes to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
WORKLOAD_NAMES = ("mc_risk", "bound_solve", "bound_search", "verify")
SETUP_SAMPLES = 5
# Time of the reference kernel that calibrated figures are scaled to: its
# median on a 2-vCPU x86-64 VM with Python 3.11 and numpy 2.4, so that they
# read as seconds on that machine.
REF_NOMINAL_S = 3.0e-4
REF_WINDOW = 5
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# One BLAS thread: the load generator uses no more threads than the machine
# has cores, and the matrices here are too small for BLAS threading to help.
for _var in BLAS_THREAD_VARS:
    os.environ.setdefault(_var, "1")


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _import_library():
    """Import subspace_bounds from this checkout's src/, or exit with code 2."""
    if not os.path.isfile(os.path.join(SRC, "subspace_bounds", "__init__.py")):
        print(f"error: no library source under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)
    import subspace_bounds

    if os.path.dirname(os.path.abspath(subspace_bounds.__file__)) != os.path.join(SRC, "subspace_bounds"):
        print(f"error: imported subspace_bounds from {subspace_bounds.__file__}", file=sys.stderr)
        sys.exit(2)


def _setup(name: str, seed: int, work_dir: str):
    """Generate the seed's inputs and warm up each layer the workload uses."""
    import workloads

    workload = workloads.WORKLOADS[name](work_dir)
    ops = workload.cycle(seed)
    workload.warm_up(ops)
    return workload, ops


def _timed_setup(args) -> tuple[list[float], float]:
    """Wall times of fresh interpreters that only set up, start to exit, and
    the median time of the reference kernel run between them."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload]
    cmd += ["--seed", str(args.seed), "--setup-only"]
    samples, refs = [], []
    for _ in range(SETUP_SAMPLES):
        refs += [_timed_reference() for _ in range(20)]
        start = time.perf_counter()
        # No timeout: Popen.wait with a timeout polls, in steps of up to 50 ms.
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL, cwd=ROOT)
        samples.append(time.perf_counter() - start)
    return samples, statistics.median(refs)


class Pass:
    """Outcome of repeating the cycle: per-op wall times and output summaries."""

    def __init__(self):
        self.times: list[float] = []
        self.results: list[tuple[int, bool, object]] = []  # (op index, raised, summary or error)
        self.cycles = 0
        self.wall = 0.0
        self.ref_times: list[float] = []


def _timed_reference() -> float:
    """Seconds taken by a fixed piece of interpreter-bound work.

    Scalar reads of a small numpy array and float updates of a list, the
    same kind of work as the library's Jacobi sweeps and push-relabel loop.
    Timed before every op, it gauges the CPU speed of that moment.
    """
    a = np.linspace(0.0, 1.0, 64).reshape(8, 8)
    row = [0.0] * 8
    start = time.perf_counter()
    for _ in range(12):
        for i in range(8):
            for j in range(8):
                x = a[i, j]
                row[j] = row[j] * 0.5 + x * x
    return time.perf_counter() - start


def _calibrated(times: list[float], refs: list[float]) -> list[float]:
    """Each time scaled by REF_NOMINAL_S over the local reference time
    (median of the reference runs within REF_WINDOW ops of it)."""
    out = []
    for i, seconds in enumerate(times):
        local = statistics.median(refs[max(0, i - REF_WINDOW) : i + REF_WINDOW + 1])
        out.append(seconds * REF_NOMINAL_S / local)
    return out


def _run_cycles(workload, ops, seconds: float | None, cycles: int | None = None) -> Pass:
    """Closed loop over whole cycles, so every run has the cycle's op mix.

    With `seconds`, a cycle starts only if it should end within half a
    cycle of the deadline; otherwise exactly `cycles` cycles run.
    """
    out = Pass()
    clock = time.perf_counter
    start = clock()

    def more() -> bool:
        if cycles is not None:
            return out.cycles < cycles
        elapsed = clock() - start
        return out.cycles == 0 or elapsed + 0.5 * elapsed / out.cycles < seconds

    while more():
        for k, op in enumerate(ops):
            out.ref_times.append(_timed_reference())
            t0 = clock()
            try:
                summary = workload.call(op)
            except Exception as exc:  # a failed op is counted, and the loop goes on
                out.times.append(clock() - t0)
                out.results.append((k, True, f"{type(exc).__name__}: {exc}"))
            else:
                out.times.append(clock() - t0)
                out.results.append((k, False, summary))
        out.cycles += 1
    out.wall = clock() - start
    return out


def _check(workload, ops, results) -> tuple[int, int, dict[str, dict]]:
    """(ops that passed, wrong values, {label: {error: count}} of every failure)."""
    passed = wrong = 0
    failures: dict[str, dict[str, int]] = {}
    for k, raised, outcome in results:
        error = outcome if raised else workload.check(ops[k], outcome)
        if error is None:
            passed += 1
            continue
        wrong += not raised
        tag = error if raised else f"wrong value: {error}"
        counts = failures.setdefault(ops[k].label, {})
        counts[tag] = counts.get(tag, 0) + 1
    return passed, wrong, failures


def _quantile(values: list[float], q: int) -> float:
    """The q-th percentile of values (statistics.quantiles, inclusive)."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _machine(seed: int) -> dict:
    import numpy
    import scipy
    import subspace_bounds.linalg as linalg

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "numba_active": bool(linalg._HAVE_NUMBA),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "platform": platform.platform(),
        "seed": seed,
    }


def _write_results(args, record: dict) -> str:
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def _end_to_end(args, workload, ops) -> tuple[dict, dict]:
    setup, setup_ref = _timed_setup(args)
    run = _run_cycles(workload, ops, args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    passed, wrong, failures = _check(workload, ops, run.results)
    extra = {}
    if hasattr(workload, "pool_check"):
        error = workload.pool_check(ops)
        extra["pool_check"] = error or "PASS"
        wrong += error is not None
    # On a shared host the CPU speed drifts by 20-40% over tens of seconds,
    # for every op alike.  Times are calibrated by the reference kernel timed
    # around them; each op counts with its median over its repetitions.
    per_op = [[] for _ in ops]
    per_op_calibrated = [[] for _ in ops]
    for (k, _, _), seconds, calibrated in zip(
        run.results, run.times, _calibrated(run.times, run.ref_times)
    ):
        per_op[k].append(seconds)
        per_op_calibrated[k].append(calibrated)
    typical = [statistics.median(times) for times in per_op_calibrated]
    metrics = {
        "setup_s": (statistics.median(setup) * REF_NOMINAL_S / setup_ref, "s"),
        "ops_per_s": (passed / len(run.results) * len(ops) / sum(typical), "1/s"),
        "op_s.p50": (statistics.median(typical), "s"),
        "op_s.p90": (_quantile(typical, 90), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    record = {
        "reference_nominal_s": REF_NOMINAL_S,
        "setup_samples_s": setup,
        "setup_reference_s": setup_ref,
        "cycles": run.cycles,
        "ops_per_cycle": len(ops),
        "samples": len(run.times),
        "timed_wall_s": run.wall,
        "wall_clock": {
            "ops_per_s": passed / run.wall,
            "op_s.p50": statistics.median(run.times),
            "op_s.p90": _quantile(run.times, 90),
        },
        "op_times_s": per_op,
        "ref_times_s": run.ref_times,
        **extra,
    }
    return metrics, {"attempted": len(run.results), "failed": len(run.results) - passed,
                     "wrong": wrong, "failures": failures, "record": record}


def _per_layer(args, workload, ops) -> tuple[dict, dict]:
    import tracer

    plain = _run_cycles(workload, ops, args.seconds / 2.0)
    with tracer.Tracer() as active:
        traced = _run_cycles(workload, ops, None, cycles=plain.cycles)
    ops_traced = len(traced.results)
    units = {name: unit for name, unit, _ in tracer.per_layer_metric_specs()}
    # Self times are calibrated like the end-to-end times, by the traced
    # pass's median reference time.
    speed = REF_NOMINAL_S / statistics.median(traced.ref_times)
    metrics = {
        name: (value * speed if name.endswith(".self_s") else value, units[name])
        for name, value in tracer.layer_metrics(active.spans, ops_traced).items()
    }
    generator_calls = sum(1 for s in active.spans if s.name == "models.RngStream.generator")
    estimates = [s for _, raised, s in traced.results if not raised and hasattr(s, "resampled")]
    replicates = sum(e.replicates for e in estimates)
    metrics["models.draws_useful_ratio"] = (
        replicates / generator_calls if replicates and generator_calls else 0.0, "ratio")
    metrics["risksim.resampled"] = (sum(e.resampled for e in estimates) / ops_traced, "count")
    overhead = sum(_calibrated(traced.times, traced.ref_times)) / sum(
        _calibrated(plain.times, plain.ref_times)
    )
    metrics["trace.overhead_ratio"] = (overhead, "ratio")
    spans_path = os.path.join(OUT, f"{args.workload}-seed{args.seed}-spans.json")
    os.makedirs(OUT, exist_ok=True)
    with open(spans_path, "w", encoding="utf-8") as handle:
        json.dump(tracer.span_records(active.spans), handle)
    results = plain.results + traced.results
    passed, wrong, failures = _check(workload, ops, results)
    record = {
        "cycles": plain.cycles,
        "untraced_wall_s": plain.wall,
        "traced_wall_s": traced.wall,
        "spans": len(active.spans),
        "spans_file": os.path.relpath(spans_path, ROOT),
    }
    return metrics, {"attempted": len(results), "failed": len(results) - passed,
                     "wrong": wrong, "failures": failures, "record": record}


def _run_all(args) -> int:
    """Each workload in its own process, one after another; a table of every metric."""
    results = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600)
        if proc.returncode != 0:
            print(f"error: workload {name} exited with code {proc.returncode}", file=sys.stderr)
            return proc.returncode
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    print(f"{'workload':<13} {'metric':<40} {'value':>14}  unit")
    for name, result in results.items():
        for metric, entry in result["metrics"].items():
            print(f"{name:<13} {metric:<40} {entry['value']:>14.6g}  {entry['unit']}")
        frac = result["failed"] / result["attempted"]
        print(f"{name:<13} {'failed_frac':<40} {frac:>14.6g}  fraction"
              f" ({result['failed']} of {result['attempted']} ops; correct={result['correct']})")
    print(json.dumps(results, sort_keys=True))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None) -> int:
    args = _parse_args(argv)
    if args.workload == "all":
        return _run_all(args)
    _import_library()
    sys.path.insert(0, HERE)
    work_dir = os.path.join(OUT, f"tmp-{args.workload}-{os.getpid()}")
    os.makedirs(work_dir, exist_ok=True)
    try:
        workload, ops = _setup(args.workload, args.seed, work_dir)
        if args.setup_only:
            return 0
        measure = _per_layer if args.trace else _end_to_end
        metrics, outcome = measure(args, workload, ops)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    for label, counts in outcome["failures"].items():
        for error, count in counts.items():
            print(f"FAILED x{count} [{label}] {error}", file=sys.stderr)
    correct = outcome["wrong"] == 0
    record = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": _machine(args.seed),
        "ops": [{"label": op.label, "fn": op.fn, "spec": op.spec} for op in ops],
        "correct": correct,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "failures": outcome["failures"],
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
        **outcome["record"],
    }
    path = _write_results(args, record)
    for name, (value, unit) in metrics.items():
        print(f"{name:<40} {value:>14.6g}  {unit}")
    print(f"results: {os.path.relpath(path, ROOT)}")
    print(json.dumps({
        "correct": correct,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
