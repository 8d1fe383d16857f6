#!/usr/bin/env python3
"""Benchmark of the ``sowa`` pipeline: three workloads, end-to-end metrics,
and a traced run for per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py                       # all workloads, one table
    python3 perfbench/run.py --workload infer-224 --seed 0 --seconds 30 --trace 0

With ``--workload`` naming one workload, the last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``: end-to-end metrics with ``--trace 0``, per-layer metrics with
``--trace 1``. The run exits non-zero when any output check fails. Full
records (environment, sample counts, spans) go to ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import glob
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULTS = os.path.join(HERE, "results")
WORKLOAD_NAMES = ("infer-224", "train-64", "eval-64")
DEFAULT_SEED = 0
DEFAULT_SECONDS = 30
# Set-up runs SETUPS times before the measured part and again between its
# units whenever set-ups have taken less than SETUP_SHARE of the time so
# far. Host speed on a shared machine changes over seconds, so set-ups
# spread over the whole run give a median that one slow spell moves little.
SETUPS = 5
SETUP_SHARE = 0.1
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def limit_blas_threads() -> int:
    """Run BLAS on one thread; must run before numpy loads.

    On a few shared cores a second BLAS thread made ``predict`` no faster
    and its time less steady, so the benchmark measures the program on one.
    Returns the usable core count for the environment record.
    """
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    return len(os.sched_getaffinity(0))


def blas_threads():
    """Thread count OpenBLAS reports, or the requested one if it cannot be asked."""
    import numpy as np

    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                return int(getattr(lib, symbol)())
    return int(os.environ["OPENBLAS_NUM_THREADS"])


def git_commit() -> str:
    """HEAD of the checkout read from ``.git`` directly; 'unknown' elsewhere."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref), encoding="utf-8") as fh:
                return fh.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
                for line in fh:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(cores: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas_name = "unknown"
    return {
        "nproc": cores,
        "blas": blas_name,
        "blas_threads": blas_threads(),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "commit": git_commit(),
    }


def timed_setup(workload, seed: int, setup_seconds: list):
    """One set-up of ``workload``; its time is appended to ``setup_seconds``."""
    # each set-up starts from a collected heap, so that neither its time nor
    # the peak RSS depends on when the collector last ran
    gc.collect()
    start = time.perf_counter()
    state = workload.setup(seed)
    setup_seconds.append(time.perf_counter() - start)
    return state


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Set up, run and check one workload in this process."""
    from tracer import REPORTED, Tracer, layer_metrics
    from workloads import WORKLOADS, Phase

    workload = WORKLOADS[name]()
    setup_tracer = Tracer()
    setup_seconds = []
    states = []  # the last set-up; a traced run keeps a twin of it too
    keep = 2 if trace else 1
    if trace:
        setup_tracer.install()
    try:
        for _ in range(SETUPS):
            states = (states + [timed_setup(workload, seed, setup_seconds)])[-keep:]
    finally:
        setup_tracer.remove()
    state = states[-1]

    failures = []
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
              "setup_seconds": setup_seconds}
    if not trace:
        phase = Phase()
        steps = workload.steps(state, seed, phase)
        origin = time.perf_counter()
        deadline = origin + seconds
        busy_setting_up = 0.0
        while workload.more(phase, deadline):
            next(steps)
            if busy_setting_up < SETUP_SHARE * (time.perf_counter() - origin):
                timed_setup(workload, seed, setup_seconds)
                busy_setting_up += setup_seconds[-1]
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = workload.end_to_end(state, phase)
        metrics["setup_s"] = (statistics.median(setup_seconds), "s")
        metrics["peak_rss_mb"] = (peak_mb, "MB")
        attempted, failed = phase.ops, phase.failed
    else:
        # Untraced and traced units alternate, each on its own copy of the
        # state, so that drift in host speed cancels out of the overhead.
        plain, phase = Phase(), Phase()
        plain_steps = workload.steps(states[0], seed, plain)
        traced_steps = workload.steps(state, seed, phase)
        tracer = Tracer()
        origin = time.perf_counter()
        deadline = origin + seconds
        while workload.more(plain, deadline):
            next(plain_steps)
            with tracer:
                next(traced_steps)
        state = states[0]
        leftover = tracer.leftover_wrappers() + setup_tracer.leftover_wrappers()
        if leftover:
            failures.append(f"wrappers left in place: {leftover}")
        if phase.outputs != plain.outputs:
            failures.append("traced outputs differ from untraced outputs")
        layers = layer_metrics(tracer, phase.ops, setup_tracer, len(setup_seconds))
        layers["trace.overhead_pct"] = (
            (phase.busy_seconds() / plain.busy_seconds() - 1.0) * 100.0, "%")
        layers["trace.coverage_pct"] = (
            tracer.top_level_seconds() / phase.busy_seconds() * 100.0, "%")
        # The result line carries the layers every workload calls; the
        # record and the "layers" line carry every layer this one called.
        metrics = {metric: layers.get(metric, (0.0, unit)) for metric, unit in REPORTED.items()}
        record["layers"] = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
        record["trace_dump"] = tracer.dump(origin)
        record["untraced_unit_seconds"] = plain.unit_seconds
        attempted, failed = plain.ops + phase.ops, plain.failed + phase.failed

    failures += workload.check(state, phase)
    record.update(unit_seconds=phase.unit_seconds, unit_kinds=phase.unit_kinds,
                  samples={"units": phase.units, "ops": phase.ops}, failures=failures,
                  report=workload.report(phase))
    return {
        "result": {
            "correct": not failures,
            "attempted": attempted,
            "failed": failed,
            # a metric left non-finite by a failed operation is left out;
            # the failure already makes the run incorrect
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()
                        if math.isfinite(v)},
        },
        "record": record,
    }


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS is its own."""
    status = 0
    summary = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            sys.stderr.write(proc.stderr)
            print(f"{name}: no result (exit {proc.returncode})")
            status = 1
            continue
        summary[name] = result
        if proc.returncode != 0 or not result["correct"]:
            status = 1
            sys.stderr.write(proc.stderr)
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        for metric, entry in result["metrics"].items():
            print(f"  {metric:40s} {entry['value']:>14.6g} {entry['unit']}")
    print(json.dumps(summary))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-golden", action="store_true",
                        help="re-pin golden predict outputs from the current code and exit")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    cores = limit_blas_threads()
    src = os.path.join(ROOT, "src")
    sys.path[:0] = [HERE, src]
    try:
        import sowa
    except ImportError as exc:
        sys.stderr.write(f"cannot import sowa from {src}: {exc}\n")
        return 2
    if os.path.dirname(os.path.dirname(os.path.abspath(sowa.__file__))) != src:
        sys.stderr.write(f"sowa was imported from {sowa.__file__}, not from {src}\n")
        return 2

    if args.write_golden:
        from workloads import write_golden

        write_golden()
        return 0
    if args.workload == "all":
        return run_all(args)

    out = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    record = out["record"]
    record["environment"] = environment(cores)
    record["result"] = out["result"]
    os.makedirs(RESULTS, exist_ok=True)
    path = os.path.join(RESULTS, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    print("environment " + json.dumps(record["environment"]))
    print("samples " + json.dumps(record["samples"]))
    if record["report"]:
        print("report " + json.dumps(record["report"]))
    if "layers" in record:
        print("layers " + json.dumps(record["layers"]))
    for failure in record["failures"]:
        print("CHECK FAILED: " + failure)
    print(json.dumps(out["result"]))
    return 0 if out["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
