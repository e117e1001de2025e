"""Benchmark entry point: one workload, one seed, a fixed run length.

    python3 perfbench/run.py --workload exact_chain --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout (BENCHMARK.json gives the full
command, which pins the BLAS/OpenMP thread count).  With ``--trace 0`` the
run first times ``SETUP_SAMPLES`` fresh interpreters from start until
canonflow is imported and the inputs are built (``setup_s``, their median),
then repeats the workload's operation in this process until ``--seconds``
have passed, checking every output; ``wall_s`` is the median operation.
Both are scaled to the reference host speed that ``hostspeed.HostSpeed``
samples while they run.  With ``--trace 1`` it alternates an untraced and a
traced operation and reports per-layer numbers per traced operation plus the
tracing overhead, in unscaled wall time.  The last line of stdout is the
result JSON; the full record of the run goes to .perfbench_out/results/.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
SETUP_SAMPLES = 5
PROBE_TIMEOUT_S = 60


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def setup_probe(args):
    """Child side of a setup sample: import, build the inputs, report the clock.

    Prints the end time, the sampler's handler time and its mean kernel time.
    """
    from hostspeed import HostSpeed

    workdir = tempfile.mkdtemp(prefix="setup-", dir=OUT)
    try:
        with HostSpeed() as speed:
            import canonflow.cli  # noqa: F401
            from workloads import WORKLOADS
            WORKLOADS[args.workload](args.seed, workdir)
            end = time.monotonic()
        print(repr(end), repr(speed.handler_s), repr(speed.mean_kernel_s()))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure_setup(args):
    """Seconds from spawning a fresh interpreter to its inputs being built.

    Returns the samples scaled to reference host speed and the raw ones.
    """
    from hostspeed import REF_KERNEL_S

    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-probe"]
    scaled, raw = [], []
    for _ in range(SETUP_SAMPLES):
        start = time.monotonic()
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                              timeout=PROBE_TIMEOUT_S)
        if proc.returncode != 0:
            fail(f"setup probe exited {proc.returncode}:\n{proc.stderr}")
        end, handler_s, kernel_s = (float(v) for v in proc.stdout.split()[-3:])
        raw.append(end - start)
        scaled.append((end - start - handler_s) * REF_KERNEL_S / kernel_s)
    return scaled, raw


def run_operation(workload, record, speed=None):
    """One timed operation, then its checks; returns its wall time or None if it failed.

    With a ``HostSpeed`` sampler the wall time is scaled to reference speed.
    """
    try:
        with speed or contextlib.nullcontext():
            start = time.perf_counter()
            outputs = workload.operate()
            wall = time.perf_counter() - start
    except Exception:  # an operation that raises counts as failed, the run goes on
        record["failures"].append(traceback.format_exc())
        return None
    if speed is not None:
        record["raw_wall_s"].append(wall)
        record["kernel_s"].append(speed.mean_kernel_s())
        wall = speed.scale(wall)
    errors, problems = workload.check(outputs)
    record["errors"].append(errors)
    record["problems"] += problems
    return wall


def benchmark_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return spec["end_to_end"], spec["per_layer"]


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "canonflow", "__init__.py")):
        fail(f"no canonflow sources under {SRC}; run from a source checkout")
    sys.path[:0] = [SRC, HERE]
    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    if args.setup_probe:
        return setup_probe(args)
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    end_to_end, per_layer = benchmark_metrics()

    # import first, so every setup sample loads the same cached bytecode
    import canonflow.cli  # noqa: F401
    import layers
    from hostspeed import HostSpeed
    setup, raw_setup = measure_setup(args) if args.trace == 0 else ([], [])
    speed = HostSpeed() if args.trace == 0 else None

    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "setup_s": setup, "raw_setup_s": raw_setup,
              "wall_s": [], "raw_wall_s": [], "kernel_s": [], "traced_wall_s": [],
              "errors": [], "problems": [], "failures": []}
    attempted = 0
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        recorder = layers.Recorder()
        start = time.perf_counter()
        while True:
            attempted += 1
            wall = run_operation(workload, record, speed)
            if wall is not None:
                record["wall_s"].append(wall)
            if args.trace:
                uninstall = layers.install(recorder)
                try:
                    attempted += 1
                    wall = run_operation(workload, record)
                finally:
                    uninstall()
                if wall is not None:
                    record["traced_wall_s"].append(wall)
            if time.perf_counter() - start >= args.seconds:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = len(record["failures"])
    if args.trace:
        traced = len(record["traced_wall_s"])
        metrics = {m["name"]: {"value": recorder.value(m["name"], max(traced, 1)),
                               "unit": m["unit"]} for m in per_layer}
        if "trace.overhead_s" in metrics and traced and record["wall_s"]:
            metrics["trace.overhead_s"]["value"] = (
                statistics.median(record["traced_wall_s"])
                - statistics.median(record["wall_s"]))
    else:
        worst = max((max(errors.values()) for errors in record["errors"]),
                    default=math.inf)
        values = {
            "wall_s": statistics.median(record["wall_s"]) if record["wall_s"] else math.nan,
            "setup_s": statistics.median(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "accuracy_digits": -math.log10(worst) if worst > 0 else math.inf,
        }
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in end_to_end}
    record["metrics"] = metrics
    if not all(math.isfinite(m["value"]) for m in metrics.values()):
        fail(f"no finite measurement (failures: {record['failures']})")
    with open(os.path.join(OUT, "results", f"{args.workload}-seed{args.seed}"
                           f"-trace{args.trace}.json"), "w") as fh:
        json.dump(record, fh, indent=2)
    for problem in record["problems"]:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    for failure in record["failures"]:
        print(f"perfbench: operation failed:\n{failure}", file=sys.stderr)
    print(json.dumps({"correct": not record["problems"], "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
