"""One benchmark process: set a workload up, run timed passes, check them.

Started by ``run.py`` in a fresh interpreter, so that set-up and the first
(cold) pass are what an ``oscent <cmd>`` invocation pays::

    python3 perfbench/worker.py --workload ring-window --seed 1 \
        --mode measure --budget 6 --workdir DIR --result FILE

``--mode setup`` stops once set-up is done. ``--mode measure`` runs the cold
pass, then warm passes until ``--budget`` seconds have gone since set-up
ended (at least one warm pass). ``--mode trace`` runs the cold pass, then
pairs of one untraced and one traced pass until the budget is used (at least
one pair, at most 20), and compares their outputs byte for byte. Outputs are
checked after every pass, outside the timed region; the first pass also gets
the costlier oracles. The calibration work of ``calibrate.py`` runs after
the cold pass and then after at least every second of passes.

The result file holds ``ready_at`` (CLOCK_MONOTONIC when set-up ended), one
record per pass, the (wall, cpu) seconds of each calibration round and the
environment the process ran in.
"""

import os
import sys
import time

# Pin OpenBLAS before numpy can be imported: one thread is the plain
# baseline, and two threads made ring-window slower while doubling CPU time.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

# Spans of every traced pass stay in memory until the run ends; this caps
# them (and the span file) on workloads with short passes.
MAX_TRACED_PASSES = 20

CALIBRATE_EVERY_S = 1.0


def timed_pass(workload, kind, deep, tracer=None, pass_id=None):
    workload.clear_outputs()
    gc.collect()
    if tracer is not None:
        tracer.begin(pass_id)
    wall0 = time.perf_counter()
    cpu0 = time.process_time()
    try:
        status = workload.run_pass()
    finally:
        cpu = time.process_time() - cpu0
        wall = time.perf_counter() - wall0
        if tracer is not None:
            tracer.end()
    outputs = workload.outputs(status)
    failed, max_dev = workload.check(outputs, deep)
    errors = {label: str(value) for label, value in status.items()
              if isinstance(value, str) or (isinstance(value, int) and value != 0)}
    record = {"kind": kind, "wall_s": wall, "cpu_s": cpu,
              "attempted": len(workload.operations()), "failed": sorted(failed),
              "errors": errors, "max_dev": max_dev}
    return record, outputs


def cold_start(workload):
    """The cold pass, its peak resident set, then the calibration work.

    Nothing is calibrated before the cold pass: the calibration work would
    warm numpy's linear algebra, which the cold pass must pay for itself.
    The peak resident set is read before the calibration's own arrays exist.
    """
    from calibrate import Calibration

    record, _ = timed_pass(workload, "cold", deep=True)
    record["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    calibration = Calibration()
    return record, calibration, [calibration.run()]


def measure(workload, budget):
    deadline = time.perf_counter() + budget
    cold, calibration, rounds = cold_start(workload)
    passes = [cold]
    while True:
        # Calibrate after at least CALIBRATE_EVERY_S of passes, so that short
        # passes do not pay for a calibration each.
        segment_start = time.perf_counter()
        while True:
            record, _ = timed_pass(workload, "warm", deep=False)
            passes.append(record)
            if time.perf_counter() - segment_start >= CALIBRATE_EVERY_S:
                break
        rounds.append(calibration.run())
        if time.perf_counter() + record["wall_s"] + rounds[-1][0] > deadline:
            return passes, rounds


def trace(workload, budget, spans_path):
    from tracer import Tracer

    deadline = time.perf_counter() + budget
    cold, calibration, rounds = cold_start(workload)
    passes = [cold]
    tracer = Tracer()
    profiles, counters = [], []
    pass_id = 0
    while True:
        plain, plain_out = timed_pass(workload, "untraced", deep=False)
        pass_id += 1
        traced, traced_out = timed_pass(workload, "traced", deep=False,
                                        tracer=tracer, pass_id=pass_id)
        # Wrapping must change no output byte.
        traced["failed"] = sorted(set(traced["failed"]) | {
            label for label in traced_out if traced_out[label] != plain_out[label]})
        passes += [plain, traced]
        profiles.append({name: list(v) for name, v in tracer.pass_profile().items()})
        counters.append(tracer.counters())
        rounds.append(calibration.run())
        if (pass_id == MAX_TRACED_PASSES or time.perf_counter() + plain["wall_s"]
                + traced["wall_s"] + rounds[-1][0] > deadline):
            break
    tracer.write_spans(spans_path)
    return passes, rounds, {"profiles": profiles, "counters": counters}


def environment():
    import ctypes
    import platform

    import numpy

    env = {"python": platform.python_version(), "numpy": numpy.__version__,
           "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
           "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
           "openblas_config": None, "openblas_threads": None}
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for lib_path in libs:
        lib = ctypes.CDLL(lib_path)
        for suffix in ("64_", ""):
            for prefix in ("scipy_openblas_", "openblas_"):
                config = getattr(lib, f"{prefix}get_config{suffix}", None)
                threads = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
                if config is not None and threads is not None:
                    config.restype = ctypes.c_char_p
                    env["openblas_config"] = config().decode()
                    env["openblas_threads"] = int(threads())
                    return env
    return env


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    parser.add_argument("--budget", type=float, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args(argv)

    # Set-up: what every CLI invocation pays before its work starts.
    import oscent  # noqa: F401
    import oscent.cli  # noqa: F401
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed, args.workdir)
    ready_at = time.monotonic()

    import calibrate

    result = {"ready_at": ready_at, "reference_s": calibrate.REFERENCE_S}
    if args.mode == "measure":
        result["passes"], result["calibration"] = measure(workload, args.budget)
    elif args.mode == "trace":
        result["passes"], result["calibration"], result["trace"] = trace(
            workload, args.budget, args.spans)
    result["env"] = environment()
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
