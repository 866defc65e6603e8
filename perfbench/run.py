"""Benchmark of the oscent pipeline, end to end and layer by layer.

    python3 perfbench/run.py --workload ring-window --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one table

Run it from anywhere inside a source checkout; it imports ``oscent`` from
``src/`` and needs no install. Every process it starts gets
``OPENBLAS_NUM_THREADS=1`` before numpy is imported, and all of them run on
one CPU, one at a time.

``--trace 0`` measures the end-to-end metrics with tracing off. The run starts
a few fresh worker processes in turn (``worker.py``); each pays set-up, runs
one cold pass and then warm passes, and ``--seconds`` is shared among them.
Before each worker, two more fresh processes only set up and exit:

* ``wall_s``, ``cpu_s``: median wall and process CPU time (user + sys, all
  threads) of a warm pass;
* ``cold_s``: median wall time of the first pass in a fresh interpreter;
* ``setup_s``: median time from spawning a fresh interpreter until its first
  pass can begin (interpreter start, ``import oscent``, ``oscent.cli`` and the
  workload's inputs);
* ``peak_rss_mib``: median peak resident set (``ru_maxrss``) of the workers
  at the end of their cold pass.

The speed of this kind of shared machine drifts by up to +-20% within a
minute, so every time above is rescaled by calibration work timed between
the passes (``calibrate.py``): it reads as seconds at the machine speed where
the calibration takes 0.25 s, one factor per run. The raw medians sit beside
them in the table and the results file.

``--trace 1`` runs one worker that alternates untraced and traced passes and
reports the per-layer metrics: calls and self time of the wrapped library
functions, the counters computed from argument shapes, the tracing overhead
and the largest deviation from the workload's oracles.

Every pass is checked against its oracles outside the timed region. The last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines above it are a readable table that also
gives ``error_rate`` (failed over attempted operations). The samples behind
each median, the environment and the seed go to ``perfbench/results/``.
"""

import os
import sys

os.environ["OPENBLAS_NUM_THREADS"] = "1"  # inherited by every worker

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
RESULTS_DIR = os.path.join(HERE, "results")
WORK_DIR = os.path.join(HERE, "work")

WORKLOADS = ("ring-window", "ring-size", "chain-qp")

# Fresh worker processes per measuring run. Each yields one set-up, one cold
# pass and one peak-RSS sample and runs at least one warm pass, so a run can
# outlast --seconds when passes are slow; the 4 s ring-size pass allows three.
WORKERS = {"ring-window": 5, "ring-size": 3, "chain-qp": 5}

# Set-up-only processes started before each measuring worker. Set-up takes
# 0.2-0.5 s and scatters by 20% from one process to the next, so it needs
# more samples than the workers alone give.
SETUP_PROBES_PER_WORKER = 2

WORKER_TIMEOUT_S = 90.0

END_TO_END = (
    ("wall_s", "s", "lower"),
    ("cpu_s", "s", "lower"),
    ("cold_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mib", "MiB", "lower"),
)

# (name, unit, better, source). "computed" values come from argument shapes
# and call counts, so they repeat exactly; "measured" ones are timings.
PER_LAYER = (
    ("negativity.log_negativity.calls", "count", "lower", "computed"),
    ("negativity.log_negativity.self_s", "s", "lower", "measured"),
    ("negativity.log_negativity.m3_sum", "count", "lower", "computed"),
    ("covariance.reduce_modes.calls", "count", "lower", "computed"),
    ("covariance.reduce_modes.self_s", "s", "lower", "measured"),
    ("covariance.reduce_modes.distinct_frac", "ratio", "higher", "computed"),
    ("linalg.eig_sym.calls", "count", "lower", "computed"),
    ("linalg.eig_sym.self_s", "s", "lower", "measured"),
    ("linalg.eig_sym.n3_sum", "count", "lower", "computed"),
    ("models.normal_modes.calls", "count", "lower", "computed"),
    ("models.normal_modes.self_s", "s", "lower", "measured"),
    ("models.assemble_ky.self_s", "s", "lower", "measured"),
    ("covariance.classical_covariance.calls", "count", "lower", "computed"),
    ("covariance.classical_covariance.self_s", "s", "lower", "measured"),
    ("covariance.classical_covariance.mib_out", "MiB", "lower", "computed"),
    ("covariance.classical_covariance.used_frac", "ratio", "higher", "computed"),
    ("linalg.require_symmetric.calls", "count", "lower", "computed"),
    ("linalg.require_symmetric.self_s", "s", "lower", "measured"),
    ("linalg.symplectic_spectrum.calls", "count", "lower", "computed"),
    ("linalg.symplectic_spectrum.self_s", "s", "lower", "measured"),
    ("measures.purity_from_determinant.self_s", "s", "lower", "measured"),
    ("models.load_model.self_s", "s", "lower", "measured"),
    ("measures.measure_report.calls", "count", "lower", "computed"),
    ("measures.measure_report.self_s", "s", "lower", "measured"),
    ("measures.sigma_tilde.self_s", "s", "lower", "measured"),
    ("measures.alpha_family.self_s", "s", "lower", "measured"),
    ("cli.main.calls", "count", "lower", "computed"),
    ("cli.main.self_s", "s", "lower", "measured"),
    ("experiments.SweepTable.write_csv.self_s", "s", "lower", "measured"),
    ("experiments.read_sweep_csv.self_s", "s", "lower", "measured"),
    ("experiments.lattice_adjacent_sweep.self_s", "s", "lower", "measured"),
    ("experiments.lattice_disjoint_sweep.self_s", "s", "lower", "measured"),
    ("experiments.lattice_size_sweep.self_s", "s", "lower", "measured"),
    ("experiments.fit_adjacent_cft.self_s", "s", "lower", "measured"),
    ("experiments.fit_kappa_asymptote.self_s", "s", "lower", "measured"),
    ("experiments.saturation_curve.calls", "count", "lower", "computed"),
    ("trace.wall_s", "s", "lower", "measured"),
    ("trace.self_sum_s", "s", "lower", "measured"),
    ("trace.overhead_s", "s", "lower", "measured"),
    ("check.max_dev", "1", "lower", "measured"),
)


class BenchmarkError(Exception):
    """A worker could not run: the benchmark has no result to print."""


def git_sha():
    """Commit of the checkout from .git, or None outside a git repository."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, *ref.split("/"))
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def run_worker(workload, seed, mode, budget, tag, spans=None):
    """Run one worker to completion; its result, set-up time and rusage."""
    workdir = os.path.join(WORK_DIR, tag)
    os.makedirs(workdir)
    result_path = os.path.join(workdir, "result.json")
    log_path = os.path.join(workdir, "worker.log")
    cmd = [sys.executable, WORKER, "--workload", workload, "--seed", str(seed),
           "--mode", mode, "--budget", repr(budget), "--workdir", workdir,
           "--result", result_path]
    if spans:
        cmd += ["--spans", spans]
    try:
        with open(log_path, "wb") as log:
            spawned_at = time.monotonic()
            proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=log,
                                    stderr=subprocess.STDOUT, cwd=ROOT)
            timer = threading.Timer(WORKER_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, rusage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0 or not os.path.exists(result_path):
            with open(log_path, encoding="utf-8", errors="replace") as fh:
                tail = fh.read()[-2000:]
            raise BenchmarkError(
                f"worker for {workload} exited with {proc.returncode}:\n{tail}")
        with open(result_path, encoding="utf-8") as fh:
            result = json.load(fh)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result["setup_s"] = result["ready_at"] - spawned_at
    result["exit_rss_mib"] = rusage.ru_maxrss / 1024.0
    return result


def summary(values):
    return {"median": statistics.median(values), "min": min(values),
            "max": max(values), "n": len(values), "samples": values}


def speed_factors(workers):
    """Factors that rescale wall and CPU seconds to the reference speed.

    One pair per run, from the median of all its calibration rounds: the
    rounds are as noisy as single passes, so they track the slow drift of the
    machine and are not applied pass by pass.
    """
    rounds = [r for w in workers for r in w["calibration"]]
    reference = workers[0]["reference_s"]
    return (reference / statistics.median(r[0] for r in rounds),
            reference / statistics.median(r[1] for r in rounds))


def measure(workload, seed, seconds, run_tag):
    count = WORKERS[workload]
    deadline = time.monotonic() + seconds
    workers, setups = [], []
    for i in range(count):
        setups += [run_worker(workload, seed, "setup", 0.0, f"{run_tag}-{i}-{j}")["setup_s"]
                   for j in range(SETUP_PROBES_PER_WORKER)]
        budget = (deadline - time.monotonic()) / (count - i)
        workers.append(run_worker(workload, seed, "measure", budget, f"{run_tag}-{i}"))
        setups.append(workers[-1]["setup_s"])
    wall, cpu = speed_factors(workers)
    passes = [p for w in workers for p in w["passes"]]
    warm = [p for p in passes if p["kind"] == "warm"]
    cold = [p for p in passes if p["kind"] == "cold"]
    raw = {
        "wall_s": [p["wall_s"] for p in warm],
        "cpu_s": [p["cpu_s"] for p in warm],
        "cold_s": [p["wall_s"] for p in cold],
        "setup_s": setups,
    }
    samples = {
        "wall_s": [t * wall for t in raw["wall_s"]],
        "cpu_s": [t * cpu for t in raw["cpu_s"]],
        "cold_s": [t * wall for t in raw["cold_s"]],
        "setup_s": [t * wall for t in raw["setup_s"]],
        "peak_rss_mib": [p["peak_rss_mib"] for p in cold],
    }
    stats = {name: summary(samples[name]) for name, _, _ in END_TO_END}
    for name, values in raw.items():
        stats[name]["raw"] = summary(values)
    metrics = {name: {"value": stats[name]["median"], "unit": unit}
               for name, unit, _ in END_TO_END}
    return workers, passes, metrics, stats


def trace(workload, seed, seconds, run_tag):
    spans = os.path.join(RESULTS_DIR, f"{run_tag}.spans.jsonl")
    worker = run_worker(workload, seed, "trace", seconds, f"{run_tag}-0", spans)
    passes = worker["passes"]
    wall, _ = speed_factors([worker])
    profiles = worker["trace"]["profiles"]
    counters = worker["trace"]["counters"]
    values = {}
    for name, _, _, _ in PER_LAYER:
        function, stat = name.rsplit(".", 1)
        if stat == "calls":
            values[name] = [p.get(function, (0, 0.0))[0] for p in profiles]
        elif stat == "self_s":
            values[name] = [p.get(function, (0, 0.0))[1] * wall for p in profiles]
    for name in counters[0]:
        values[name] = [c[name] for c in counters]
    traced = [p["wall_s"] * wall for p in passes if p["kind"] == "traced"]
    untraced = [p["wall_s"] * wall for p in passes if p["kind"] == "untraced"]
    values["trace.wall_s"] = traced
    values["trace.self_sum_s"] = [sum(v[1] for v in p.values()) * wall for p in profiles]
    # Each traced pass directly follows an untraced one; pair them.
    values["trace.overhead_s"] = [t - u for t, u in zip(traced, untraced)]
    values["check.max_dev"] = [max(p["max_dev"] for p in passes)]
    computed = [name for name, _, _, source in PER_LAYER if source == "computed"]
    repeat = all(len(set(map(repr, values[name]))) == 1 for name in computed)
    stats = {name: summary(values[name]) for name, _, _, _ in PER_LAYER}
    # Computed values repeat exactly (checked above), so report them as is.
    metrics = {name: {"value": values[name][0] if name in computed else stats[name]["median"],
                      "unit": unit}
               for name, unit, _, _ in PER_LAYER}
    return [worker], passes, metrics, stats, repeat


def run_one(workload, seed, seconds, traced):
    run_tag = f"{workload}-seed{seed}-trace{int(traced)}-{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}"
    if traced:
        workers, passes, metrics, stats, repeat = trace(workload, seed, seconds, run_tag)
    else:
        workers, passes, metrics, stats = measure(workload, seed, seconds, run_tag)
        repeat = True
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(len(p["failed"]) for p in passes)
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(traced),
        "git_sha": git_sha(), "env": workers[0]["env"],
        "workers": len(workers), "attempted": attempted, "failed": failed,
        "error_rate": failed / attempted, "counters_repeat": repeat,
        "metrics": stats,
        "calibration": [w.get("calibration") for w in workers],
        "sources": {name: source for name, _, _, source in PER_LAYER} if traced else {},
        "passes": passes,
    }
    with open(os.path.join(RESULTS_DIR, f"{run_tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    return record, metrics


def print_table(workload, record, metrics):
    env = record["env"]
    print(f"# {workload} seed={record['seed']} seconds={record['seconds']} "
          f"trace={record['trace']} workers={record['workers']} "
          f"numpy={env['numpy']} openblas_threads={env['openblas_threads']}")
    for name, metric in metrics.items():
        stat = record["metrics"][name]
        tag = record["sources"].get(name, "")
        if "raw" in stat:
            tag = f"raw {stat['raw']['median']:.6g}"
        print(f"{workload:12s} {name:44s} {metric['value']:14.6g} {metric['unit']:6s} "
              f"n={stat['n']:<3d} {tag}")
    print(f"{workload:12s} {'error_rate':44s} {record['error_rate']:14.6g} {'ratio':6s} "
          f"({record['failed']}/{record['attempted']} operations)")
    if record["trace"]:
        total = metrics["trace.self_sum_s"]["value"]
        shares = sorted(((metric["value"] / total, name[:-len(".self_s")])
                         for name, metric in metrics.items() if name.endswith(".self_s")),
                        reverse=True)
        print(f"{workload:12s} share of self time: "
              + ", ".join(f"{name} {share:.1%}" for share, name in shares[:4]))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "oscent", "__init__.py")):
        print(f"error: no oscent sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    chosen = WORKLOADS if args.workload == "all" else (args.workload,)
    # One CPU for every process of the run, inherited by the workers: on a
    # shared host the CPUs are contended unequally, and a process that moved
    # between them would time its passes and its calibration at different
    # speeds.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    os.makedirs(WORK_DIR, exist_ok=True)
    os.makedirs(RESULTS_DIR, exist_ok=True)
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    try:
        for workload in chosen:
            record, metrics = run_one(workload, args.seed, args.seconds, bool(args.trace))
            print_table(workload, record, metrics)
            total["correct"] = total["correct"] and record["failed"] == 0 \
                and record["counters_repeat"]
            total["attempted"] += record["attempted"]
            total["failed"] += record["failed"]
            prefix = "" if len(chosen) == 1 else f"{workload}."
            total["metrics"].update({prefix + k: v for k, v in metrics.items()})
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        try:
            os.rmdir(WORK_DIR)
        except OSError:
            pass
    print(json.dumps(total))
    return 0


if __name__ == "__main__":
    sys.exit(main())
