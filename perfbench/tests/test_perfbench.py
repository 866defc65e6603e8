"""Tests of the benchmark's own code: inputs, oracles, tracer, exit contract.

    python3 -m pytest perfbench/tests -q
"""

import json
import os
import shutil
import subprocess
import sys
import time

os.environ["OPENBLAS_NUM_THREADS"] = "1"

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def traced_pass(workload, pass_id=1):
    trace = tracer.Tracer()
    trace.begin(pass_id)
    start = time.perf_counter()
    try:
        status = workload.run_pass()
    finally:
        wall = time.perf_counter() - start
        trace.end()
    return trace, status, wall


@pytest.mark.parametrize("seed", range(12))
def test_chain_generator_gives_positive_definite_m(seed):
    chain = workloads.make_chain(seed, 300)
    m = chain.K - np.diag(chain.Y**2)
    assert np.array_equal(chain.K, chain.K.T)
    assert np.all(np.abs(chain.Y) <= 0.5)
    assert np.linalg.eigvalsh(m)[0] >= 1.0 - 1e-9


def test_chain_model_bytes_repeat_for_a_seed(tmp_path):
    def model_bytes(seed, sub):
        path = tmp_path / sub
        path.mkdir()
        workload = workloads.ChainQP(seed, str(path))
        return (path / "chain.json").read_bytes(), workload.subsets

    first, second, other = model_bytes(7, "a"), model_bytes(7, "b"), model_bytes(8, "c")
    assert first == second
    assert first[0] != other[0] and first[1] != other[1]
    assert sorted({len(s) for s in first[1]}) == [10, 50, 100, 150, 300]


@pytest.mark.parametrize("name", ["chain-qp", "ring-window"])
def test_wrapping_changes_no_output_byte(name, tmp_path):
    workload = workloads.WORKLOADS[name](3, str(tmp_path))
    plain = workload.outputs(workload.run_pass())
    workload.clear_outputs()
    _, status, _ = traced_pass(workload)
    traced = workload.outputs(status)
    assert traced == plain
    failed, _ = workload.check(traced, deep=True)
    assert failed == set()


@pytest.mark.parametrize("name", ["chain-qp", "ring-window"])
def test_self_times_of_a_pass_fit_in_its_wall_time(name, tmp_path):
    workload = workloads.WORKLOADS[name](3, str(tmp_path))
    trace, _, wall = traced_pass(workload)
    profile = trace.pass_profile()
    assert profile
    assert all(self_s >= 0.0 for _, self_s in profile.values())
    assert sum(self_s for _, self_s in profile.values()) <= wall


def test_tracer_reaches_from_imports_and_restores_them():
    import oscent.experiments
    import oscent.negativity

    original = oscent.negativity.reduce_modes
    trace = tracer.Tracer()
    trace.begin(1)
    try:
        # negativity binds reduce_modes with "from .covariance import".
        assert oscent.negativity.reduce_modes is not original
        assert oscent.experiments.SweepTable.write_csv.__wrapped__ is not None
    finally:
        trace.end()
    assert oscent.negativity.reduce_modes is original
    assert not hasattr(oscent.experiments.SweepTable.write_csv, "__wrapped__")


def test_computed_counters_repeat_exactly(tmp_path):
    workload = workloads.RingWindow(0, str(tmp_path))
    counters = []
    for pass_id in (1, 2):
        trace, _, _ = traced_pass(workload, pass_id)
        counters.append(trace.counters())
        assert trace.pass_profile()["negativity.log_negativity"][0] == 740
    assert counters[0] == counters[1]
    # 101 x 7 adjacent rows share one index set per kappa; 11 x 3 disjoint do not.
    assert counters[0]["covariance.reduce_modes.distinct_frac"] == 40 / 740


def test_oracles_flag_a_perturbed_output(tmp_path):
    workload = workloads.ChainQP(0, str(tmp_path))
    outputs = workload.outputs(workload.run_pass())
    assert workload.check(outputs, deep=False)[0] == set()
    cells = outputs["report:3"].decode().split(",")
    cells[0] = repr(float(cells[0]) * (1.0 + 1e-6))    # determinant purity
    outputs["report:3"] = ",".join(cells).encode()
    failed, max_dev = workload.check(outputs, deep=False)
    assert failed == {"report:3"}
    assert max_dev > 1e-9


def test_reference_table_check_flags_a_shifted_value():
    reference = workloads.read_reference("lattice_d.csv")
    with open(os.path.join(workloads.REFERENCE_DIR, "lattice_d.csv"), "rb") as fh:
        data = fh.read()
    assert workloads.table_deviation(data, reference) == 0.0
    shifted = data.replace(b"\n0,1,", b"\n0,2,", 1)
    assert workloads.table_deviation(shifted, reference) == float("inf")


def test_benchmark_json_lists_the_metrics_run_reports():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] \
        == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == [row[:3] for row in run.PER_LAYER]


def test_run_fails_without_the_library_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "work", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "chain-qp", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_calibration_round_reports_wall_and_cpu_seconds():
    import calibrate

    wall, cpu = calibrate.Calibration().run()
    assert 0.0 < wall < 10.0 and 0.0 < cpu < 10.0
