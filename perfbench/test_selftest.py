"""Self-test of the benchmark harness on a tiny instance of each workload.

    python3 -m pytest perfbench/test_selftest.py -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import END_TO_END, PER_LAYER, PINS, failed_jobs, run_pass  # noqa: E402
from speed import PROBE_REF_S, stretch  # noqa: E402
from workloads import WORKLOADS, make_jobs  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())

# span names each workload is meant to exercise
EXERCISES = {
    "m3_closed": {"laurent.mul", "laurent.add", "laurent.divide_exact",
                  "zoo.e_jacobian", "moduli.e_m3"},
    "m3_pipeline": {"series.xmul", "series.sym_series", "series.geometric",
                    "laurent.as_polynomial", "zoo.e_projective",
                    "stability.sigma_range", "moduli.e_m3_via_pipeline",
                    "moduli.e_n31_closed"},
    "n31_sweep": {"flips.flip_contribution", "flips.c_n_even",
                  "flips.c_n_odd", "laurent.normalize", "laurent.fraction_eq",
                  "moduli.e_n31_flipsum", "zoo.e_sym", "rank2.e_m2s_even"},
    "verify_full": {"cli", "verify.case", "moduli.poincare_n31",
                    "moduli.poincare_m3", "stability.chi_triples"}
                   | {f"verify.{s}" for s in
                      ("algebra", "zoo", "rank2", "flips", "crosspath", "m3")},
}


@pytest.fixture(scope="module")
def traced():
    """One traced tiny pass per workload: (jobs, record)."""
    out = {}
    for workload in WORKLOADS:
        jobs = make_jobs(workload, seed=7, tiny=True)
        out[workload] = jobs, run_pass(jobs, trace=True, timeout=170)
    return out


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_outputs_match_pins(traced, workload):
    jobs, record = traced[workload]
    assert record["report"] is not None, record.get("error")
    assert failed_jobs(jobs, record, json.loads(PINS.read_text())) == []


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_workload_exercises_its_layers(traced, workload):
    calls = traced[workload][1]["report"]["calls"]
    idle = {name for name in EXERCISES[workload] if not calls.get(name)}
    assert not idle


def test_every_wrapped_function_is_exercised(traced):
    names = {
        name for _, record in traced.values() for name in record["report"]["calls"]
    } - {"trace"}
    called = {
        name for _, record in traced.values()
        for name, n in record["report"]["calls"].items() if n
    }
    assert names - called == set()


def test_m3_closed_bypasses_series_and_flips(traced):
    calls = traced["m3_closed"][1]["report"]["calls"]
    touched = {n: c for n, c in calls.items()
               if n.startswith(("series.", "flips.")) and c}
    assert touched == {}
    layers = traced["m3_closed"][1]["report"]["layers"]
    assert all(layers[m] == 0 for m in layers
               if m.startswith(("series.", "flips.")) and m.endswith(".calls"))


def test_a_wrong_output_counts_as_failed(traced):
    jobs, record = traced["m3_pipeline"]
    pins = dict.fromkeys((job["key"] for job in jobs), "0" * 64)
    assert len(failed_jobs(jobs, record, pins)) == len(jobs)


def test_stretch_scales_by_the_probes_around_it():
    ref = PROBE_REF_S
    # probes of ref at t=0 and of 2*ref at t=1; the probes' own time is left out
    ticks = [(0.0, ref), (1.0, 2 * ref)]
    raw, scaled = stretch(ticks, 0.0, 2.0)
    assert raw == pytest.approx((1.0 - ref) + (1.0 - 2 * ref))
    assert scaled == pytest.approx((1.0 - ref) / 1.5 + (1.0 - 2 * ref) / 2)
    assert stretch(ticks, -1.0, 0.0) == pytest.approx((1.0, 1.0))
    assert stretch([], 1.0, 3.0) == (2.0, 2.0)


def test_metric_names_match_benchmark_json():
    assert [m["name"] for m in BENCHMARK["end_to_end"]] == list(END_TO_END)
    assert [m["name"] for m in BENCHMARK["per_layer"]] == list(PER_LAYER)
    assert {w["name"] for w in BENCHMARK["workloads"]} <= set(WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
def test_command_prints_every_metric(trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "m3_closed",
         "--seed", "3", "--seconds", "0", "--trace", str(trace)],
        capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    names = END_TO_END if trace == 0 else PER_LAYER
    assert {n: m["unit"] for n, m in result["metrics"].items()} == names


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "m3_closed",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
