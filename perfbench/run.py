"""Benchmark of the triplehodge package: cold-cache workloads, one pass per
fresh interpreter, outputs checked against pinned digests.

    python3 perfbench/run.py --workload m3_closed --seed 1 --seconds 55 --trace 0

Each pass starts a new interpreter (empty ``@cache`` state, no
``HODGE_THREADS``) that runs the workload's jobs one after another: a
closed loop with a single client.  Passes repeat until ``--seconds`` have
gone by, and each metric is the median over the passes.  With
``--trace 0`` every pass is probed for the host's speed (``speed.py``)
and its times are scaled to a fixed speed; the last stdout line carries
the end-to-end metrics.  With
``--trace 1`` untraced and traced passes alternate and it carries the
per-layer metrics, measured from outside by ``tracer.py``.  A job whose
output differs from ``pinned.json``, or that raises, counts in
``failed``; any failure makes the exit code 1.  See README.md for the
workloads.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from speed import probe, stretch
from workloads import WORKLOADS, make_jobs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PACKAGE = SRC / "triplehodge"
OUT = HERE / "out"
PINS = HERE / "pinned.json"
REPORT_TAG = "PERFBENCH-REPORT "
DEADLINE_S = 170.0  # a run must end within 180 s
PROBE_INTERVAL_S = 0.05  # how often a pass's speed is probed with --trace 0

MODULES = ("init", "errors", "laurent", "series", "zoo", "rank2",
           "stability", "flips", "moduli", "verify", "cli")

END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

_TIMED = ("calls", "self_s")
PER_LAYER = {
    **{f"laurent.divide_exact.{m}": u for m, u in (
        ("calls", "count"), ("self_s", "s"), ("num_terms", "count"),
        ("max_num_terms", "count"), ("ok_ratio", "ratio"))},
    **{f"laurent.mul.{m}": u for m, u in (
        ("calls", "count"), ("self_s", "s"), ("term_products", "count"),
        ("max_coeff_bits", "bits"))},
    "laurent.add.calls": "count",
    "laurent.add.self_s": "s",
    "laurent.normalize.calls": "count",
    "laurent.normalize.self_s": "s",
    "laurent.normalize.collapsed_ratio": "ratio",
    **{f"laurent.{f}.{m}": ("s" if m == "self_s" else "count")
       for f in ("fraction_eq", "as_polynomial") for m in _TIMED},
    "series.xmul.calls": "count",
    "series.xmul.self_s": "s",
    "series.xmul.coeff_products": "count",
    "series.sym_series.calls": "count",
    "series.sym_series.self_s": "s",
    "series.geometric.calls": "count",
    "series.max_order": "count",
    "series.coeff_used_ratio": "ratio",
    "flips.flip_contribution.calls": "count",
    "flips.flip_contribution.self_s": "s",
    "flips.flip_contribution.distinct_ratio": "ratio",
    **{f"flips.{f}.{m}": ("s" if m == "self_s" else "count")
       for f in ("c_n_even", "c_n_odd") for m in _TIMED},
    "stability.calls": "count",
    "stability.self_s": "s",
    **{f"{layer}.{m}": u for layer in ("zoo", "rank2") for m, u in (
        ("calls", "count"), ("self_s", "s"), ("cache_hit_ratio", "ratio"))},
    **{f"moduli.{f}.{m}": ("s" if m == "self_s" else "count")
       for f in ("e_m3", "e_m3_via_pipeline", "e_n31_closed",
                 "e_n31_flipsum", "poincare_n31", "poincare_m3")
       for m in _TIMED},
    "moduli.cache_hit_ratio": "ratio",
    **{f"verify.{s}.wall_s": "s" for s in (
        "algebra", "zoo", "rank2", "flips", "crosspath", "m3")},
    "verify.cases": "count",
    "verify.case_max_s": "s",
    "cli.self_s": "s",
    "result.terms": "count",
    "result.max_terms": "count",
    "result.max_coeff_bits": "bits",
    **{f"{m}.lines": "lines" for m in MODULES},
    "src.lines": "lines",
    "trace.overhead_ratio": "ratio",
    "trace.cover_ratio": "ratio",
    "trace.self_s": "s",
    "trace.spans": "count",
    "env.nproc": "count",
    "env.load1_start": "load",
    "env.load1_end": "load",
    "env.probe_s": "s",
}


def load1() -> float:
    """One-minute load average, read-only from /proc (0.0 if absent)."""
    try:
        return float(Path("/proc/loadavg").read_text().split()[0])
    except (OSError, ValueError, IndexError):
        return 0.0


def line_counts() -> dict[str, int]:
    """Lines of each package module and of all of src/."""
    out = {}
    for module in MODULES:
        path = PACKAGE / ("__init__.py" if module == "init" else f"{module}.py")
        out[f"{module}.lines"] = (
            len(path.read_bytes().splitlines()) if path.is_file() else 0
        )
    out["src.lines"] = sum(
        len(p.read_bytes().splitlines()) for p in SRC.rglob("*.py")
    )
    return out


def run_pass(jobs: list[dict], trace: bool, timeout: float,
             spans: Path | None = None, probe_every: float = 0.0) -> dict:
    """Run one pass in a fresh interpreter and return its record.

    The record holds the child's report plus ``wall`` (the end-to-end
    wall time), ``setup`` and ``stdout``, and ``scaled``: wall, CPU and
    set-up time at the probes' reference speed (equal to the raw times
    unless ``probe_every`` > 0).  ``report`` is None when the child died
    or timed out.
    """
    env = dict(os.environ)
    env.pop("HODGE_THREADS", None)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    cli = "argv" in jobs[0]
    spec = {"jobs": jobs, "trace": trace, "spans": str(spans) if spans else None,
            "probe": probe_every}
    cmd = [sys.executable, str(HERE / "child.py"), "cli" if cli else "lib",
           json.dumps(spec)]
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"report": None, "error": f"pass timed out after {timeout:.0f}s"}
    ended = time.monotonic()
    stderr = proc.stderr.decode(errors="replace")
    lines = [l for l in stderr.splitlines() if l.startswith(REPORT_TAG)]
    if proc.returncode != 0 or not lines:
        return {"report": None,
                "error": f"child exited {proc.returncode}: {stderr[-2000:]}"}
    report = json.loads(lines[-1][len(REPORT_TAG):])
    ticks, (work_start, work_end) = report["ticks"], report["work"]
    # the command-line workload waits for the process from its spawn
    wall = stretch(ticks, started if cli else work_start, work_end)
    # the process's CPU time less the probes', at the speed of all of it
    whole = stretch(ticks, started, work_end)
    cpu = report["cpu_s"] - sum(took for _, took in ticks)
    return {
        "report": report,
        "setup": report["setup_done"] - started,
        "wall": ended - started if cli else report["wall_s"],
        "scaled": {
            "wall_s": wall[1],
            "cpu_s": cpu * whole[1] / whole[0],
            "setup_s": stretch(ticks, started, report["setup_done"])[1],
        },
        "stdout": proc.stdout,
    }


def job_outputs(jobs: list[dict], record: dict) -> list[object]:
    """The pinnable output of each job, or None for a job that failed."""
    report = record["report"]
    if report is None:
        return [None] * len(jobs)
    outputs = []
    for job, got in zip(jobs, report["jobs"]):
        if got.get("error"):
            outputs.append(None)
        elif "argv" in job:
            outputs.append({"exit": got["exit"], "stdout_sha256":
                            hashlib.sha256(record["stdout"]).hexdigest()})
        else:
            outputs.append(got["digest"])
    return outputs


def failed_jobs(jobs: list[dict], record: dict, pins: dict) -> list[str]:
    """Keys of the jobs that raised or whose output differs from its pin."""
    return [
        job["key"] for job, output in zip(jobs, job_outputs(jobs, record))
        if output is None or output != pins.get(job["key"])
    ]


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _metric(value, unit) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (PACKAGE / "__init__.py").is_file() or not PINS.is_file():
        print(f"error: {PACKAGE} or {PINS} is missing; run from a checkout",
              file=sys.stderr)
        return 2

    pins = json.loads(PINS.read_text())
    env = {
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
        "load1_start": load1(),
        "probe_s": _median([probe() for _ in range(25)]),
    }
    jobs = make_jobs(args.workload, args.seed)
    spans = None
    if args.trace:
        OUT.mkdir(exist_ok=True)
        spans = OUT / f"spans-{args.workload}.jsonl"

    start = time.monotonic()
    passes: list[tuple[bool, dict]] = []
    attempted = failed = 0
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        begun = time.monotonic()
        record = run_pass(jobs, traced, DEADLINE_S - (begun - start),
                          spans if traced else None,
                          0.0 if args.trace else PROBE_INTERVAL_S)
        attempted += len(jobs)
        bad = failed_jobs(jobs, record, pins)
        failed += len(bad)
        if bad:
            print(f"pass {len(passes)}: failed {bad}", file=sys.stderr)
        if record["report"] is None:
            print(f"pass {len(passes)}: {record['error']}", file=sys.stderr)
            break
        passes.append((traced, record))
        # do not start a pass that, as long as the last, would overrun
        now = time.monotonic()
        if (now - start) + (now - begun) > args.seconds and (
                not args.trace or len(passes) >= 2):
            break
    env["load1_end"] = load1()
    print("env " + json.dumps(env))

    plain = [r for t, r in passes if not t]
    traced = [r for t, r in passes if t]
    if args.trace:
        metrics = per_layer(plain, traced, env)
    else:
        samples = {
            name: [r["scaled"][name] for r in plain]
            for name in ("wall_s", "cpu_s", "setup_s")
        }
        samples["peak_rss_mb"] = [r["report"]["peak_rss_mb"] for r in plain]
        raw = {
            "wall_s": [r["wall"] for r in plain],
            "cpu_s": [r["report"]["cpu_s"] for r in plain],
            "setup_s": [r["setup"] for r in plain],
        }
        for name, values in samples.items():
            print(f"{name}: n={len(values)} median={_median(values):.6g} "
                  f"min={min(values, default=0):.6g} "
                  f"max={max(values, default=0):.6g} {END_TO_END[name]}"
                  + (f" (unscaled median {_median(raw[name]):.6g})"
                     if name in raw else ""))
        metrics = {n: _metric(_median(v), END_TO_END[n])
                   for n, v in samples.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 1 if failed else 0


def per_layer(plain: list[dict], traced: list[dict], env: dict) -> dict:
    values: dict[str, float] = {}
    layers = [r["report"]["layers"] for r in traced]
    for name in layers[0] if layers else ():
        values[name] = _median([l[name] for l in layers])
    # the jobs' own wall time, without process start-up or writing spans
    values["trace.overhead_ratio"] = (
        _median([r["report"]["wall_s"] for r in traced])
        / _median([r["report"]["wall_s"] for r in plain])
        if plain and traced else 0.0
    )
    values["trace.cover_ratio"] = _median(
        [l["trace.self_sum_s"] / r["report"]["wall_s"]
         for l, r in zip(layers, traced)]
    )
    jobs = traced[-1]["report"]["jobs"] if traced else []
    terms = [j.get("terms", 0) for j in jobs]
    values["result.terms"] = sum(terms)
    values["result.max_terms"] = max(terms, default=0)
    values["result.max_coeff_bits"] = max(
        (j.get("coeff_bits", 0) for j in jobs), default=0)
    values.update(line_counts())
    values["env.nproc"] = env["nproc"]
    values["env.load1_start"] = env["load1_start"]
    values["env.load1_end"] = env["load1_end"]
    values["env.probe_s"] = env["probe_s"]
    return {name: _metric(values.get(name, 0), unit)
            for name, unit in PER_LAYER.items()}


if __name__ == "__main__":
    sys.exit(main())
