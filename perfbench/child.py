"""One pass of a workload in a fresh interpreter.

Run by ``run.py`` as ``python3 child.py lib|cli SPEC_JSON`` with ``src``
on ``PYTHONPATH``.  The package import comes first, so the moment it
finishes marks the end of set-up.  Library jobs run one after another
and their results are digested after the last one; a command-line job
runs ``triplehodge.cli.main`` as the console script does, its stdout
going to this process's stdout.

When the spec asks for it, a ``speed.SpeedMeter`` probes the host's
speed from before the import until the jobs are done, and the report
carries its probes.

The report goes to stderr as one line starting with ``REPORT_TAG``.
"""

import json
import sys
import time

from speed import SpeedMeter

SPEC = json.loads(sys.argv[2])
METER = SpeedMeter(SPEC["probe"]) if SPEC.get("probe") else None
if METER is not None:
    METER.start()
if sys.argv[1] == "cli":
    import triplehodge.cli as _entry
else:
    import triplehodge as _entry
SETUP_DONE = time.monotonic()

import hashlib  # noqa: E402
import resource  # noqa: E402
from fractions import Fraction  # noqa: E402

from tracer import Tracer, instrument  # noqa: E402

REPORT_TAG = "PERFBENCH-REPORT "


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _args(values):
    return [Fraction(v) if isinstance(v, str) else v for v in values]


def _run_library(jobs, call):
    todo = [(getattr(_entry, job["fn"]), _args(job["args"])) for job in jobs]
    results = []
    start = time.monotonic()
    for index, (fn, args) in enumerate(todo):
        try:
            results.append((call(index, fn, args), None))
        except Exception as exc:  # every failure is reported, never dropped
            results.append((None, f"{type(exc).__name__}: {exc}"))
    end = time.monotonic()
    if METER is not None:
        METER.stop()
    out = []
    for result, error in results:
        if error is not None:
            out.append({"error": error})
            continue
        values = result.poly.terms.values()
        bits = max((abs(c).bit_length() for c in values), default=0)
        out.append({"digest": digest(result.poly.to_json()),
                    "terms": len(values), "coeff_bits": bits})
    return (start, end), out


def _run_cli(job, call):
    start = time.monotonic()
    try:
        code = call(0, _entry.main, [job["argv"]])
        error = None
    except Exception as exc:
        code, error = None, f"{type(exc).__name__}: {exc}"
    end = time.monotonic()
    if METER is not None:
        METER.stop()
    return (start, end), code, error


def main() -> int:
    cli = sys.argv[1] == "cli"
    jobs = SPEC["jobs"]
    tracer = None
    if SPEC["trace"]:
        tracer = Tracer()
        layer_counts = instrument(tracer)
        roots = {}

        def call(index, fn, args):
            tracer.job = index
            if fn not in roots:
                roots[fn] = tracer.span("cli" if cli else "job", fn)
            return roots[fn](*args)
    else:
        def call(index, fn, args):
            return fn(*args)

    report = {"setup_done": SETUP_DONE}
    if cli:
        work, code, error = _run_cli(jobs[0], call)
        sys.stdout.flush()
        report["jobs"] = [{"exit": code, "error": error}]
    else:
        work, report["jobs"] = _run_library(jobs, call)
    usage = resource.getrusage(resource.RUSAGE_SELF)
    report.update(
        work=work,
        ticks=METER.ticks if METER is not None else [],
        wall_s=work[1] - work[0],
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024,
    )
    if tracer is not None:
        report["layers"] = layer_counts()
        report["calls"] = tracer.calls
        if SPEC.get("spans"):
            tracer.write_spans(SPEC["spans"])
    sys.stderr.write(REPORT_TAG + json.dumps(report) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
