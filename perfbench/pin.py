"""Write pinned.json: the output digest of every job key of every workload.

    python3 perfbench/pin.py

Run it only on a commit whose outputs are trusted; the benchmark counts
every job whose output differs from these pins as failed.  Job keys do
not depend on the seed, and jobs sharing a key (e_m3 and
e_m3_via_pipeline at one genus; the closed and flip-sum routes on one
chamber) must agree, or nothing is written.
"""

import json
import sys
from itertools import product

from run import PINS, job_outputs, run_pass
from workloads import WORKLOADS, make_jobs


def main() -> int:
    pins: dict = {}
    for workload, tiny in product(WORKLOADS, (False, True)):
        jobs = make_jobs(workload, 0, tiny)
        record = run_pass(jobs, trace=False, timeout=600)
        for job, output in zip(jobs, job_outputs(jobs, record)):
            if output is None:
                print(f"error: {workload} job {job['key']} failed: "
                      f"{record.get('error') or record['report']['jobs']}",
                      file=sys.stderr)
                return 1
            if pins.setdefault(job["key"], output) != output:
                print(f"error: outputs disagree on {job['key']}", file=sys.stderr)
                return 1
    PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    print(f"pinned {len(pins)} job outputs in {PINS.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
