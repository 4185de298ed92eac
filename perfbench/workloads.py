"""Workload definitions: the jobs each workload runs, made from a seed.

A job is a plain dict that the child process can execute:

* ``{"key": ..., "fn": name, "args": [...]}`` calls ``triplehodge.<name>``
  with the arguments; a string argument ``"p/q"`` is a ``Fraction``.
* ``{"key": ..., "argv": [...]}`` runs the command line with that argv.

``key`` names the pinned output the job must reproduce.  Inputs that the
seed varies (the degree d of M(3, d), the job order, sigma inside a
chamber) never change the pinned output, so one pin file serves every
seed.  The chamber arithmetic below is the paper's, written out here so
that the inputs do not come from the program under test.
"""

from __future__ import annotations

from fractions import Fraction
from random import Random

# Sizes of a benchmark pass, and of the tiny pass the self-test runs.
M3_GENERA = {False: range(2, 10), True: range(2, 4)}
PIPELINE_GENERA = {False: range(2, 7), True: range(2, 4)}
SWEEP_GENERA = {False: range(2, 5), True: range(2, 3)}
VERIFY_GRID = {False: "full", True: "quick"}


def sweep_chambers(g: int) -> list[tuple[Fraction, Fraction]]:
    """Chambers (lo, hi) of N_sigma(3, 1, d1, 0) for d1 = 2g + 3.

    sigma runs over (d1/3, sigma_M]; the critical values are
    sigma_n = 2n - d1 for 2*d1/3 < n <= d1, and the lowest chamber
    starts at sigma_m = d1/3.
    """
    d1 = 2 * g + 3
    cuts = [Fraction(d1, 3)]
    cuts += [Fraction(2 * n - d1) for n in range(2 * d1 // 3 + 1, d1 + 1)]
    return list(zip(cuts[:-1], cuts[1:]))


def _inside(rng: Random, lo: Fraction, hi: Fraction) -> Fraction:
    den = rng.randint(2, 1000)
    return lo + (hi - lo) * Fraction(rng.randint(1, den - 1), den)


def _m3_closed(rng: Random, tiny: bool) -> list[dict]:
    jobs = []
    for g in M3_GENERA[tiny]:
        d = rng.choice([d for d in range(-60, 61) if d % 3])
        jobs.append({"key": f"m3/g{g}", "fn": "e_m3", "args": [g, d]})
    return jobs


def _m3_pipeline(rng: Random, tiny: bool) -> list[dict]:
    genera = list(PIPELINE_GENERA[tiny])
    rng.shuffle(genera)
    return [
        {"key": f"m3/g{g}", "fn": "e_m3_via_pipeline", "args": [g]}
        for g in genera
    ]


def _n31_sweep(rng: Random, tiny: bool) -> list[dict]:
    jobs = []
    for g in SWEEP_GENERA[tiny]:
        d1 = 2 * g + 3
        for index, (lo, hi) in enumerate(sweep_chambers(g), start=1):
            sigma = str(_inside(rng, lo, hi))
            for fn in ("e_n31_closed", "e_n31_flipsum"):
                jobs.append(
                    {
                        "key": f"n31/g{g}/d{d1}/c{index}",
                        "fn": fn,
                        "args": [g, d1, 0, sigma],
                    }
                )
    return jobs


def _verify_full(rng: Random, tiny: bool) -> list[dict]:
    grid = VERIFY_GRID[tiny]
    return [{"key": f"verify/all/{grid}",
             "argv": ["verify", "all", "--grid", grid]}]


WORKLOADS = {
    "m3_closed": _m3_closed,
    "m3_pipeline": _m3_pipeline,
    "n31_sweep": _n31_sweep,
    "verify_full": _verify_full,
}


def make_jobs(workload: str, seed: int, tiny: bool = False) -> list[dict]:
    """The jobs of one pass of the workload; the same seed, the same jobs.

    ``tiny`` gives the self-test's small instance of the workload.
    """
    return WORKLOADS[workload](Random(f"{workload}:{seed}"), tiny)
