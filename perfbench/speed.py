"""Gauge the host's speed during a pass, so that its times can be scaled
to one fixed speed.

On a shared host the CPU runs at two or more speeds that change from one
second to the next as other tenants' work comes and goes: a pure-Python
loop takes 1.5x to 2x as long in the slow states.  A pass of a few
seconds mixes the states in proportions that differ from pass to pass
and from minute to minute, so raw times of the same work spread by 20% to
40% between runs.

``SpeedMeter`` probes the speed while a pass runs: a ``SIGALRM`` handler
times ``probe()``, a small fixed job, every ``interval`` seconds, between
two bytecodes of the pass.  ``stretch`` then weights each stretch of the
pass between probes by the speed the probes at its two ends saw, and
gives the time the pass would have taken on a host where ``probe()``
takes ``PROBE_REF_S``.  The probe multiplies small sparse polynomials,
the package's kind of work, but with its own code, so no change to the
package can change it.  Probing with a plain integer loop instead
followed the pass's speed about half as well.
"""

from __future__ import annotations

import signal
import time

PROBE_ROUNDS = 20
PROBE_REF_S = 0.0008  # about the probe's time inside a pass when the baseline host is fast


def _round() -> dict:
    """One product of two fixed 11-term polynomials held as {(a, b): int}."""
    p = {(i, i % 3): i * 1000003 + 1 for i in range(11)}
    q = {(i % 4, i): 7 - i for i in range(11)}
    out: dict = {}
    for (a, b), c in p.items():
        for (x, y), d in q.items():
            key = (a + x, b + y)
            out[key] = out.get(key, 0) + c * d
    return out


def probe() -> float:
    """Wall time of a small fixed job of the package's kind: dicts keyed by
    exponent tuples, integer products, allocation."""
    start = time.monotonic()
    for _ in range(PROBE_ROUNDS):
        _round()
    return time.monotonic() - start


class SpeedMeter:
    """Probe the speed now and then every ``interval`` seconds until
    ``stop``; ``ticks`` holds (start, duration) of each probe."""

    def __init__(self, interval: float):
        self.interval = interval
        self.ticks: list[tuple[float, float]] = []

    def _tick(self, signum=None, frame=None):
        start = time.monotonic()
        self.ticks.append((start, probe()))

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        self._tick()
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def stretch(ticks, start: float, end: float) -> tuple[float, float]:
    """(raw, scaled) time of [start, end], both without the probes' own time.

    ``scaled`` is the raw time at the speed where a probe takes
    ``PROBE_REF_S``.  The time between two probes goes at the mean of
    their durations; before the first and after the last probe, at that
    probe's.  With no probe both are the plain elapsed time.
    """
    if not ticks:
        return end - start, end - start
    pieces = [(float("-inf"), ticks[0][0], ticks[0][1])]
    for (at0, took0), (at1, took1) in zip(ticks, ticks[1:]):
        pieces.append((at0 + took0, at1, (took0 + took1) / 2))
    pieces.append((ticks[-1][0] + ticks[-1][1], float("inf"), ticks[-1][1]))
    raw = scaled = 0.0
    for lo, hi, took in pieces:
        part = min(hi, end) - max(lo, start)
        if part > 0:
            raw += part
            scaled += part * PROBE_REF_S / took
    return raw, scaled
