"""Write ``value_corpus.json``: the north-star values, pinned by sha256.

Each key names one value; its entry is the sha256 of the value's
``to_json()`` (the polynomial of a ``HodgeResult``, the collapsed
polynomial of a flip jump C_n).  The keys:

* ``e_m2_odd``, ``e_m2s_even``, ``e_m3`` and ``poincare_m3`` for
  g = 2..10;
* for g = 2..6, d1 in {2g + 3, 2g + 4} and d2 in {0, 1}:
  ``e_n31_closed`` and ``poincare_n31`` on every chamber of the (3, 1)
  type, ``e_triples21`` on every chamber and
  ``e_triples21_critical_stable`` on every wall of the (2, 1) type, and
  ``flip_contribution(t, n).cn`` on every wall of both types, the
  (2, 1) keys marked ``(2,1)``.

``entries`` pairs each key with a function that computes its value, so
a key can be recomputed on its own.  ``tests/test_value_corpus.py``
recomputes every entry, and every fifth again with cold memos in
reverse order.  Importing this module computes nothing.  To re-pin
after an intended change of value, on a commit whose values are
trusted, run::

    PYTHONPATH=src python tests/make_value_corpus.py
"""

import hashlib
import json
import sys
from functools import partial
from pathlib import Path

CORPUS = Path(__file__).with_name("value_corpus.json")

GENERA = range(2, 11)
TYPE_GENERA = range(2, 7)


def _digest(value) -> str:
    poly = getattr(value, "poly", value)
    if hasattr(poly, "as_polynomial"):
        poly = poly.as_polynomial()
    return hashlib.sha256(poly.to_json().encode()).hexdigest()


def entries():
    """Yield (key, compute) for every value of the corpus, in a fixed
    order; compute() returns the value."""
    from triplehodge import (
        TripleType,
        chamber_bounds,
        criticals,
        e_m2_odd,
        e_m2s_even,
        e_m3,
        e_n31_closed,
        e_triples21,
        e_triples21_critical_stable,
        flip_contribution,
        poincare_m3,
        poincare_n31,
    )

    for name, fn in (("e_m2_odd", e_m2_odd), ("e_m2s_even", e_m2s_even),
                     ("e_m3", e_m3), ("poincare_m3", poincare_m3)):
        for g in GENERA:
            yield f"{name} g={g}", partial(fn, g)
    for g in TYPE_GENERA:
        for d1 in (2 * g + 3, 2 * g + 4):
            for d2 in (0, 1):
                where = f"g={g} d1={d1} d2={d2}"
                t31 = TripleType(3, 1, d1, d2, g)
                for k in range(1, len(chamber_bounds(t31)) + 1):
                    yield (f"e_n31_closed {where} chamber={k}",
                           partial(e_n31_closed, g, d1, d2, chamber=k))
                    yield (f"poincare_n31 {where} chamber={k}",
                           partial(poincare_n31, g, d1, d2, chamber=k))
                for n, _sigma in criticals(t31):
                    yield (f"flip_contribution.cn {where} n={n}",
                           lambda t=t31, n=n: flip_contribution(t, n).cn)
                t21 = TripleType(2, 1, d1, d2, g)
                for k in range(1, len(chamber_bounds(t21)) + 1):
                    yield (f"e_triples21 {where} chamber={k}",
                           partial(e_triples21, g, d1, d2, chamber=k))
                for d_m, _sigma in criticals(t21):
                    yield (f"e_triples21_critical_stable {where} d_m={d_m}",
                           partial(e_triples21_critical_stable,
                                   g, d1, d2, d_m))
                    yield (f"flip_contribution.cn (2,1) {where} d_m={d_m}",
                           lambda t=t21, n=d_m: flip_contribution(t, n).cn)


def corpus() -> dict[str, str]:
    """Every key of the corpus mapped to the sha256 of its value."""
    pins: dict[str, str] = {}
    for key, compute in entries():
        if key in pins:
            raise ValueError(f"duplicate corpus key {key!r}")
        pins[key] = _digest(compute())
    return pins


if __name__ == "__main__":
    pins = corpus()
    CORPUS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    print(f"pinned {len(pins)} values in {CORPUS.name}", file=sys.stderr)
