"""Recompute the north-star value corpus and compare it key by key.

``value_corpus.json`` maps each key to the sha256 of one value's
``to_json()``; ``make_value_corpus.py`` lists the keys and writes the
file.  Refactors must reproduce every entry byte for byte, and a value
must not depend on which values the process computed before it.
"""

import json

from make_value_corpus import CORPUS, _digest, corpus, entries
from triplehodge._memo import clear_all


def test_values_match_the_pinned_corpus():
    pinned = json.loads(CORPUS.read_text())
    got = corpus()
    missing = sorted(pinned.keys() - got.keys())
    extra = sorted(got.keys() - pinned.keys())
    changed = sorted(k for k in pinned.keys() & got.keys() if pinned[k] != got[k])
    assert (missing, extra, changed) == ([], [], []), (
        f"missing keys {missing}, extra keys {extra}, changed values {changed}"
    )
    assert len(pinned) == 588


def test_every_fifth_key_recomputed_cold_in_reverse_order():
    # a memo that answered one key with a value kept for another (a
    # stale chamber of another type, say) would change a digest here
    pinned = json.loads(CORPUS.read_text())
    compute = dict(entries())
    keys = sorted(pinned)[::5]
    clear_all()
    changed = [k for k in reversed(keys) if _digest(compute[k]()) != pinned[k]]
    assert changed == []
