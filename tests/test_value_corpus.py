"""Recompute the north-star value corpus and compare it key by key.

``value_corpus.json`` maps each key to the sha256 of one value's
``to_json()``; ``make_value_corpus.py`` lists the keys and writes the
file.  Refactors must reproduce every entry byte for byte.
"""

import json

from make_value_corpus import CORPUS, corpus


def test_values_match_the_pinned_corpus():
    pinned = json.loads(CORPUS.read_text())
    got = corpus()
    missing = sorted(pinned.keys() - got.keys())
    extra = sorted(got.keys() - pinned.keys())
    changed = sorted(k for k in pinned.keys() & got.keys() if pinned[k] != got[k])
    assert (missing, extra, changed) == ([], [], []), (
        f"missing keys {missing}, extra keys {extra}, changed values {changed}"
    )
    assert len(pinned) == 478
