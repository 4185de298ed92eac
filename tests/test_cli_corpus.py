"""Replay a pinned corpus of CLI invocations, byte for byte.

``cli_corpus.json`` maps each argv (space-joined) to the sha256 of its
stdout, the sha256 of its stderr and its exit code.  ``verify`` prints
its run time as a ``wall:`` line on stderr; that line is dropped before
hashing.  Refactors must reproduce every entry.  To
re-pin after an intended output change, on a commit whose outputs are
trusted, run::

    PYTHONPATH=src python tests/test_cli_corpus.py
"""

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

import pytest

from triplehodge.cli import _TARGETS, main

CORPUS = Path(__file__).with_name("cli_corpus.json")

_TRIPLES = (
    "n31 --g 2 --d1 7 --d2 0 --chamber 1",
    "n31 --g 2 --d1 7 --d2 0 --chamber 2",
    "n31 --g 2 --d1 7 --d2 0 --chamber 3",
    "n31 --g 3 --d1 9 --d2 0 --chamber 1",
    "n31 --g 3 --d1 9 --d2 0 --chamber 2",
    "n31 --g 3 --d1 9 --d2 0 --chamber 3",
    "n31 --g 2 --d1 8 --d2 1 --sigma 4",
    "n31 --g 2 --d1 5 --d2 0 --sigma 6",
    "n21 --g 2 --d1 5 --d2 0 --chamber 1",
    "n21 --g 2 --d1 5 --d2 0 --chamber 2",
    "n21 --g 2 --d1 5 --d2 0 --chamber 3",
    "n21 --g 3 --d1 7 --d2 1 --chamber 2",
    "n21 --g 2 --d1 5 --d2 0 --sigma 11/2",
)

_BUNDLES = (
    "m2odd --g 2",
    "m2odd --g 3",
    "m2even --g 2",
    "m2even --g 3",
    "m3 --g 2",
    "m3 --g 3 --d 2",
    "jac --g 3",
    "sym --k 3 --g 2",
    "grass --k 2 --n 5",
    "proj --n 4",
)

_TYPES = ("--g 2 --d1 7 --d2 0", "--g 3 --d1 9 --d2 1", "--g 2 --d1 3 --d2 1")

_TABLES = (
    "--targets n31 --g 2,3 --d1 7,9",
    "--targets n21 --g 2 --d1 5 --d2 0,1",
    "--targets n31,n21 --g 2 --d1 3 --d2 2",
    "--targets m2odd,m2even,m3,jac --g 2,3",
    "--targets m3 --g 2 --d 2",
    "--targets sym --g 2 --k 0,1,3",
    "--targets grass --k 1,2 --n 4,5",
    "--targets proj --n 1,3",
    "--targets sym --g 2,3 --k 0,2",
    "--targets grass,proj --k 1,2 --n 3,4",
    "--targets m2odd,m3,jac --g 2,3 --d 2",
    "--targets n21,n31 --g 2,3 --d1 5 --d2 0,1",
    "--targets grass --k 1",
    "--targets n31 --g 2",
)

ARGVS = (
    [
        f"compute {target} --output {fmt}"
        for target in _TRIPLES + _BUNDLES
        for fmt in ("text", "json", "latex")
    ]
    + [
        f"compute {what} {ttype} --ranks {ranks} --output {fmt}"
        for what in ("criticals", "chambers")
        for ttype in _TYPES
        for ranks in ("31", "21")
        for fmt in ("text", "json")
    ]
    + [f"table {spec} --output {fmt}" for spec in _TABLES for fmt in ("csv", "json")]
    + [
        "verify all --grid quick",
        "verify all --grid full",
        "compute n31 --g 2 --d1 7 --d2 0 --sigma 3",
        "compute n31 --g 2 --d1 7 --d2 0",
        "table --targets sym --g 2",
    ]
)


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def replay(argv: str) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv.split())
    lines = err.getvalue().splitlines(keepends=True)
    timeless = "".join(line for line in lines if not line.startswith("wall: "))
    return {
        "exit": code,
        "stderr_sha256": _sha256(timeless),
        "stdout_sha256": _sha256(out.getvalue()),
    }


def test_corpus_covers_every_argv():
    assert sorted(json.loads(CORPUS.read_text())) == sorted(ARGVS)


def test_corpus_covers_every_target():
    """Each CLI target is pinned under compute in every format, and in
    at least one table."""
    computed = {
        (argv.split()[1], argv.split()[-1])
        for argv in ARGVS
        if argv.startswith("compute ")
    }
    tabled = {
        target
        for argv in ARGVS
        if argv.startswith("table --targets ")
        for target in argv.split()[2].split(",")
    }
    for target in _TARGETS:
        for fmt in ("text", "json", "latex"):
            assert (target, fmt) in computed
        assert target in tabled


@pytest.mark.parametrize("argv", ARGVS)
def test_cli_output_is_pinned(argv):
    assert replay(argv) == json.loads(CORPUS.read_text())[argv]


if __name__ == "__main__":
    pins = {argv: replay(argv) for argv in ARGVS}
    CORPUS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    print(f"pinned {len(pins)} CLI outputs in {CORPUS.name}", file=sys.stderr)
