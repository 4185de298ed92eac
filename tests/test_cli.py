"""End-to-end tests of the command-line interface via main(argv)."""

import contextlib
import dataclasses
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import triplehodge
from triplehodge import (
    FractionUV,
    LaurentPoly,
    NonDivisible,
    e_m2_odd,
    e_m3,
    e_n31_closed,
    e_n31_flipsum,
    flip_contribution,
    verify,
)
from triplehodge.cli import _TARGETS, main
from triplehodge.laurent import UV


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- compute: text ----------------------------------------------------------


def test_compute_proj_text(capsys):
    code, out, err = run(capsys, "compute", "proj", "--n", "3")
    assert code == 0
    assert out == "1 + u*v + u^2*v^2\ndim: 2\n"
    assert err == ""


def test_compute_criticals_text(capsys):
    code, out, _ = run(
        capsys, "compute", "criticals", "--g", "2", "--d1", "5", "--d2", "0"
    )
    assert code == 0
    assert out == "n=4 σ=3; n=5 σ=5\n"


def test_compute_criticals_empty_and_rank2(capsys):
    code, out, _ = run(
        capsys, "compute", "criticals", "--g", "2", "--d1", "3", "--d2", "1"
    )
    assert code == 0
    assert out == "none\n"
    code, out, _ = run(
        capsys,
        *"compute criticals --g 2 --d1 5 --d2 0 --ranks 21".split(),
    )
    assert code == 0
    assert out == "dM=3 σ=4; dM=4 σ=7; dM=5 σ=10\n"


def test_compute_chambers_text(capsys):
    code, out, _ = run(
        capsys, "compute", "chambers", "--g", "2", "--d1", "5", "--d2", "0"
    )
    assert code == 0
    assert out == "1: (5/3, 3); 2: (3, 5)\n"


def test_compute_n21_chamber_text(capsys):
    code, out, _ = run(
        capsys,
        *"compute n21 --g 2 --d1 5 --d2 0 --chamber 3".split(),
    )
    assert code == 0
    lines = out.splitlines()
    assert "dim: 9" in lines
    assert "sigma: 17/2" in lines
    assert "chamber: (7, 10)" in lines


def test_compute_empty_space_text(capsys):
    code, out, _ = run(
        capsys,
        *"compute n31 --g 2 --d1 5 --d2 0 --sigma 6".split(),
    )
    assert code == 0
    assert out == "0\ndim: 0\nempty: true\n"


# -- compute: json and latex --------------------------------------------------


def test_compute_n31_json_roundtrip(capsys):
    code, out, _ = run(
        capsys,
        *"compute n31 --g 2 --d1 5 --d2 0 --sigma 7/3 --output json".split(),
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["target"] == "n31"
    assert payload["dim"] == 13
    assert payload["empty"] is False
    assert payload["smooth_projective"] is True
    assert payload["chamber"] == {"sigma": "7/3", "lo": "5/3", "hi": "3"}
    from fractions import Fraction

    expected = e_n31_closed(2, 5, 0, Fraction(7, 3)).poly
    assert LaurentPoly.from_triples(payload["poly"]) == expected


def test_compute_criticals_json(capsys):
    code, out, _ = run(
        capsys,
        *"compute criticals --g 2 --d1 5 --d2 0 --output json".split(),
    )
    assert code == 0
    payload = json.loads(out)
    assert payload == {
        "target": "criticals",
        "ranks": "31",
        "pairs": [[4, 3], [5, 5]],
    }


def test_compute_chambers_json(capsys):
    code, out, _ = run(
        capsys,
        *"compute chambers --g 2 --d1 5 --d2 0 --output json".split(),
    )
    payload = json.loads(out)
    assert payload["chambers"] == [
        {"index": 1, "lo": "5/3", "hi": "3"},
        {"index": 2, "lo": "3", "hi": "5"},
    ]


def test_compute_latex(capsys):
    code, out, _ = run(
        capsys, *"compute m2odd --g 2 --output latex".split()
    )
    assert code == 0
    assert out.strip() == e_m2_odd(2).poly.to_latex()


# -- error handling -------------------------------------------------------------


def test_critical_sigma_exit_code_and_message(capsys):
    code, out, err = run(
        capsys, *"compute n31 --g 2 --d1 5 --d2 0 --sigma 3".split()
    )
    assert code == 2
    assert out == ""
    assert err == (
        "error: sigma=3 is critical for (3,1,5,0); criticals are {3,5}; "
        "pass a chamber or a non-critical rational\n"
    )


def test_sigma_and_chamber_are_exclusive(capsys):
    code, _, err = run(
        capsys,
        *"compute n31 --g 2 --d1 5 --d2 0 --sigma 2 --chamber 1".split(),
    )
    assert code == 2
    assert "exactly one" in err
    code, _, err = run(
        capsys, *"compute n31 --g 2 --d1 5 --d2 0".split()
    )
    assert code == 2
    assert "exactly one" in err


def test_malformed_sigma(capsys):
    code, _, err = run(
        capsys, *"compute n31 --g 2 --d1 5 --d2 0 --sigma abc".split()
    )
    assert code == 2
    assert "sigma must be" in err
    code, _, err = run(
        capsys, *"compute n31 --g 2 --d1 5 --d2 0 --sigma 3/0".split()
    )
    assert code == 2
    assert "denominator" in err


def test_m3_singular_degree(capsys):
    code, _, err = run(capsys, *"compute m3 --g 2 --d 3".split())
    assert code == 2
    assert "divisible by 3" in err


@pytest.mark.parametrize(
    "argv",
    [
        "compute criticals --g 1 --d1 5 --d2 0 --ranks 21",
        "compute criticals --g 1 --d1 5 --d2 0 --ranks 31",
        "compute chambers --g 1 --d1 5 --d2 0 --ranks 21",
        "compute chambers --g 1 --d1 5 --d2 0 --ranks 31",
    ],
)
def test_criticals_and_chambers_refuse_genus_below_2(capsys, argv):
    code, out, err = run(capsys, *argv.split())
    assert code == 2
    assert out == ""
    assert err == "error: genus must be at least 2, got 1\n"


@pytest.mark.parametrize(
    "argv", ["compute jac --g -1", "compute sym --k 2 --g -3"]
)
def test_negative_genus_exit_2(capsys, argv):
    code, out, err = run(capsys, *argv.split())
    assert code == 2
    assert out == ""
    assert "genus must be nonnegative" in err
    assert "Traceback" not in err


def test_a_package_error_exits_1_with_its_type(capsys, monkeypatch):
    def fail(n):
        raise NonDivisible("remainder 1 + u")

    monkeypatch.setitem(_TARGETS, "proj", _TARGETS["proj"]._replace(fn=fail))
    code, out, err = run(capsys, *"compute proj --n 3".split())
    assert code == 1
    assert out == ""
    assert err == "error: NonDivisible: remainder 1 + u\n"


@pytest.mark.parametrize("unbuffered", ["1", ""], ids=["unbuffered", "buffered"])
@pytest.mark.parametrize(
    "argv", ["verify all --grid quick", "compute proj --n 3"],
    ids=["verify", "compute"],
)
def test_a_closed_stdout_exits_1_without_a_traceback(argv, unbuffered):
    # stdout's reader is gone before the first write, as under
    # ``| head -1`` once head has its line; buffered or not, the error
    # is met inside main, which exits 1 and writes nothing to stderr
    # beyond the verify suites' wall times
    src = Path(triplehodge.__file__).parents[1]
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONUNBUFFERED=unbuffered)
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "triplehodge.cli", *argv.split()],
            stdout=write, stderr=subprocess.PIPE, env=env, text=True,
            timeout=120,
        )
    finally:
        os.close(write)
    assert proc.returncode == 1
    assert [line for line in proc.stderr.splitlines()
            if not line.startswith("wall: ")] == []


def test_unknown_arguments_exit_2(capsys):
    assert main(["compute", "nope"]) == 2
    capsys.readouterr()
    assert main(["verify", "nope"]) == 2
    capsys.readouterr()


def test_version_flag(capsys):
    code = main(["--version"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("triplehodge ")


# -- table ------------------------------------------------------------------------


def test_table_projective_space(capsys):
    code, out, _ = run(capsys, *"table --targets proj --n 4".split())
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "target,g,d1,d2,chamber,empty,b0,b1,b2,b3,b4,b5,b6"
    assert lines[1] == "proj,,,,,no,1,0,1,0,1,0,1"


def test_table_m3_betti_row(capsys):
    code, out, _ = run(capsys, *"table --targets m3 --g 2".split())
    assert code == 0
    lines = out.strip().splitlines()
    row = lines[1].split(",")
    assert row[:6] == ["m3", "2", "", "", "", "no"]
    assert [int(c) for c in row[6:]] == oracles.M31_BETTI[2]


def test_table_no_chamber_row(capsys):
    code, out, _ = run(
        capsys, *"table --targets n21 --g 2 --d1 3 --d2 2".split()
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[1] == "n21,2,3,2,-,yes,0"


def test_table_sym_uses_chamber_column_for_k(capsys):
    code, out, _ = run(
        capsys, *"table --targets sym --g 2 --k 0,1".split()
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[1] == "sym,2,,,0,no,1,0,0"
    assert lines[2] == "sym,2,,,1,no,1,4,1"


def test_table_grass_chamber_column(capsys):
    code, out, _ = run(capsys, *"table --targets grass --k 2 --n 4".split())
    lines = out.strip().splitlines()
    assert lines[1] == "grass,,,,2/4,no,1,0,1,0,2,0,1,0,1"


def test_table_json_output(capsys):
    code, out, _ = run(
        capsys, *"table --targets proj --n 3 --output json".split()
    )
    assert code == 0
    rows = json.loads(out)
    assert rows == [
        {
            "target": "proj",
            "g": "",
            "d1": "",
            "d2": "",
            "chamber": "",
            "empty": False,
            "betti": [1, 0, 1, 0, 1],
        }
    ]


def test_table_missing_flags(capsys):
    code, _, err = run(capsys, *"table --targets sym --g 2".split())
    assert code == 2
    assert "--k is required" in err
    code, _, err = run(capsys, *"table --targets n31".split())
    assert code == 2
    assert "--g is required" in err


@pytest.mark.parametrize(
    "head, flag, values, code",
    [
        ("table --targets n31 --g 2 --d1 7", "--d2", "-1,-2", 0),
        ("table --targets n31 --output json --g 2 --d1 7", "--d2", "-1,-2", 0),
        ("table --targets n21 --g 2 --d2 -1", "--d1", "-1,5", 0),
        ("table --targets sym --g 2", "--k", "-1,1", 0),
        ("table --targets grass --k 1", "--n", "-1,4", 0),
        ("table --targets jac", "--g", "-1,2", 2),
    ],
)
def test_table_negative_list_as_its_own_token(capsys, head, flag, values, code):
    separate = run(capsys, *head.split(), flag, values)
    assert separate[0] == code
    assert separate == run(capsys, *head.split(), f"{flag}={values}")


def test_table_n31_chambers_match_library(capsys):
    code, out, _ = run(
        capsys, *"table --targets n31 --g 2 --d1 5 --d2 0".split()
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 3
    for index, line in enumerate(lines[1:], start=1):
        cells = line.split(",")
        assert cells[:6] == ["n31", "2", "5", "0", str(index), "no"]
        diag = e_n31_closed(2, 5, 0, chamber=index).poly.diagonal()
        betti = diag.as_univariate()
        expected = [betti.get(k, 0) for k in range(max(betti) + 1)]
        got = [int(c) for c in cells[6:]]
        assert got[: len(expected)] == expected
        assert all(c == 0 for c in got[len(expected) :])


# -- verify -----------------------------------------------------------------------


def test_verify_suite_reports_and_exit_code(capsys):
    code, out, err = run(capsys, "verify", "zoo", "--grid", "quick")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "suite: zoo (grid: quick)"
    assert all(line.startswith("PASS") for line in lines[1:-1])
    assert lines[-1].startswith("summary:")
    assert "0 fail" in lines[-1]
    assert err.startswith("wall:")


def test_verify_all_quick_is_deterministic(capsys):
    code_a, out_a, _ = run(capsys, "verify", "all", "--grid", "quick")
    code_b, out_b, _ = run(capsys, "verify", "all", "--grid", "quick")
    assert code_a == code_b == 0
    assert out_a == out_b
    assert out_a.count("suite:") == 6


# a failing check prints its FAIL or WARN line byte for byte, the summary
# counts it and the exit code follows: 1 for any FAIL, 0 for WARN alone


def test_verify_a_route_disagreement_fails_each_chamber(capsys, monkeypatch):
    def off_by_uv(*args, **kwargs):
        h = e_n31_flipsum(*args, **kwargs)
        return dataclasses.replace(h, poly=h.poly + UV)

    monkeypatch.setattr(verify, "e_n31_flipsum", off_by_uv)
    code, out, err = run(capsys, "verify", "crosspath", "--grid", "quick")
    assert code == 1
    lines = ["suite: crosspath (grid: quick)"]
    for d1, chambers in ((4, 2), (5, 2), (6, 2), (7, 3)):
        for index in range(1, chambers + 1):
            lines.append(
                f"FAIL crosspath/g2-d{d1}-0-ch{index}  "
                "[closed form != flip sum]"
            )
        lines.append(f"PASS crosspath/g2-d{d1}-0-edges")
    lines.append("summary: 13 cases, 4 pass, 9 fail, 0 warn")
    assert out == "\n".join(lines) + "\n"
    assert err.startswith("wall:") and err.count("\n") == 1


def _negate_cn(flip):
    return dataclasses.replace(flip, cn=FractionUV(-flip.cn.num, flip.cn.den))


def _shift_n2(flip):
    return dataclasses.replace(flip, N2=flip.N2 + 1)


# the first wall of each d1 whose replay catches the tampering: a wrong
# sign leaves S^- alone but not the jump, and N2 = N1 at d_m = 3 of
# d1 = 5 makes that jump zero, sign or not
@pytest.mark.parametrize(
    "tamper, walls, detail",
    [(_negate_cn, (3, 4, 4, 4), "chamber jump != C_n"),
     (_shift_n2, (3, 3, 4, 4), "below - S^- != stable locus")],
    ids=["negated-jump", "N2-off-by-one"],
)
def test_verify_replays_each_21_wall_through_its_record(
    capsys, monkeypatch, tamper, walls, detail
):
    def tampered(t, n):
        flip = flip_contribution(t, n)
        return tamper(flip) if (t.n1, t.n2) == (2, 1) else flip

    monkeypatch.setattr(verify, "flip_contribution", tampered)
    code, out, _ = run(capsys, "verify", "rank2", "--grid", "quick")
    assert code == 1
    fails = [line for line in out.splitlines() if line.startswith("FAIL")]
    assert fails == [
        f"FAIL rank2/wall-replay-g2-d{d1}-0  [d_m={d_m}: {detail}]"
        for d1, d_m in zip((4, 5, 6, 7), walls)
    ]
    assert out.splitlines()[-1] == "summary: 10 cases, 6 pass, 4 fail, 0 warn"


def test_verify_a_raised_error_fails_its_case_by_type(capsys, monkeypatch):
    def boom(num, den):
        raise NonDivisible("boom")

    monkeypatch.setattr(verify, "divide_exact", boom)
    code, out, _ = run(capsys, "verify", "algebra", "--grid", "quick")
    assert code == 1
    lines = out.splitlines()
    assert "FAIL algebra/division-roundtrip  [NonDivisible: boom]" in lines
    assert sum(line.startswith("FAIL") for line in lines) == 1
    assert lines[-1] == "summary: 6 cases, 5 pass, 1 fail, 0 warn"


def test_verify_a_warning_alone_exits_0(capsys, monkeypatch):
    def b0_only(grid):
        return [c for c in verify._suite_m3(grid) if c[0].startswith("m3/b0")]

    def b0_is_2(g):
        h = e_m3(g)
        return dataclasses.replace(h, poly=h.poly + 1)

    monkeypatch.setitem(verify.SUITES, "m3", b0_only)
    monkeypatch.setattr(verify, "e_m3", b0_is_2)
    code, out, _ = run(capsys, "verify", "m3", "--grid", "quick")
    assert code == 0
    assert out == (
        "suite: m3 (grid: quick)\n"
        "WARN m3/b0-g2  [b0 = 2, expected 1]\n"
        "summary: 1 cases, 0 pass, 0 fail, 1 warn\n"
    )


# -- the exit-code contract over generated argv ------------------------------------

# small values keep every request cheap; the genus stays low because
# table rows multiply over the chambers of every (g, d1, d2), and half
# the draws are valid genera so that most requests get past validation
_SMALL = st.integers(min_value=-12, max_value=12)
_GENUS = st.one_of(
    st.integers(min_value=2, max_value=4),
    st.integers(min_value=-3, max_value=1),
)
_CHAMBER = st.integers(min_value=-1, max_value=6)
_SIGMA = st.one_of(
    _SMALL,
    st.builds("{}/{}".format, _SMALL, _SMALL),
    st.sampled_from(["abc", "1.5", "", "3/"]),
)


def _flag(name, values):
    """The one token --name=value; "=" keeps a value such as -3,-4 from
    being read as an option."""
    return values.map(lambda value: [f"--{name}={value}"])


def _int_list(values):
    return st.lists(values.map(str), min_size=1, max_size=2).map(",".join)


_TYPE = [_flag("g", _GENUS), _flag("d1", _SMALL), _flag("d2", _SMALL)]
_PLACE = st.one_of(
    _flag("sigma", _SIGMA),
    _flag("chamber", _CHAMBER),
    st.tuples(_flag("sigma", _SIGMA), _flag("chamber", _CHAMBER)).map(
        lambda pair: pair[0] + pair[1]
    ),
)
_COMPUTE = {
    "n31": [*_TYPE, _PLACE],
    "n21": [*_TYPE, _PLACE],
    "m2odd": [_flag("g", _GENUS)],
    "m2even": [_flag("g", _GENUS)],
    "jac": [_flag("g", _GENUS)],
    "m3": [_flag("g", _GENUS), _flag("d", _SMALL)],
    "sym": [_flag("k", _SMALL), _flag("g", _GENUS)],
    "grass": [_flag("k", _SMALL), _flag("n", _SMALL)],
    "proj": [_flag("n", _SMALL)],
    "criticals": [*_TYPE, _flag("ranks", st.sampled_from(["31", "21", "22"]))],
    "chambers": [*_TYPE, _flag("ranks", st.sampled_from(["31", "21", "22"]))],
}
_OUTPUT = _flag("output", st.sampled_from(["text", "json", "latex", "csv"]))
_TABLE = [
    _flag(
        "targets",
        st.lists(
            st.sampled_from([*_TARGETS, "nope"]), min_size=1, max_size=3
        ).map(",".join),
    ),
    _flag("g", _int_list(_GENUS)),
    _flag("d1", _int_list(_SMALL)),
    _flag("d2", _int_list(_SMALL)),
    _flag("k", _int_list(_SMALL)),
    _flag("n", _int_list(_SMALL)),
    _flag("d", _SMALL),
    _OUTPUT,
]


@st.composite
def _argv(draw):
    """compute of any target, or table; each flag is left out now and then."""
    command = draw(st.sampled_from(["table", *_COMPUTE]))
    if command == "table":
        argv, parts = ["table"], _TABLE
    else:
        argv, parts = ["compute", command], [*_COMPUTE[command], _OUTPUT]
    for part in parts:
        if draw(st.integers(min_value=0, max_value=5)):
            argv += draw(part)
    return argv


@settings(max_examples=300, deadline=None)
@given(_argv())
def test_every_argv_keeps_the_exit_contract(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if code:
        assert out.getvalue() == ""
        lines = err.getvalue().splitlines()
        assert sum("error:" in line for line in lines) == 1
