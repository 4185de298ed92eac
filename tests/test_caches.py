"""Tests for the one memo policy and the values that are built once.

Every value the package keeps for the life of a process sits in a memo
of ``triplehodge._memo``: a ``@memo`` function, a ``_ChamberMemo`` or
the ``series._sym_longest`` table.  The pieces every chamber and wall
of a genus (or every query of a triple type) shares are memoized: a
type's chamber bounds, the series of symmetric powers, the per-genus
bases of the flip strata (the Sym^2 term's, and e(Jac) - 1), the
t-display factors of ``poincare_n31``, each wall's checked jump
(``flips.flip_contribution``) and the running flip sum at each wall of
a (3, 1) type.  These tests check that callers still get values of
their own, that a truncated series equals a fresh build, that one
full-grid verify builds each piece at most once per key, that every
public memo of a genus or dimension answers a float the same whether or
not the int key is cached, and that ``clear_all()`` makes a full-grid
verify run cold again in the same process with the same output and the
same misses.  The inventory checks that every cache-like object in a
module namespace is registered, so no memo escapes ``clear_all()``, and
pins every module-level container by name.
"""

import ast
import contextlib
import importlib
import io
import json
import os
import pkgutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import triplehodge
from triplehodge import (
    OrderTooLow, TripleType, criticals, e_grassmannian, e_jacobian,
    e_m2_odd, e_m2s_even, e_m3, e_projective, e_sym,
)
from triplehodge import _memo, cli
from triplehodge.laurent import ONE, U, V
from triplehodge.series import XSeries, curve_numerator, sym_series
from triplehodge.stability import chamber_bounds
from triplehodge.verify import GRIDS


def test_returned_lists_are_the_callers_own():
    t = TripleType(3, 1, 9, 0, 3)
    walls, bounds = criticals(t), chamber_bounds(t)
    expected_walls, expected_bounds = list(walls), list(bounds)
    walls.append((99, 99))
    walls[0] = (0, 0)
    bounds.clear()
    assert criticals(t) == expected_walls
    assert chamber_bounds(t) == expected_bounds


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=0, max_value=4),
    st.lists(st.integers(min_value=0, max_value=9), min_size=1, max_size=6),
)
def test_sym_series_in_any_request_order_equals_a_fresh_build(g, orders):
    for order in orders:
        got = sym_series(g, order)
        fresh = (
            curve_numerator(g, order)
            * XSeries.geometric(ONE, order)
            * XSeries.geometric(U * V, order)
        )
        assert got.order == order
        for k in range(order):
            assert got.coeff(k) == fresh.coeff(k)
        for k in (order, order + 1):
            with pytest.raises(OrderTooLow):
                got.coeff(k)


def _count_builds() -> dict[str, list]:
    """Run one full-grid verify with spies; builds per key of each piece.

    Each spy recognises one piece's build by a call that only that
    build makes, and the piece's key is read off the call's arguments.
    """
    from triplehodge import flips, moduli, series, stability, verify
    from triplehodge.laurent import LaurentPoly
    from triplehodge.zoo import e_jacobian

    counts = {name: Counter() for name in
              ("chambers", "sym_series", "sym2", "t_display",
               "jac_minus_one", "flip_sum", "walls")}
    genera = range(2, 7)
    jacs = {id(e_jacobian(g).poly): g for g in genera}

    sigma_range = stability.sigma_range

    def spy_sigma_range(t):
        counts["chambers"][str((t.n1, t.n2, t.d1, t.d2, t.g))] += 1
        return sigma_range(t)

    stability.sigma_range = spy_sigma_range

    # a build makes new coefficients; a truncation shares them, so the
    # request that first returns a coefficient object is its build
    series_seen = []
    build_of = {}
    sym = series.sym_series

    def spy_sym_series(g, order):
        w = sym(g, order)
        series_seen.append(w)
        if order and id(w.coeff(0)) not in build_of:
            build_of[id(w.coeff(0))] = (g, order)
        return w

    for module in vars(triplehodge).values():
        if getattr(module, "sym_series", None) is sym:
            module.sym_series = spy_sym_series

    # a build makes new pieces and a memo hit returns the same ones; the
    # lists keep every returned piece alive, so no id is reused
    bases_seen = []
    bases = flips._strata_bases

    def spy_bases(g):
        pieces = bases(g)
        bases_seen.append((g, pieces))
        return pieces

    flips._strata_bases = spy_bases

    t_display_seen = []
    t_display = moduli._t_display_factors

    def spy_t_display(g):
        pieces = t_display(g)
        t_display_seen.append((g, pieces))
        return pieces

    moduli._t_display_factors = spy_t_display

    # the flip sum reads a wall's jump only to build its sum there
    flip_contribution = moduli.flip_contribution

    def spy_flip_contribution(t, n):
        counts["flip_sum"][str((t.n1, t.n2, t.d1, t.d2, t.g, n))] += 1
        return flip_contribution(t, n)

    moduli.flip_contribution = spy_flip_contribution

    # a wall's jump is built by c_n_odd or c_n_even; a call that raises
    # builds nothing
    for name in ("c_n_odd", "c_n_even"):
        build = getattr(flips, name)

        def spy_build(t, n, build=build):
            flip = build(t, n)
            counts["walls"][str((t.n1, t.n2, t.d1, t.d2, t.g, n))] += 1
            return flip

        for module in (flips, verify):
            setattr(module, name, spy_build)

    sub = LaurentPoly.__sub__

    def spy_sub(left, right):
        g = jacs.get(id(left))
        if g is not None and right == ONE:
            counts["jac_minus_one"][str(g)] += 1
        return sub(left, right)

    LaurentPoly.__sub__ = spy_sub
    try:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(["verify", "all", "--grid", "full"])
    finally:
        LaurentPoly.__sub__ = sub
    assert code == 0

    counts["sym_series"].update(str(key) for key in build_of.values())
    # the Sym^2 stratum's second base of genus g is J(-u, -v) - 1, the
    # Jacobian's polynomial at (-u, -v) minus 1, a new polynomial per build
    seen = set()
    for g, pieces in bases_seen:
        assert pieces[1] == (ONE - U) ** g * (ONE - V) ** g - ONE
        if id(pieces[1]) not in seen:
            seen.add(id(pieces[1]))
            counts["sym2"][str(g)] += 1
    t = LaurentPoly.monomial(1, 0)
    kernels = {
        (ONE + t**3) ** (2 * g) - t ** (2 * g) * (ONE + t) ** (2 * g): g
        for g in genera
    }
    built = set()
    for g, pieces in t_display_seen:
        # the first piece is the kernel's numerator of that genus
        assert kernels[pieces[0]] == g
        if id(pieces[0]) not in built:
            built.add(id(pieces[0]))
            counts["t_display"][str(g)] += 1
    return {name: sorted(c.items()) for name, c in counts.items()}


@pytest.fixture(scope="module")
def builds():
    """Builds per key in one full-grid verify, in a fresh process so
    that every cache starts empty."""
    tests = Path(__file__).parent
    src = Path(triplehodge.__file__).parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), str(tests)]))
    code = (
        "import json, test_caches; "
        "print(json.dumps(test_caches._count_builds()))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True,
        text=True, timeout=300, check=True,
    )
    return json.loads(out.stdout)


@pytest.mark.parametrize(
    "piece",
    ["chambers", "sym_series", "sym2", "t_display", "jac_minus_one",
     "flip_sum", "walls"],
)
def test_full_grid_verify_builds_each_piece_once_per_key(builds, piece):
    assert builds[piece], f"no build of {piece} was seen"
    repeated = {key: n for key, n in builds[piece] if n > 1}
    assert repeated == {}


def test_full_grid_verify_builds_every_wall_of_its_grid(builds):
    # c_n_odd and c_n_even together build each (3, 1) wall of the full
    # grid, 48 of them, and no other; the once is checked above
    full = GRIDS["full"]
    walls = {
        str((3, 1, d1, d2, g, n))
        for g in full.gs for d1 in full.d1s for d2 in full.d2s
        for n, _sigma in criticals(TripleType(3, 1, d1, d2, g))
    }
    assert len(walls) == 48
    assert {key for key, _n in builds["walls"]} == walls


@pytest.mark.parametrize(
    "fn, bad, good",
    [(e_projective, (3.0,), (3,)), (e_projective, (-2.0,), (-2,)),
     (e_jacobian, (2.0,), (2,)), (e_sym, (3, 2.0), (3, 2)),
     (e_sym, (2.0, 3), (2, 3)), (e_sym, (-1.0, 2), (-1, 2)),
     (e_grassmannian, (2.0, 4), (2, 4)), (e_grassmannian, (2, 4.0), (2, 4)),
     (e_grassmannian, (3.0, 2), (3, 2)), (e_m2_odd, (2.0,), (2,)),
     (e_m2s_even, (2.0,), (2,)), (e_m3, (2.0, 1), (2, 1)),
     (e_m3, (2, 2.5), (2, 2))],
    ids=["e_projective", "e_projective-neg", "e_jacobian", "e_sym-g",
         "e_sym-k", "e_sym-neg-k", "e_grassmannian-k", "e_grassmannian-n",
         "e_grassmannian-k-above-n", "e_m2_odd", "e_m2s_even", "e_m3",
         "e_m3-d"],
)
def test_a_float_argument_raises_alike_cold_and_warm(fn, bad, good):
    # an untyped memo keys (3, 2.0) as (3, 2), so once the int answer is
    # cached the float would get it instead of the error it raises cold
    fn.cache_clear()
    with pytest.raises(TypeError) as cold:
        fn(*bad)
    fn(*good)
    with pytest.raises(TypeError) as warm:
        fn(*bad)
    assert str(warm.value) == str(cold.value)


def _verify_full() -> tuple[str, dict[str, int]]:
    """stdout of one in-process full-grid verify, and each memo's misses."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["verify", "all", "--grid", "full"]) == 0
    return out.getvalue(), {
        name: misses for name, (_hits, misses, _keys) in _memo.info().items()
    }


def test_clear_all_replays_a_full_grid_verify_cold():
    _memo.clear_all()
    first, first_misses = _verify_full()
    _memo.clear_all()
    assert {keys for _hits, _misses, keys in _memo.info().values()} == {0}
    second, second_misses = _verify_full()
    assert second == first
    assert second_misses == first_misses
    assert all(first_misses.values())


# module-level containers that are no memo: constant tables and the
# memo registry itself
CONTAINERS = [
    "triplehodge._memo._registry",
    "triplehodge.cli._SCALARS",
    "triplehodge.cli._TARGETS",
    "triplehodge.verify.GRIDS",
    "triplehodge.verify.SUITES",
]


def _process_state() -> tuple[dict[int, str], list[str]]:
    """The cache-like objects (anything but a class with ``cache_info``)
    by id, and the dicts, lists and sets assigned at module level
    (``__all__`` aside), of every module of the package."""
    memos, containers = {}, set()
    names = ["triplehodge"] + [
        f"triplehodge.{info.name}"
        for info in pkgutil.iter_modules(triplehodge.__path__)
    ]
    for name in names:
        module = importlib.import_module(name)
        # a container is named where it is assigned, not where imported
        tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
        assigned = {
            node.id
            for stmt in tree.body
            if isinstance(stmt, (ast.Assign, ast.AnnAssign))
            for target in (
                stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            )
            for node in ast.walk(target) if isinstance(node, ast.Name)
        }
        for attr, value in vars(module).items():
            if hasattr(value, "cache_info") and not isinstance(value, type):
                memos[id(value)] = f"{name}.{attr}"
            elif isinstance(value, (dict, list, set)) and attr in assigned \
                    and attr != "__all__":
                containers.add(f"{name}.{attr}")
    return memos, sorted(containers)


def test_process_state_inventory():
    # a memo outside the registry would escape clear_all(); a new side
    # table fails here until it is listed above
    memos, containers = _process_state()
    registered = {id(m) for m in _memo._registry.values()}
    assert sorted(memos[i] for i in memos.keys() - registered) == []
    assert registered <= memos.keys()
    # 12 @memo functions, 3 chamber memos and the sym_series table
    assert len(registered) == 16
    assert containers == CONTAINERS
