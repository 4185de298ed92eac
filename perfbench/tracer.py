"""Outside-in layer tracing of the triplehodge package.

The tracer replaces public functions and methods of the package with
wrappers that record a span per call: id, name, start, end, parent span
and job id.  Spans stay in memory and are written out once, at the end.
Every binding of a wrapped object is replaced, in every module and class
of the package (``divide_exact`` imported into four modules, ``__rmul__``
aliasing ``__mul__``), and a ``@cache``-decorated function is wrapped
from the outside, so memoisation behaves exactly as untraced.

Self time is a span's duration minus the time its child spans cover.
The wrapper's own bookkeeping (counting terms, bit lengths) runs after
the span has ended; it is charged to the ``trace`` pseudo-layer, not to
the caller, so the self times of all spans plus ``trace`` cover the
traced wall time.
"""

from __future__ import annotations

import json
import sys
import time

_clock = time.perf_counter


class Tracer:
    """Span recorder for one process; use from a single thread."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.calls: dict[str, int] = {"trace": 0}
        self.self_s: dict[str, float] = {"trace": 0.0}
        self.counts: dict[str, int] = {}
        self.job = -1
        self._stack = [[-1, 0.0]]  # [span id, time covered by children]
        self._next_id = 0
        self._replace: dict[int, object] = {}

    def count(self, key: str, amount: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def count_max(self, key: str, value: int) -> None:
        if value > self.counts.get(key, 0):
            self.counts[key] = value

    def span(self, name: str, fn, after=None):
        """A wrapper of fn recording a span named name per call.

        ``after(args, result, ok)`` runs once the span has ended, to add
        counts; ``ok`` is False when fn raised, and result is then None.
        """
        self.calls.setdefault(name, 0)
        self.self_s.setdefault(name, 0.0)
        stack, spans, calls, self_s = (
            self._stack, self.spans, self.calls, self.self_s
        )

        def wrapper(*args, **kwargs):
            sid = self._next_id
            self._next_id = sid + 1
            parent = stack[-1]
            frame = [sid, 0.0]
            stack.append(frame)
            result, ok = None, False
            t0 = _clock()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                t1 = _clock()
                stack.pop()
                calls[name] += 1
                self_s[name] += (t1 - t0) - frame[1]
                spans.append((sid, name, t0, t1, parent[0], self.job))
                if after is not None:
                    after(args, result, ok)
                t2 = _clock()
                self_s["trace"] += t2 - t1
                parent[1] += t2 - t0

        return wrapper

    def replace(self, original, replacement) -> None:
        """Register replacement for every binding of original."""
        self._replace[id(original)] = (original, replacement)

    def rebind(self, prefix: str) -> None:
        """Swap registered objects in every module under prefix, and in
        every class those modules define."""
        owners = []
        for name, module in list(sys.modules.items()):
            if module is None or not (
                name == prefix or name.startswith(prefix + ".")
            ):
                continue
            owners.append(module)
            owners += [
                v for v in vars(module).values()
                if isinstance(v, type) and v.__module__ == name
            ]
        for owner in owners:
            for attr, value in list(vars(owner).items()):
                target = value.__func__ if isinstance(value, classmethod) else value
                hit = self._replace.get(id(target))
                if hit is None or hit[0] is not target:
                    continue
                new = hit[1]
                if isinstance(value, classmethod):
                    new = classmethod(new)
                setattr(owner, attr, new)

    def write_spans(self, path: str) -> None:
        """One JSON object per line: id, name, start, end, parent, job."""
        with open(path, "w", encoding="utf-8") as out:
            for sid, name, t0, t1, parent, job in self.spans:
                out.write(
                    json.dumps(
                        {"id": sid, "name": name, "start": t0, "end": t1,
                         "parent": parent, "job": job}
                    )
                )
                out.write("\n")


def _coeff_bits(poly) -> int:
    values = poly.terms.values()
    if not values:
        return 0
    return max(abs(max(values)), abs(min(values))).bit_length()


def _poly_len(value) -> int:
    if isinstance(value, int):
        return 1 if value else 0
    return len(value)


def instrument(tracer: Tracer):
    """Wrap the package's layers; returns the function computing the
    per-layer counts of this process from the tracer and cache state."""
    from triplehodge import (
        flips, laurent, moduli, rank2, series, stability, verify, zoo,
    )

    LP, FU, XS = laurent.LaurentPoly, laurent.FractionUV, series.XSeries
    seen_pairs: set = set()
    caches = {"zoo": [], "rank2": [], "moduli": []}

    def wrap(owner, attr, name, after=None):
        original = vars(owner)[attr]
        if isinstance(original, classmethod):
            original = original.__func__
        tracer.replace(original, tracer.span(name, original, after))
        if hasattr(original, "cache_info"):
            caches.setdefault(name.split(".")[0], []).append(original)

    def mul_after(args, result, ok):
        if ok and result is not NotImplemented:
            tracer.count("laurent.mul.term_products",
                         len(args[0]) * _poly_len(args[1]))
            tracer.count_max("laurent.mul.max_coeff_bits", _coeff_bits(result))

    def divide_after(args, result, ok):
        n = len(args[0])
        tracer.count("laurent.divide_exact.num_terms", n)
        tracer.count_max("laurent.divide_exact.max_num_terms", n)
        tracer.count("laurent.divide_exact.ok", ok)

    def normalize_after(args, result, ok):
        tracer.count("laurent.normalize.collapsed", ok and result.den == 1)

    series_coeff = XS.coeff

    def nonzero(s, n: int) -> list[int]:
        return [i for i in range(n) if not series_coeff(s, i).is_zero()]

    def xmul_after(args, result, ok):
        if not ok or result is NotImplemented:
            return
        left, right = args
        if not isinstance(right, XS):
            tracer.count("series.xmul.coeff_products", left.order)
            return
        n = result.order
        rows = [0] * (n + 1)  # rows[m]: nonzero right coefficients below m
        for j in nonzero(right, n):
            rows[j + 1] += 1
        for m in range(n):
            rows[m + 1] += rows[m]
        tracer.count("series.xmul.coeff_products",
                     sum(rows[n - i] for i in nonzero(left, n)))

    def flip_after(args, result, ok):
        seen_pairs.add((args[0], args[1]))

    wrap(LP, "__mul__", "laurent.mul", mul_after)
    wrap(LP, "__add__", "laurent.add")
    wrap(laurent, "divide_exact", "laurent.divide_exact", divide_after)
    wrap(FU, "normalize", "laurent.normalize", normalize_after)
    wrap(FU, "__eq__", "laurent.fraction_eq")
    wrap(FU, "as_polynomial", "laurent.as_polynomial")
    wrap(XS, "__mul__", "series.xmul", xmul_after)
    wrap(XS, "geometric", "series.geometric")
    wrap(series, "sym_series", "series.sym_series")
    wrap(flips, "flip_contribution", "flips.flip_contribution", flip_after)
    wrap(flips, "c_n_even", "flips.c_n_even")
    wrap(flips, "c_n_odd", "flips.c_n_odd")
    for module, layer in ((stability, "stability"), (zoo, "zoo"),
                          (rank2, "rank2")):
        for fn in module.__all__:
            value = vars(module).get(fn)
            if callable(value) and not isinstance(value, type) \
                    and value.__module__ == module.__name__:
                wrap(module, fn, f"{layer}.{fn}")
    for fn in ("e_m3", "e_m3_via_pipeline", "e_n31_closed", "e_n31_flipsum",
               "poincare_n31", "poincare_m3"):
        wrap(moduli, fn, f"moduli.{fn}")

    # counters only, no spans: XSeries construction and coefficient reads
    xs_init = XS.__init__

    def counted_init(self, order, coeffs):
        xs_init(self, order, coeffs)
        tracer.count("series.coeffs_built", order)
        tracer.count_max("series.max_order", order)

    def counted_coeff(self, k):
        tracer.count("series.coeffs_read")
        return series_coeff(self, k)

    tracer.replace(xs_init, counted_init)
    tracer.replace(series_coeff, counted_coeff)

    # verify: one span per suite through run_suite, one per case via SUITES
    run_suite = verify.run_suite
    per_suite = {
        s: tracer.span(f"verify.{s}", run_suite) for s in verify.SUITES
    }

    def traced_run_suite(suite, grid_name="quick"):
        return per_suite[suite](suite, grid_name)

    tracer.replace(run_suite, traced_run_suite)
    for suite, build in list(verify.SUITES.items()):
        def traced_build(grid, build=build):
            return [
                (case, tracer.span("verify.case", fn)) for case, fn in build(grid)
            ]
        verify.SUITES[suite] = traced_build

    tracer.rebind("triplehodge")

    def layer_counts() -> dict[str, float]:
        return _layer_metrics(tracer, caches, len(seen_pairs))

    return layer_counts


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _hit_ratio(cached) -> float:
    hits = sum(f.cache_info().hits for f in cached)
    misses = sum(f.cache_info().misses for f in cached)
    return _ratio(hits, hits + misses)


def _layer_metrics(tracer: Tracer, caches, distinct_flips: int) -> dict:
    calls, self_s, counts = tracer.calls, tracer.self_s, tracer.counts
    out: dict[str, float] = {}
    for name in ("laurent.divide_exact", "laurent.mul", "laurent.add",
                 "laurent.normalize", "laurent.fraction_eq",
                 "laurent.as_polynomial", "series.xmul", "series.sym_series",
                 "flips.flip_contribution", "flips.c_n_even", "flips.c_n_odd",
                 "moduli.e_m3", "moduli.e_m3_via_pipeline",
                 "moduli.e_n31_closed", "moduli.e_n31_flipsum",
                 "moduli.poincare_n31", "moduli.poincare_m3"):
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.self_s"] = self_s[name]
    for layer in ("stability", "zoo", "rank2"):
        names = [n for n in calls if n.startswith(layer + ".")]
        out[f"{layer}.calls"] = sum(calls[n] for n in names)
        out[f"{layer}.self_s"] = sum(self_s[n] for n in names)
    out["series.geometric.calls"] = calls["series.geometric"]
    for key in ("laurent.divide_exact.num_terms",
                "laurent.divide_exact.max_num_terms",
                "laurent.mul.term_products", "laurent.mul.max_coeff_bits",
                "series.xmul.coeff_products", "series.max_order"):
        out[key] = counts.get(key, 0)
    out["laurent.divide_exact.ok_ratio"] = _ratio(
        counts.get("laurent.divide_exact.ok", 0), calls["laurent.divide_exact"])
    out["laurent.normalize.collapsed_ratio"] = _ratio(
        counts.get("laurent.normalize.collapsed", 0), calls["laurent.normalize"])
    out["series.coeff_used_ratio"] = _ratio(
        counts.get("series.coeffs_read", 0), counts.get("series.coeffs_built", 0))
    out["flips.flip_contribution.distinct_ratio"] = _ratio(
        distinct_flips, calls["flips.flip_contribution"])
    for layer in ("zoo", "rank2", "moduli"):
        out[f"{layer}.cache_hit_ratio"] = _hit_ratio(caches[layer])

    def durations(name):
        return [t1 - t0 for _, n, t0, t1, _, _ in tracer.spans if n == name]

    for name in calls:
        if name.startswith("verify.") and name != "verify.case":
            out[f"{name}.wall_s"] = sum(durations(name))
    out["verify.cases"] = calls.get("verify.case", 0)
    out["verify.case_max_s"] = max(durations("verify.case"), default=0.0)
    out["cli.self_s"] = self_s.get("cli", 0.0)
    out["trace.self_s"] = self_s["trace"]
    out["trace.spans"] = len(tracer.spans)
    out["trace.self_sum_s"] = sum(self_s.values())
    return out
