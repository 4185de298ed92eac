"""Independent reference computations and frozen expected values.

Everything here is deliberately written from scratch on plain dicts and
lists, with no imports from the package under test, so that agreement
between the two is evidence rather than tautology.

Polynomials in u, v are dicts mapping (a, b) exponent pairs to integer
coefficients; zero coefficients are never stored.  Power series in an
auxiliary variable x are lists of such dicts, index = x-exponent.
"""

from fractions import Fraction
from functools import lru_cache
from math import comb, floor, gcd, inf

# -- dict polynomial arithmetic ----------------------------------------


def padd(p, q):
    out = dict(p)
    for key, c in q.items():
        s = out.get(key, 0) + c
        if s:
            out[key] = s
        else:
            out.pop(key, None)
    return out


def pneg(p):
    return {key: -c for key, c in p.items()}


def psub(p, q):
    return padd(p, pneg(q))


def pmul(p, q, cut=inf):
    # terms of total degree above cut are dropped, each row at the cut
    rows = sorted(q.items(), key=lambda item: sum(item[0]))
    out = {}
    for (a, b), c in p.items():
        room = cut - a - b
        for (x, y), d in rows:
            if x + y > room:
                break
            key = (a + x, b + y)
            s = out.get(key, 0) + c * d
            if s:
                out[key] = s
            else:
                out.pop(key, None)
    return out


def ppow(p, k):
    out = {(0, 0): 1}
    for _ in range(k):
        out = pmul(out, p)
    return out


def pconst(c):
    return {(0, 0): c} if c else {}


# -- series in x with dict-poly coefficients ---------------------------


def series_mul(s, t, order):
    out = [{} for _ in range(order)]
    for i, p in enumerate(s):
        if i >= order or not p:
            continue
        for j, q in enumerate(t):
            if i + j >= order:
                break
            if q:
                out[i + j] = padd(out[i + j], pmul(p, q))
    return out


def series_geometric(ratio, order):
    # 1 / (1 - ratio * x)
    out = [pconst(1)]
    for _ in range(order - 1):
        out.append(pmul(out[-1], ratio))
    return out


def series_binomial(factor, g, order):
    # (1 + factor * x)^g truncated
    out = []
    power = pconst(1)
    for k in range(order):
        out.append(pmul(pconst(comb(g, k)), power))
        power = pmul(power, factor)
    return out


def coeff_extract(g, poles, k):
    """[x^k] (1+ux)^g (1+vx)^g / prod_i (1 - poles[i] x), by brute force."""
    order = k + 1
    series = series_mul(
        series_binomial({(1, 0): 1}, g, order),
        series_binomial({(0, 1): 1}, g, order),
        order,
    )
    for pole in poles:
        series = series_mul(series, series_geometric(pole, order), order)
    return series[k] if k >= 0 else {}


def sym_power_curve(k, g):
    """e(Sym^k X) as the x^k coefficient of (1+ux)^g (1+vx)^g / ((1-x)(1-uvx))."""
    return coeff_extract(g, [pconst(1), {(1, 1): 1}], k)


# -- Harder-Narasimhan recursion for stable-bundle Hodge polynomials ----
#
# Atiyah-Bott (1983), with the Hodge types of the generators from
# Earl-Kirwan (2000), for any rank.  Every series is a dict polynomial
# cut at one total degree, 2 * dim of the moduli space asked for: every
# series starts at degree 0 and the codimension shifts (uv)^c only raise
# degrees, so each coefficient kept is exact.  The recursion needs only
# the gauge-group series and the codimensions of the Harder-Narasimhan
# strata; it knows nothing about triples or wall-crossing, which is the
# point.


def gauge_series(n, g, cut):
    """P_n, the Hodge series of the stack of rank-n bundles, cut.

    (1+u)^g (1+v)^g / (1-uv) times, for k = 2..n,
    (1 + u^k v^(k-1))^g (1 + u^(k-1) v^k)^g
    / ((1 - (uv)^k)(1 - (uv)^(k-1))).
    """
    out = pconst(1)
    for k in range(1, n + 1):
        for a, b in ((k, k - 1), (k - 1, k)):
            binomial = {(a * j, b * j): comb(g, j) for j in range(g + 1)}
            out = pmul(out, binomial, cut)
        for step in range(max(k - 1, 1), k + 1):
            ladder = range(cut // (2 * step) + 1)
            out = pmul(out, {(step * j, step * j): 1 for j in ladder}, cut)
    return out


def hn_types(n, d, g, budget, above=None):
    """Harder-Narasimhan types of rank n and degree d, with codimension.

    Yields (pieces, c): pieces (n_i, d_i) of strictly decreasing slope,
    all below the slope of the piece ``above`` when it is given, with
    c = sum_(i<j) (n_i n_j (g-1) + n_j d_i - n_i d_j) <= budget.  The
    one-piece type comes first.  Slopes are compared as integers.
    """
    if above is None or d * above[0] < above[1] * n:
        yield [(n, d)], 0
    for n1 in range(1, n):
        # the first piece's slope is above d / n, and its share of c
        # grows with d1
        d1 = n1 * d // n + 1
        while above is None or d1 * above[0] < above[1] * n1:
            c1 = n1 * (n - n1) * (g - 1) + n * d1 - n1 * d
            if c1 > budget:
                break
            for rest, c in hn_types(n - n1, d - d1, g, budget - c1, (n1, d1)):
                yield [(n1, d1), *rest], c1 + c
            d1 += 1


@lru_cache(maxsize=None)
def hn_semistable(n, r, g, cut):
    """P^ss_(n,d) for any d = r mod n: P_n minus its unstable strata.

    Memoized, so every caller gets the same dict; none may change it.
    """
    total = gauge_series(n, g, cut)
    # the product commutes, so types whose pieces agree up to order and
    # twist share one product, times the sum of their shifts (uv)^c
    shifts = {}
    for pieces, c in hn_types(n, r, g, cut // 2):
        if len(pieces) > 1:
            key = tuple(sorted((m, e % m) for m, e in pieces))
            shift = shifts.setdefault(key, {})
            shift[c, c] = shift.get((c, c), 0) + 1
    for key, product in shifts.items():
        for m, e in key:
            product = pmul(product, hn_semistable(m, e, g, cut), cut)
        total = psub(total, product)
    return total


def hn_moduli_hodge(n, d, g):
    """e(M(n, d)) for gcd(n, d) = 1: (1 - uv) P^ss_(n,d), cut at 2 * dim."""
    assert gcd(n, d) == 1
    cut = 2 * (n * n * (g - 1) + 1)
    return pmul({(0, 0): 1, (1, 1): -1}, hn_semistable(n, d % n, g, cut), cut)


def pdiagonal(p):
    """Coefficients of p(t, t), lowest degree first."""
    out = [0] * (max(a + b for a, b in p) + 1)
    for (a, b), c in p.items():
        out[a + b] += c
    return out


# -- stability chambers of types (3,1) and (2,1) ------------------------


def sigma_interval(n1, d1, d2):
    """(sigma_m, sigma_M) for the type (n1, 1, d1, d2), n1 = 2 or 3.

    sigma_m = mu1 - mu2 and sigma_M = (1 + (n1 + 1)/(n1 - 1)) * sigma_m.
    """
    sigma_m = Fraction(d1, n1) - d2
    return sigma_m, (1 + Fraction(n1 + 1, n1 - 1)) * sigma_m


def wall_31(sigma, d1, d2):
    """Least index n with critical value 2n - d1 - d2 above sigma."""
    return floor((sigma + d1 + d2) / 2) + 1


def wall_21(sigma, d1, d2):
    """Least index d_m with critical value 3*d_m - d1 - d2 above sigma."""
    return floor((sigma + d1 + d2) / 3) + 1


def dim_31(g, d1, d2):
    """Complex dimension of N_sigma(3, 1, d1, d2), a nonempty chamber."""
    return 7 * g - 6 + d1 - 3 * d2


def dim_21(g, d1, d2):
    """Complex dimension of N_sigma(2, 1, d1, d2), a nonempty chamber."""
    return 3 * g - 2 + d1 - 2 * d2


# -- frozen expected values --------------------------------------------

# e(Sym^1 X) and e(Sym^2 X) at g = 2: binomial coefficients of the curve
# and the degree-2 extraction done by hand.
SYM1_G2 = {(0, 0): 1, (1, 0): 2, (0, 1): 2, (1, 1): 1}
SYM2_G2 = {
    (0, 0): 1,
    (1, 0): 2,
    (0, 1): 2,
    (2, 0): 1,
    (1, 1): 5,
    (0, 2): 1,
    (2, 1): 2,
    (1, 2): 2,
    (2, 2): 1,
}

# e(Jac X) = (1+u)^g (1+v)^g at g = 2, expanded by hand.
JAC_G2 = {
    (0, 0): 1,
    (1, 0): 2,
    (0, 1): 2,
    (2, 0): 1,
    (1, 1): 4,
    (0, 2): 1,
    (2, 1): 2,
    (1, 2): 2,
    (2, 2): 1,
}

# Gaussian binomial [4 choose 2] in powers of uv.
GR24 = {(0, 0): 1, (1, 1): 1, (2, 2): 2, (3, 3): 1, (4, 4): 1}

# e(Sym^2 P^1) = e(P^2).
SYM2_P1 = {(0, 0): 1, (1, 1): 1, (2, 2): 1}

P3_BETTI = [1, 0, 1, 0, 1, 0, 1]

# critical values of (3,1,d1,d2) triples at g = 2, listed as (n, sigma)
CRITICALS_3150 = [(4, 3), (5, 5)]
CRITICALS_3160 = [(5, 4), (6, 6)]

# Betti numbers of M(2,1) and M(3,1), frozen from the Betti-only HN
# recursion that the Hodge-level one above replaced; its diagonal must
# still give them.
M21_BETTI = {
    2: [1, 4, 7, 12, 24, 32, 24, 12, 7, 4, 1],
    3: [1, 6, 16, 32, 68, 134, 218, 328, 465, 536,
        465, 328, 218, 134, 68, 32, 16, 6, 1],
}
M31_BETTI = {
    2: [1, 4, 7, 12, 26, 48, 76, 112, 157, 208, 234,
        208, 157, 112, 76, 48, 26, 12, 7, 4, 1],
    3: [1, 6, 16, 32, 69, 146, 272, 474, 809, 1354, 2186, 3370,
        5047, 7388, 10396, 13954, 17870, 21730, 24774, 25972, 24774,
        21730, 17870, 13954, 10396, 7388, 5047, 3370, 2186, 1354,
        809, 474, 272, 146, 69, 32, 16, 6, 1],
}
