"""Independent reference computations and frozen expected values.

Everything here is deliberately written from scratch on plain dicts and
lists, with no imports from the package under test, so that agreement
between the two is evidence rather than tautology.

Polynomials in u, v are dicts mapping (a, b) exponent pairs to integer
coefficients; zero coefficients are never stored.  Power series in an
auxiliary variable x are lists of such dicts, index = x-exponent.
"""

from fractions import Fraction
from math import floor

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


def pmul(p, q):
    out = {}
    for (a, b), c in p.items():
        for (x, y), d in q.items():
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
    from math import comb

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


# -- Harder-Narasimhan recursion for stable-bundle Betti numbers -------
#
# Univariate integer series in t, truncated lists.  The recursion needs
# only the stack series of all bundles and the codimensions of the
# Harder-Narasimhan strata; it knows nothing about triples or
# wall-crossing, which is the point.

HN_ORDER = 84


def tser(coeffs=()):
    out = [0] * HN_ORDER
    for i, c in enumerate(coeffs):
        if i < HN_ORDER:
            out[i] = c
    return out


def tmul(a, b):
    out = [0] * HN_ORDER
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y and i + j < HN_ORDER:
                    out[i + j] += x * y
    return out


def tsub(a, b):
    return [x - y for x, y in zip(a, b)]


def tinv(a):
    assert a[0] == 1
    out = [0] * HN_ORDER
    out[0] = 1
    for n in range(1, HN_ORDER):
        out[n] = -sum(a[k] * out[n - k] for k in range(1, n + 1))
    return out


def t_one_plus_pow(shift, exp):
    base = tser([1])
    base[shift] = 1
    out = tser([1])
    for _ in range(exp):
        out = tmul(out, base)
    return out


def t_shift(k):
    s = tser()
    s[k] = 1
    return s


def hn_pic_stack(g):
    return tmul(t_one_plus_pow(1, 2 * g), tinv(tsub(tser([1]), t_shift(2))))


def hn_bun_stack(r, g):
    out = hn_pic_stack(g)
    for k in range(2, r + 1):
        out = tmul(out, t_one_plus_pow(2 * k - 1, 2 * g))
        out = tmul(out, tinv(tsub(tser([1]), t_shift(2 * k))))
        out = tmul(out, tinv(tsub(tser([1]), t_shift(2 * k - 2))))
    return out


def hn_ss_stack_2(d, g):
    total = hn_bun_stack(2, g)
    p1 = hn_pic_stack(g)
    p1p1 = tmul(p1, p1)
    a = d // 2 + 1
    while True:
        codim = 2 * a - d + (g - 1)
        if 2 * codim >= HN_ORDER:
            return total
        total = tsub(total, tmul(p1p1, t_shift(2 * codim)))
        a += 1


def hn_ss_stack_3(d, g):
    total = hn_bun_stack(3, g)
    p1 = hn_pic_stack(g)
    a = d // 3 + 1
    while True:
        codim = 3 * a - d + 2 * (g - 1)
        if 2 * codim >= HN_ORDER:
            break
        block = tmul(p1, hn_ss_stack_2(d - a, g))
        total = tsub(total, tmul(block, t_shift(2 * codim)))
        a += 1
    b = (2 * d) // 3 + 1
    while True:
        codim = 3 * b - 2 * d + 2 * (g - 1)
        if 2 * codim >= HN_ORDER:
            break
        block = tmul(hn_ss_stack_2(b, g), p1)
        total = tsub(total, tmul(block, t_shift(2 * codim)))
        b += 1
    p13 = tmul(tmul(p1, p1), p1)
    a = d // 3 + 1
    while True:
        b_min = (d - a) // 2 + 1
        min_codim = 3 * (g - 1) + 2 * (2 * a + b_min - d)
        if 2 * min_codim >= HN_ORDER:
            break
        for b in range(b_min, a):
            codim = 3 * (g - 1) + 2 * (2 * a + b - d)
            if 2 * codim >= HN_ORDER:
                break
            total = tsub(total, tmul(p13, t_shift(2 * codim)))
        a += 1
    return total


def hn_moduli_betti(r, d, g):
    """Betti numbers of M(r,d) for gcd(r,d) = 1, as a trimmed list."""
    stack = hn_ss_stack_2(d, g) if r == 2 else hn_ss_stack_3(d, g)
    poly = tmul(stack, tsub(tser([1]), t_shift(2)))
    last = max(i for i, c in enumerate(poly) if c)
    return poly[: last + 1]


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

# Betti numbers of M(2,1) and M(3,1), frozen from the recursion above.
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
