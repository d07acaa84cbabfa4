"""Reference computations that do not go through the package's own code.

Closed-form rational functions are expanded through sympy's univariate
series machinery (an auxiliary scaling variable makes the truncation a
total-degree one), so the expected term dictionaries do not go through the
package's own series arithmetic.  The blow-up push-forward has a normal-form
reference that rewrites powers of E one step at a time.  The seeded draw rule
for random presentations is here too, so that every suite draws the same way.
"""

from fractions import Fraction
from math import comb

import sympy

from monomial_segre.lattice import presentation


def expand_terms(expr, variables, degree_bound):
    """Total-degree truncation of a sympy expression as {exponents: Fraction}."""
    t = sympy.Symbol("_t")
    scaled = expr.subs({x: t * x for x in variables}, simultaneous=True)
    series = sympy.series(scaled, t, 0, degree_bound + 1).removeO()
    poly = sympy.Poly(sympy.expand(series.subs(t, 1)), *variables)
    out = {}
    for monom, coeff in poly.terms():
        q = sympy.Rational(coeff)
        out[tuple(int(k) for k in monom)] = Fraction(int(q.p), int(q.q))
    return out


def symbols(n, prefix="X"):
    return sympy.symbols(f"{prefix}1:{n + 1}")


def random_presentation(rnd):
    """One to four distinct nonzero generators in 2 or 3 variables, exponents
    0..4, drawn from the random.Random instance rnd."""
    n = rnd.choice([2, 3])
    m = rnd.randint(1, 4)
    gens = set()
    while len(gens) < m:
        g = tuple(rnd.randint(0, 4) for _ in range(n))
        if any(g):
            gens.add(g)
    return presentation(tuple(sorted(gens)))


def pushforward_by_normal_form(terms, pi, pj):
    """Push-forward down one blow-up by normal form, on plain term dicts.

    terms maps exponents over the upper layout (E, Y~_1, ..., Y~_n) to
    coefficients; pi, pj are the 0-based center positions among the Y.
    Substitute Y~_center -> Y - E, rewrite E^k (k >= 2) with
    E^2 = E(Y_i + Y_j) - Y_i Y_j until every power of E is below 2, then keep
    the E-free part.  Returns the nonzero terms over (Y_1, ..., Y_n)."""
    working = {}
    for e, c in terms.items():
        ai, aj = e[pi + 1], e[pj + 1]
        for r1 in range(ai + 1):
            for r2 in range(aj + 1):
                t = list(e)
                t[0] += r1 + r2
                t[pi + 1] -= r1
                t[pj + 1] -= r2
                t = tuple(t)
                v = (-1) ** (r1 + r2) * comb(ai, r1) * comb(aj, r2) * c
                working[t] = working.get(t, 0) + v
    reduced = {}
    work = list(working.items())
    while work:
        e, c = work.pop()
        if e[0] < 2:
            reduced[e] = reduced.get(e, 0) + c
            continue
        base = list(e)
        base[0] -= 2
        for bumps, sign in (((0, pi + 1), 1), ((0, pj + 1), 1),
                            ((pi + 1, pj + 1), -1)):
            t = list(base)
            for pos in bumps:
                t[pos] += 1
            work.append((tuple(t), sign * c))
    return {e[1:]: c for e, c in reduced.items() if e[0] == 0 and c}
