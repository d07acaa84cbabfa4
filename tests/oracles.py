"""Reference computations that do not go through the package's own code.

Closed-form rational functions are expanded through sympy's univariate
series machinery (an auxiliary scaling variable makes the truncation a
total-degree one), so the expected term dictionaries do not go through the
package's own series arithmetic.  The blow-up push-forward has a normal-form
reference that rewrites powers of E one step at a time, and a closed-form one
that substitutes every term and expands every power of E, with no test of
which strata are empty; the pull-back is the same substitution with the
opposite sign.  Stratum emptiness up a blow-up tower has a recursive
reference that asks the level below, and scheme emptiness a brute-force one
that enumerates candidate strata.  The
reciprocal of 1 + L has the geometric series of series products as its
reference, and a simplex contribution the product of such reciprocals.
The total transform of generators up a tower has a step-by-step reference
that widens them by one exponent per blow-up.
Division by 1 + L has a degree-by-degree recurrence on term dicts as its
reference.  The placing triangulation has a reference that rebuilds the
boundary from every cell for each new point and reads each facet's side
off the opposite vertex of its cell, with rational determinants.  The
seeded draw rule for random presentations is here too, so that every suite
draws the same way, with small series builders that only tests need.
"""

from fractions import Fraction
from itertools import combinations
from math import comb

import sympy

from monomial_segre.lattice import presentation
from monomial_segre.polytope import hvol
from monomial_segre.series import TruncatedSeries


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


def substitute_center(terms, pi, pj, sign):
    """Binomial substitution at the two center positions of terms laid out
    as (E, Y_1, ..., Y_n): each center power Y^a becomes (Y + sign E)^a,
    expanded term by term.  Sign -1 rewrites the transforms Y~ as Y - E, for
    a push-forward; sign +1 pulls Y back to Y~ + E."""
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
                v = sign ** (r1 + r2) * comb(ai, r1) * comb(aj, r2) * c
                working[t] = working.get(t, 0) + v
    return working


def pullback(terms, pi, pj):
    """p* down one blow-up on plain term dicts over (Y_1, ..., Y_n): each
    center variable maps to its transform plus E, every other variable to
    its transform.  Returns the nonzero terms over (E, Y~_1, ..., Y~_n)."""
    lifted = {(0,) + e: c for e, c in terms.items()}
    return {e: c for e, c in substitute_center(lifted, pi, pj, 1).items() if c}


def total_transform(generators, steps):
    """The generators' exponents on the top level of a tower, one blow-up at
    a time: above the blow-up of {i, j}, a generator g gains the exponent
    g_i + g_j on the new exceptional divisor, in front, and keeps its other
    entries on the proper transforms."""
    gens = [tuple(g) for g in generators]
    for step in steps:
        pi, pj = step.center
        gens = [(g[pi] + g[pj],) + g for g in gens]
    return gens


def pushforward_by_normal_form(terms, pi, pj):
    """Push-forward down one blow-up by normal form, on plain term dicts.

    terms maps exponents over the upper layout (E, Y~_1, ..., Y~_n) to
    coefficients; pi, pj are the 0-based center positions among the Y.
    Substitute Y~_center -> Y - E, rewrite E^k (k >= 2) with
    E^2 = E(Y_i + Y_j) - Y_i Y_j until every power of E is below 2, then keep
    the E-free part.  Returns the nonzero terms over (Y_1, ..., Y_n)."""
    working = substitute_center(terms, pi, pj, -1)
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


def pushforward_by_substitution(terms, pi, pj):
    """Push-forward down one blow-up in closed form, on plain term dicts laid
    out as in `pushforward_by_normal_form`.

    Substitute Y~_center -> Y - E into every term, then push each power of E
    down with p_*(1) = 1, p_*(E) = 0 and p_*(E^k) = -Y_i Y_j h_{k-2}(Y_i, Y_j)
    for k >= 2.  Every term is kept, whether or not its stratum is empty."""
    working = substitute_center(terms, pi, pj, -1)
    out = {}
    for e, c in working.items():
        k = e[0]
        if k == 0:
            out[e[1:]] = out.get(e[1:], 0) + c
        # the monomials Y_i^(r+1) Y_j^(k-1-r) of Y_i Y_j h_{k-2}; none for k < 2
        for r in range(k - 1):
            t = list(e[1:])
            t[pi] += r + 1
            t[pj] += k - 1 - r
            t = tuple(t)
            out[t] = out.get(t, 0) - c
    return {e: c for e, c in out.items() if c}


def stratum_is_empty_by_recursion(dim, nil_pairs, steps, labels):
    """Emptiness of a stratum on the top level of a tower, asked down the
    tower one blow-up at a time.

    dim is the ambient dimension, nil_pairs the label pairs declared not to
    meet on the base, and steps the blow-ups above the base, lowest first;
    every stratum here is a set of labels, each center read off its lower
    ring's labels and each exceptional divisor off its upper ring's first.
    On the base a stratum is empty when it has more than dim labels or
    contains a nil pair.  Above a blow-up of
    {i, j} with exceptional E: the proper transforms of i and j are
    disjoint, any other stratum avoiding E is empty iff its image below is,
    and a stratum through E is empty iff its image together with {i, j} is
    empty below."""
    s = frozenset(labels)
    if len(s) > dim:
        return True
    if len(s) < 2:
        return False
    if not steps:
        return any(frozenset(pair) <= s for pair in nil_pairs)
    step = steps[-1]
    i, j = (step.lower.variables[k] for k in step.center)
    exceptional = step.upper.variables[0]
    low = {lab[1:] if lab in ("~" + i, "~" + j) else lab
           for lab in s - {exceptional}}
    if {i, j} <= low:
        return True
    if exceptional in s:
        low |= {i, j}
    return stratum_is_empty_by_recursion(dim, nil_pairs, steps[:-1], low)


def scheme_is_empty_by_enumeration(labels, ambient_dim, generators,
                                   stratum_is_empty):
    """True when no nonempty stratum of at most ambient_dim labels meets the
    support of every generator, found by trying every label subset; a zero
    generator (the unit ideal) makes the scheme empty."""
    if any(not any(g) for g in generators):
        return True
    supports = [{labels[k] for k, a in enumerate(g) if a} for g in generators]
    for size in range(1, ambient_dim + 1):
        for cand in combinations(labels, size):
            if not stratum_is_empty(cand) and \
                    all(s & set(cand) for s in supports):
                return False
    return True


def variable(index, num_vars, degree_bound):
    """The series X_(index+1) in num_vars variables."""
    e = tuple(int(k == index) for k in range(num_vars))
    return TruncatedSeries.monomial(e, num_vars, degree_bound)


def form_series(constant, v, degree_bound):
    """The linear form constant + v.X as a series."""
    n = len(v)
    out = TruncatedSeries.constant(constant, n, degree_bound)
    for i, c in enumerate(v):
        out = out + c * variable(i, n, degree_bound)
    return out


def reciprocal_by_geometric_series(v, degree_bound):
    """1/(1 + L) for L = v.X as the geometric series sum_k (-L)^k, one series
    product per degree."""
    minus_l = -form_series(0, v, degree_bound)
    acc = TruncatedSeries.one(len(v), degree_bound)
    power = acc
    for _ in range(degree_bound):
        power = power * minus_l
        if power.is_zero():
            break
        acc = acc + power
    return acc


def simplex_contribution_by_products(t, degree_bound):
    """hvol(t) X^b times the geometric reciprocal of 1 + v.X for every
    finite vertex v, multiplied out one product per vertex."""
    n = t.dim
    b = tuple(0 if d in t.infinite_directions else 1 for d in range(n))
    out = TruncatedSeries.monomial(b, n, degree_bound, coefficient=hvol(t))
    for v in t.finite_vertices:
        out = out * reciprocal_by_geometric_series(v, degree_bound)
    return out


def divide_by_degree(s, v):
    """s / (1 + L) for L = v.X, degree by degree on term dicts: the degree-d
    part of the quotient is out_d = s_d - L * out_(d-1)."""
    assert len(v) == s.num_vars
    steps = [(i, a) for i, a in enumerate(v) if a]
    by_degree = [{} for _ in range(s.degree_bound + 1)]
    for e, c in s.terms.items():
        by_degree[sum(e)][e] = c
    out = {}
    prev = {}
    for cur in by_degree:
        for e, c in prev.items():
            for i, a in steps:
                t = e[:i] + (e[i] + 1,) + e[i + 1:]
                cur[t] = cur.get(t, 0) - a * c
        prev = {e: c for e, c in cur.items() if c}
        out.update(prev)
    return TruncatedSeries(s.num_vars, s.degree_bound, out)


def _fraction_rank_and_det(rows):
    """Rank of a list of integer vectors, and their determinant when they
    are square, by Gaussian elimination over the rationals."""
    m = [[Fraction(a) for a in r] for r in rows]
    rank, value = 0, Fraction(1)
    for col in range(len(m[0]) if m else 0):
        pivot = next((k for k in range(rank, len(m)) if m[k][col]), None)
        if pivot is None:
            value = Fraction(0)
            continue
        if pivot != rank:
            m[rank], m[pivot] = m[pivot], m[rank]
            value = -value
        top = m[rank]
        value *= top[col]
        for k in range(rank + 1, len(m)):
            factor = m[k][col] / top[col]
            m[k] = [a - factor * b for a, b in zip(m[k], top)]
        rank += 1
    return rank, value


def placing_cells_by_rebuild(config, order):
    """The cells of the placing triangulation of config in the given label
    order, each as its labels in that order, sorted.

    The first labels that are linearly independent form the starting cell,
    and each later label is coned over every boundary facet it strictly
    sees.  The boundary is rebuilt for each label from all cells so far (a
    facet of exactly one cell), and the label sees a facet when the facet's
    determinant with it and with the cell's opposite vertex have opposite
    nonzero signs."""
    hom = config.homogeneous
    d1 = config.dim + 1
    basis, skipped = [], []
    rest = list(order)
    while rest and len(basis) < d1:
        lab = rest.pop(0)
        rank, _ = _fraction_rank_and_det([hom[b] for b in basis] + [hom[lab]])
        (basis if rank > len(basis) else skipped).append(lab)
    assert len(basis) == d1, "no full-dimensional starting simplex"

    def side(facet, probe):
        _, value = _fraction_rank_and_det([hom[f] for f in facet] +
                                          [hom[probe]])
        return (value > 0) - (value < 0)

    cells = [frozenset(basis)]
    for lab in skipped + rest:
        owners = {}
        for cell in cells:
            for drop in cell:
                owners.setdefault(cell - {drop}, []).append(cell)
        new_cells = []
        for facet, owned in owners.items():
            if len(owned) != 1:
                continue
            opposite = next(iter(owned[0] - facet))
            ordered = tuple(sorted(facet))
            s_new = side(ordered, lab)
            if s_new != 0 and s_new == -side(ordered, opposite):
                new_cells.append(facet | {lab})
        cells.extend(new_cells)
    position = {lab: k for k, lab in enumerate(order)}
    return sorted(tuple(sorted(c, key=position.get)) for c in cells)
