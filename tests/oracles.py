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
reference.  A cell's normalized volume has the determinant of its projected
edges as its reference.  The placing triangulation has a reference that
rebuilds the boundary from every cell for each new point and reads each
facet's side off the opposite vertex of its cell, with rational
determinants.  The
determinant has the Leibniz permutation sum as its reference.  The
center rule's slot scores have a reference that finds co-minimal pairs by
Fourier-Motzkin elimination on each facet.  The area of a bounded Newton
region in two variables comes from a monotone-chain lower hull and the
shoelace formula, and its volume in three variables from Ehrhart theory:
the lattice points outside the dilates of the Newton polyhedron.  The
seeded draw rule for random presentations is here too, so that every suite
draws the same way, with small series builders that only tests need, and
the layout rule a grouped class's sparse keys obey.
"""

from dataclasses import replace
from fractions import Fraction
from itertools import combinations, permutations, product
from math import comb, gcd

import sympy

from monomial_segre.errors import DimensionMismatchError
from monomial_segre.lattice import presentation
from monomial_segre.polytope import HalfSimplex, det
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
    as (Y_1, ..., Y_n, E): each center power Y^a becomes (Y + sign E)^a,
    expanded term by term.  Sign -1 rewrites the transforms Y~ as Y - E, for
    a push-forward; sign +1 pulls Y back to Y~ + E."""
    working = {}
    for e, c in terms.items():
        ai, aj = e[pi], e[pj]
        for r1 in range(ai + 1):
            for r2 in range(aj + 1):
                t = list(e)
                t[-1] += r1 + r2
                t[pi] -= r1
                t[pj] -= r2
                t = tuple(t)
                v = sign ** (r1 + r2) * comb(ai, r1) * comb(aj, r2) * c
                working[t] = working.get(t, 0) + v
    return working


def pullback(terms, pi, pj):
    """p* down one blow-up on plain term dicts over (Y_1, ..., Y_n): each
    center variable maps to its transform plus E, every other variable to
    its transform.  Returns the nonzero terms over (Y~_1, ..., Y~_n, E)."""
    lifted = {e + (0,): c for e, c in terms.items()}
    return {e: c for e, c in substitute_center(lifted, pi, pj, 1).items() if c}


def total_transform(generators, steps):
    """The generators' exponents on the top level of a tower, one blow-up at
    a time: above the blow-up of {i, j}, a generator g gains the exponent
    g_i + g_j on the new exceptional divisor, last, and keeps its other
    entries on the proper transforms."""
    gens = [tuple(g) for g in generators]
    for step in steps:
        pi, pj = step.center
        gens = [g + (g[pi] + g[pj],) for g in gens]
    return gens


def pushforward_by_normal_form(terms, pi, pj):
    """Push-forward down one blow-up by normal form, on plain term dicts.

    terms maps exponents over the upper layout (Y~_1, ..., Y~_n, E) to
    coefficients; pi, pj are the 0-based center positions among the Y.
    Substitute Y~_center -> Y - E, rewrite E^k (k >= 2) with
    E^2 = E(Y_i + Y_j) - Y_i Y_j until every power of E is below 2, then keep
    the E-free part.  Returns the nonzero terms over (Y_1, ..., Y_n)."""
    working = substitute_center(terms, pi, pj, -1)
    reduced = {}
    work = list(working.items())
    while work:
        e, c = work.pop()
        if e[-1] < 2:
            reduced[e] = reduced.get(e, 0) + c
            continue
        base = list(e)
        base[-1] -= 2
        for bumps, sign in (((-1, pi), 1), ((-1, pj), 1), ((pi, pj), -1)):
            t = list(base)
            for pos in bumps:
                t[pos] += 1
            work.append((tuple(t), sign * c))
    return {e[:-1]: c for e, c in reduced.items() if e[-1] == 0 and c}


def pushforward_by_substitution(terms, pi, pj):
    """Push-forward down one blow-up in closed form, on plain term dicts laid
    out as in `pushforward_by_normal_form`.

    Substitute Y~_center -> Y - E into every term, then push each power of E
    down with p_*(1) = 1, p_*(E) = 0 and p_*(E^k) = -Y_i Y_j h_{k-2}(Y_i, Y_j)
    for k >= 2.  Every term is kept, whether or not its stratum is empty."""
    working = substitute_center(terms, pi, pj, -1)
    out = {}
    for e, c in working.items():
        k = e[-1]
        if k == 0:
            out[e[:-1]] = out.get(e[:-1], 0) + c
        # the monomials Y_i^(r+1) Y_j^(k-1-r) of Y_i Y_j h_{k-2}; none for k < 2
        for r in range(k - 1):
            t = list(e[:-1])
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
    ring's labels and each exceptional divisor off its upper ring's last.
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
    exceptional = step.upper.variables[-1]
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
    return TruncatedSeries(num_vars, degree_bound, {e: 1})


def form_series(constant, v, degree_bound):
    """The linear form constant + v.X as a series."""
    n = len(v)
    terms = {(0,) * n: constant}
    for i, c in enumerate(v):
        terms[tuple(int(k == i) for k in range(n))] = c
    return TruncatedSeries(n, degree_bound, terms)


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


def hvol(s):
    """Normalized volume (Euclidean volume times the dimension factorial)
    from the geometry: |det| of the edge vectors after projecting along the
    infinite directions.  It equals |det| of the cell's homogeneous vectors,
    (v, 1) for a vertex and (e_d, 0) for a direction, by expansion along
    the direction rows.  A placed cell keeps the volume its placing
    computed, and this is the reference it is checked against."""
    keep = [i for i in range(s.dim) if i not in s.infinite_directions]
    proj = [tuple(v[i] for i in keep) for v in s.finite_vertices]
    edges = [tuple(a - b for a, b in zip(v, proj[0])) for v in proj[1:]]
    if len(edges) != len(keep):
        raise DimensionMismatchError(
            f"projected simplex is not square: {len(edges)} edges in "
            f"{len(keep)} coordinates")
    return abs(det(edges))


def cell(dim, vertices, directions, provenance=()):
    """A cell built by hand, with the volume `hvol` reads off its geometry."""
    geometry = HalfSimplex(dim, vertices, directions, provenance, volume=0)
    return replace(geometry, volume=hvol(geometry))


def simplex_contribution_by_products(t, degree_bound):
    """hvol(t) X^b times the geometric reciprocal of 1 + v.X for every
    finite vertex v, multiplied out one product per vertex."""
    n = t.dim
    b = tuple(0 if d in t.infinite_directions else 1 for d in range(n))
    out = TruncatedSeries(n, degree_bound, {b: hvol(t)})
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


def _rank_and_det(rows):
    """Rank of a list of integer vectors, and their determinant when they
    are square, by Gaussian elimination over the rationals.  A row with a
    zero in the pivot column is left as it is; another is scaled by the
    pivot before the pivot row is subtracted, so every entry stays an
    integer, and the determinant is the product of the pivots over the
    product of those scales."""
    m = [list(r) for r in rows]
    rank, num, den = 0, 1, 1
    for col in range(len(m[0]) if m else 0):
        pivot = next((k for k in range(rank, len(m)) if m[k][col]), None)
        if pivot is None:
            num = 0
            continue
        if pivot != rank:
            m[rank], m[pivot] = m[pivot], m[rank]
            num = -num
        top = m[rank]
        p = top[col]
        num *= p
        for k in range(rank + 1, len(m)):
            f = m[k][col]
            if f:
                m[k] = [p * a - f * b for a, b in zip(m[k], top)]
                den *= p
        rank += 1
    return rank, Fraction(num, den)


def det_by_leibniz(rows):
    """Determinant of a square matrix as the sum over the permutations p of
    sign(p) * prod_k rows[k][p(k)], the sign read off the inversion count."""
    n = len(rows)
    total = 0
    for perm in permutations(range(n)):
        term = 1
        for k, col in enumerate(perm):
            term *= rows[k][col]
        inversions = sum(a > b for a, b in combinations(perm, 2))
        total += -term if inversions % 2 else term
    return total


def placing_cells_by_rebuild(config, order):
    """The cells of the placing triangulation of config in the given label
    order, each as its labels in that order, sorted.

    The first labels that are linearly independent form the starting cell,
    and each later label is coned over every boundary facet it strictly
    sees.  The boundary is rebuilt for each label from all cells so far (a
    facet of exactly one cell), and the label sees a facet when the facet's
    determinant with it and with the cell's opposite vertex have opposite
    nonzero signs.  A facet stays on the boundary for many labels, so each
    (facet, label) sign is computed once."""
    hom = config.homogeneous
    d1 = config.dim + 1
    basis, skipped = [], []
    rest = list(order)
    while rest and len(basis) < d1:
        lab = rest.pop(0)
        rank, _ = _rank_and_det([hom[b] for b in basis] + [hom[lab]])
        (basis if rank > len(basis) else skipped).append(lab)
    assert len(basis) == d1, "no full-dimensional starting simplex"

    sides = {}

    def side(facet, probe):
        key = (facet, probe)
        if key not in sides:
            _, value = _rank_and_det([hom[f] for f in facet] + [hom[probe]])
            sides[key] = (value > 0) - (value < 0)
        return sides[key]

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


def _feasible(constraints):
    """True when some real w meets every (c, b) in constraints, c.w >= b
    with integer c and b, decided by Fourier-Motzkin elimination: each
    variable in turn is removed by adding, scaled to cancel it, every
    constraint bounding it from below to every one bounding it from above."""
    rows = {tuple(c) + (b,) for c, b in constraints}
    while rows and len(next(iter(rows))) > 1:
        keep = set()
        lower = [r for r in rows if r[0] > 0]
        upper = [r for r in rows if r[0] < 0]
        for r in rows:
            if r[0] == 0:
                keep.add(r[1:])
        for lo in lower:
            for up in upper:
                r = [-up[0] * x + lo[0] * y for x, y in zip(lo, up)][1:]
                g = gcd(*r) or 1
                keep.add(tuple(x // g for x in r))
        rows = keep
    return all(b <= 0 for (b,) in rows)


def _ties_at_the_minimum(rows, a, b):
    """True when some w >= 0 with sum(w) = 1 gives rows a and b the least
    value of row.w."""
    d = len(rows[a])
    unit = [tuple(int(k == m) for k in range(d)) for m in range(d)]
    delta = tuple(x - y for x, y in zip(rows[a], rows[b]))
    ones = (1,) * d
    constraints = [(e, 0) for e in unit]
    constraints += [(ones, 1), (tuple(-x for x in ones), -1),
                    (delta, 0), (tuple(-x for x in delta), 0)]
    constraints += [(tuple(x - y for x, y in zip(g, rows[a])), 0)
                    for k, g in enumerate(rows) if k not in (a, b)]
    return _feasible(constraints)


def slot_scores(generators, steps, facets):
    """The slot scores of the center rule on the level that steps lead to,
    as one {edge: score} dict per pair of minimal generators, pairs in order.

    generators are the base generators, read on the level through
    `total_transform`, and facets the level's facets as position sets.  A
    pair (u, v) has a slot at every edge {i, j} of a facet with
    delta_i > 0 > delta_j, delta = u - v, when both attain the least
    exponent over all generators at some nonzero point of the facet's cone;
    the slot scores delta_i - delta_j."""
    minimal = [k for k, g in enumerate(generators)
               if not any(h != g and all(x >= y for x, y in zip(g, h))
                          for h in generators)]
    rows = total_transform(generators, steps)
    out = []
    for a, b in combinations(minimal, 2):
        delta = [x - y for x, y in zip(rows[a], rows[b])]
        scores = {}
        for f in facets:
            edges = {frozenset((i, j)): delta[i] - delta[j]
                     for i in f if delta[i] > 0 for j in f if delta[j] < 0}
            on_f = tuple(tuple(row[k] for k in sorted(f)) for row in rows)
            if edges and _ties_at_the_minimum(on_f, a, b):
                scores.update(edges)
        out.append(scores)
    return out


def newton_region_area(generators):
    """Area of the Newton region of an m-primary ideal in two variables: the
    polygon between the axes and the lower hull of the exponents, from the
    lowest exponent on the X2 axis to the first one on the X1 axis.  The hull
    is Andrew's monotone chain; the area is the shoelace sum."""
    def turn(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])
    hull = []
    for q in sorted(set(generators)):
        while len(hull) >= 2 and turn(hull[-2], hull[-1], q) <= 0:
            hull.pop()
        hull.append(q)
    assert hull[0][0] == 0, "no pure power of X2"
    chain = hull[:next(k for k, q in enumerate(hull) if q[1] == 0) + 1]
    polygon = [(0, 0)] + chain[::-1]
    twice = sum(x0 * y1 - x1 * y0 for (x0, y0), (x1, y1)
                in zip(polygon, polygon[1:] + polygon[:1]))
    return Fraction(twice, 2)


def newton_region_volume(generators):
    """Volume of the Newton region N of an m-primary ideal in three
    variables.  The lattice points a >= 0 outside k*Newt(I) are those of
    k*N, a union of half-open lattice polytopes, so by Ehrhart theory they
    number a cubic in k with leading coefficient vol(N): vol(N) is the
    third difference of the counts at k = 1..4, over 3! = 6.

    Newt(I) is the intersection of the half-spaces w.x >= min_g w.g over
    its facet normals w >= 0, and each facet normal is the cross product of
    two of the facet's edge directions: generator differences and unit
    vectors.  The other nonnegative cross products give valid half-spaces
    too, so keeping all of them decides membership.  A point with some
    a_d >= k * (the least pure power of X_d) is inside, so the count runs
    over the box below those."""
    gens = [tuple(g) for g in generators]
    units = [tuple(int(k == d) for k in range(3)) for d in range(3)]
    directions = [tuple(x - y for x, y in zip(g, h))
                  for g, h in combinations(gens, 2)] + units
    normals = set()
    for u, v in combinations(directions, 2):
        w = (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2],
             u[0] * v[1] - u[1] * v[0])
        if all(x <= 0 for x in w):
            w = tuple(-x for x in w)
        if any(w) and all(x >= 0 for x in w):
            normals.add(w)

    def dot(w, x):
        return sum(p * q for p, q in zip(w, x))
    halfspaces = [(w, min(dot(w, g) for g in gens)) for w in normals]
    powers = [min(g[d] for g in gens if not any(g[:d] + g[d + 1:]))
              for d in range(3)]

    def outside(k):
        return sum(1 for a in product(*(range(k * q) for q in powers))
                   if any(dot(w, a) < k * c for w, c in halfspaces))
    counts = [outside(k) for k in range(1, 5)]
    third = counts[3] - 3 * counts[2] + 3 * counts[1] - counts[0]
    return Fraction(third, 6)


def check_sparse_groups(c):
    """c is held by support with sparse keys: every group nonempty and keyed
    by a sorted tuple of distinct positions of its ring, and every term's
    exponents as long as the key, every entry positive, with a nonzero
    coefficient.  So no term is stored at the ring's full width."""
    assert c.groups is not None
    for supp, terms in c.groups.items():
        assert terms, supp
        assert type(supp) is tuple and list(supp) == sorted(set(supp)), supp
        assert all(0 <= m < c.ring.num_vars for m in supp), supp
        for e, v in terms.items():
            assert v and len(e) == len(supp) and min(e) > 0, (supp, e, v)


def flat_terms(groups, width):
    """The terms of a grouped class's groups as a plain dict at the given
    width, each term's exponents placed at its group's positions."""
    out = {}
    for supp, terms in groups.items():
        for e, v in terms.items():
            t = [0] * width
            for m, a in zip(supp, e, strict=True):
                t[m] = a
            out[tuple(t)] = v
    return out
