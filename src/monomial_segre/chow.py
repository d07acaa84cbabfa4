"""Formal intersection-ring model of a simple-normal-crossings divisor
configuration, with codimension-2 blow-ups, the rays of their divisors, and
push-forward.

A divisor is its position among a level's variables, and a stratum (an
intersection of divisors) is a set of positions.  A level stores which strata
are nonempty as a simplicial complex, listed by its facets; a stratum is
empty exactly when no facet contains it, on the base ring as on every level
above.  Blowing up divisors i and j is the stellar subdivision of the edge
{i, j}: each facet F through both becomes E + F - {i} and E + F - {j}, with E
appended after every lower divisor (Cox-Little-Schenck, Toric Varieties,
Sec. 3.3).  So a divisor keeps one position, its id, up the whole tower, and
a facet not through both i and j is a facet of the level above as it is.
A level stores no names: the CLI derives them from the centers when it
prints a tower (E<k> for the k-th exceptional divisor, a ~ prefix for a
proper transform), and `LevelRing.listing` is the order in which it lists
them.

Every divisor also has a ray in Z^n_{>=0}, over the n base divisors: X_k has
e_k, and the exceptional divisor of the blow-up of {i, j} has v_i + v_j.  A
base monomial g then has exponent g.v on the divisor with ray v, so its total
transform on any level is read off the rays (Sec. 11.1 there), and no level
stores transformed generators.

Push-forward is in closed form: rewrite every proper transform through
Y~ = p*Y - E at the two center variables (Y~ = p*Y at the others), then push
each power of E down with p_*(1) = 1, p_*(E) = 0 and, for k >= 2,
p_*(E^k) = -Y_i Y_j h_{k-2}(Y_i, Y_j), where h is the complete homogeneous
symmetric polynomial.  This is Fulton, Intersection Theory, Cor. 4.2.2, with
the center's normal bundle Segre class s(N) = 1/((1+Y_i)(1+Y_j)); it is the
normal form of E^k under E^2 = E p*(Y_i + Y_j) - p*(Y_i Y_j), read off in one
step.  So a term v E^k0 Y~_i^ai Y~_j^aj Y^b pushes to v Y^b times

    [k0 = 0] Y_i^ai Y_j^aj  -  sum over r1 <= ai, r2 <= aj, k >= 2 of
    (-1)^(r1+r2) C(ai, r1) C(aj, r2) Y_i^(ai-r1) Y_j^(aj-r2) Y_i Y_j h_{k-2},

with k = k0 + r1 + r2.  The first part (the E^0 part) is the term itself
with E dropped; no two E^0 parts share an exponent, since their upper
exponents differ only off E.  The second (the E^{>=2} part) is v Y^b times
a table that depends only on (k0, ai, aj) and is memoized; a term with
k0 + ai + aj < 2 has none.  `pushforward` sums the E^{>=2} parts of all
terms with one off-center part Y^b into a small (x, y) -> coefficient
table for that key, and builds one lower exponent per nonzero entry.  Two
keys differ off the center, so their terms never meet, and an entry can
only meet an E^0 part.

Which pushed terms lie on empty strata is known in advance when the upper
class is reduced (every term's support lies in an upper facet):
  - every E^0 term lies on a nonempty lower stratum, since an upper facet
    without E is a lower facet, or a lower facet minus i or j;
  - an E^{>=2} term has support R + {i, j}, where R is the support of its
    key Y^b, so it lies on a nonempty stratum exactly when R is inside
    F - {i, j} for a lower facet F through {i, j}: the *star* of the center
    edge.  R does not depend on the binomial split, so one test per key
    decides the whole E^{>=2} part of every term with that key.
`pushforward` leaves out the keys that fail the star test, whose E^{>=2}
parts are zero in the lower ring.  Its result on a reduced class is
therefore reduced, and the tower needs no nil reduction between levels.

A tower's class is held grouped by support (`ChowClass.grouped`): a dict
from a support, the sorted tuple of positions where a term is nonzero, to
that group's terms, each keyed by its exponents at those positions only.  A
divisor keeps its position up the tower, so a key names the same divisors
on every level, and a term costs its support, not the ring's width.  A term
that holds none of E, i and j is its own E^0 part and has no E^{>=2} part,
so it is a term of the level below exactly as it is, and so is its whole
group.  `pushforward` passes such groups down untouched and visits only the
groups that hold E, i or j, reading their terms column by column.  All
terms of a group share R, the support minus {i, j, E}, so one star test per
group decides all their E^{>=2} parts, and those are built directly at the
width of the group R + {i, j}.  A group holding E has no E^0 part and is
gone once pushed.  A class built from a bare series, as `verify`'s
one-level pushes build it, is pushed term by term instead: it is pushed
once, and grouping it would cost more than the push saves.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import combinations, filterfalse
from math import comb
from operator import add, mul, sub
from typing import Iterable

from .errors import EmptyCenterError, LevelMismatchError, MonomialSegreError
from .lattice import (ExponentVector, MonomialPresentation, default_labels,
                      support)
from .series import TruncatedSeries

# sorted support -> {exponents at those positions, each positive: coefficient}
_Groups = dict[tuple[int, ...], dict[tuple[int, ...], int]]

# the most facets `base_ring` builds while it splits along the nil pairs
FACET_BUDGET = 1024


@dataclass(frozen=True)
class LevelRing:
    """The facets of a complex of nonempty strata of divisors, one ray per
    divisor, and the number of blow-ups below; build one with `base_ring`
    or `blow_up`.  A divisor is its position, and a stratum, a set of
    positions, is nonempty exactly when it lies in a facet.  The class
    checks nothing itself and stores no names: `base_ring` checks the
    labels once, and every `blow_up` keeps them unique, as a divisor is its
    position and each exceptional divisor takes a new one.  The names a
    tower prints above the base (E<k>, a ~ prefix) are the CLI's, derived
    from the centers."""

    facets: tuple[frozenset[int], ...]
    rays: tuple[ExponentVector, ...]
    depth: int = 0

    @property
    def num_vars(self) -> int:
        return len(self.rays)

    @property
    def listing(self) -> tuple[int, ...]:
        """The positions in the order a tower lists them: the exceptional
        divisors newest first, then the base divisors in order.  The `tower`
        trace prints variables in this order, and `select_center` breaks
        ties by it."""
        n = len(self.rays[0])
        return tuple(range(self.num_vars - 1, n - 1, -1)) + tuple(range(n))

    def exponents(self, g: ExponentVector) -> ExponentVector:
        """The total transform of the base monomial g: its exponent g.v on
        each divisor, v the divisor's ray."""
        if len(g) != len(self.rays[0]):
            raise LevelMismatchError(
                f"monomial {g} is not over the {len(self.rays[0])} base "
                "variables")
        return tuple(sum(map(mul, g, v)) for v in self.rays)

    def in_facet(self, stratum: frozenset[int]) -> bool:
        """True when some facet contains the stratum, a set of positions."""
        return any(stratum <= f for f in self.facets)

    def stratum_is_empty(self, stratum: Iterable[int]) -> bool:
        return not self.in_facet(frozenset(stratum))


class _BlownUpRing(LevelRing):
    """Ring one level above a blow-up; its strata follow the same facet rule
    as the base ring's.

    The class exists only to give `stratum_is_empty` a binding of its own:
    the benchmark tracer (bench/tracing.py) counts calls by wrapping the
    function in each class's namespace, and one function bound in both
    classes would be counted twice."""

    def stratum_is_empty(self, stratum: Iterable[int]) -> bool:
        return not self.in_facet(frozenset(stratum))


def base_ring(n: int, labels: Iterable | None = None,
              nil_pairs: Iterable[Iterable] = ()) -> LevelRing:
    """The ambient divisors of an n-dimensional variety, as a generic
    normal-crossings configuration: a stratum is empty when it has more than
    n divisors or contains one of the nil pairs, whose divisors do not meet.
    The pairs name divisors by label, and are checked in the order given, so
    an error names the first bad one.  Each divisor's ray is its unit
    vector.

    The labels must be unique; they are read only here, to find the nil
    pairs, and the ring keeps none.  So any hashable labels do, and a tower
    takes the same labels as `segre.segre_integral`.  Splitting a facet
    along each nil pair it holds may double the facets at every pair, so a
    split past FACET_BUDGET facets is refused before the complex is
    built."""
    if n < 1:
        raise MonomialSegreError("the dimension n must be positive")
    labels = tuple(labels) if labels else default_labels(n)
    if len(set(labels)) != len(labels):
        raise MonomialSegreError("variable labels must be unique")
    seeds = set()
    for pair in map(tuple, nil_pairs):
        if len(pair) != 2 or pair[0] == pair[1]:
            raise MonomialSegreError(
                f"nil pair {list(pair)} is not a pair of distinct labels")
        if not set(pair) <= set(labels):
            raise MonomialSegreError(
                f"nil pair {list(pair)} uses a label outside {list(labels)}")
        seeds.add(tuple(sorted(map(labels.index, pair))))
    # split every largest stratum along each nil pair it contains
    facets = [frozenset(f) for f in
              combinations(range(len(labels)), min(n, len(labels)))]
    for a, b in sorted(seeds):
        facets = list(dict.fromkeys(
            g for f in facets
            for g in ((f - {a}, f - {b}) if {a, b} <= f else (f,))))
        if len(facets) > FACET_BUDGET:
            raise MonomialSegreError(f"the nil pairs split the strata into "
                                     f"more than {FACET_BUDGET} facets")
    maximal = tuple(f for f in facets if not any(f < g for g in facets))
    rays = tuple(tuple(int(k == m) for k in range(len(labels)))
                 for m in range(len(labels)))
    return LevelRing(maximal, rays)


class ChowClass:
    """A class on a level ring, held one of two ways.

    `ChowClass(ring, series)` holds a bare series over the ring's variables,
    as `verify`'s one-level pushes and the tests build it.  `grouped` holds
    the terms grouped by support: a dict from a sorted tuple of positions to
    the terms whose nonzero entries are exactly there, each term keyed by
    its exponents at those positions, in order, so every entry is positive.
    Every group is nonempty and every coefficient nonzero.  `series`
    scatters the terms out to the ring's width when it is read, and keeps
    what it built.  `pushforward` picks its path by which way the class is
    held, never by whether `series` has been read."""

    __slots__ = ("ring", "degree_bound", "groups", "_series")

    def __init__(self, ring: LevelRing, series: TruncatedSeries):
        if series.num_vars != ring.num_vars:
            raise LevelMismatchError(
                f"series in {series.num_vars} variables on a ring with "
                f"{ring.num_vars}")
        self.ring = ring
        self.degree_bound = series.degree_bound
        self.groups: _Groups | None = None
        self._series: TruncatedSeries | None = series

    @classmethod
    def grouped(cls, ring: LevelRing, degree_bound: int,
                groups: _Groups) -> ChowClass:
        """A class held as its support groups, trusted as they are."""
        c = cls.__new__(cls)
        c.ring, c.degree_bound, c.groups, c._series = \
            ring, degree_bound, groups, None
        return c

    @property
    def series(self) -> TruncatedSeries:
        if self._series is None:
            flat = {}
            for supp, terms in self.groups.items():
                # the group's exponents by column, one per ring position
                cols = [(0,) * len(terms)] * self.ring.num_vars
                for m, col in zip(supp, zip(*terms)):
                    cols[m] = col
                flat.update(zip(zip(*cols), terms.values()))
            self._series = TruncatedSeries._raw(self.ring.num_vars,
                                                self.degree_bound, flat)
        return self._series


@dataclass(frozen=True)
class BlowupStep:
    """One blow-up: the exceptional divisor is the last position of `upper`,
    every other position names the same divisor (or its proper transform) on
    both rings, `center` holds the two blown-up positions, and `split` the
    lower facets through both, each of which `upper` cuts in two.  So
    `split` is also the star of the center edge, which `pushforward`
    reads."""

    lower: LevelRing
    upper: LevelRing
    center: tuple[int, int]
    split: tuple[frozenset[int], ...]


def blow_up(r: LevelRing, i: int, j: int) -> BlowupStep:
    """Blow up along the intersection of the divisors at positions i and j:
    the stellar subdivision of the edge {i, j} of the lower ring's complex.
    The exceptional divisor goes last, at position r.num_vars, so every
    lower position is the same upper position, and its ray is the sum of
    the two centers' rays.  A facet not through both i and j is kept as it
    is.  No names are built: a divisor is its position."""
    if i == j or not (0 <= i < r.num_vars and 0 <= j < r.num_vars):
        raise MonomialSegreError(
            f"center ({i}, {j}) is not two distinct positions among "
            f"{r.num_vars} variables")
    if r.stratum_is_empty((i, j)):
        raise EmptyCenterError(
            f"center ({i}, {j}) is a known-empty intersection")
    facets, split = [], []
    for f in r.facets:
        if i in f and j in f:
            split.append(f)
            facets += [f - {i} | {r.num_vars}, f - {j} | {r.num_vars}]
        else:
            facets.append(f)
    rays = r.rays + (tuple(map(add, r.rays[i], r.rays[j])),)
    upper = _BlownUpRing(tuple(facets), rays, depth=r.depth + 1)
    return BlowupStep(r, upper, (i, j), tuple(split))


@cache
def _deep_push(k0: int, ai: int, aj: int) -> tuple:
    """The E^{>=2} part of p_*(E^k0 Y~_i^ai Y~_j^aj) as ((x, y), w) pairs,
    one for each term w Y_i^x Y_j^y (see the module docstring).  It depends
    on nothing else, so one table serves every level of every tower."""
    acc: dict[tuple[int, int], int] = {}
    for r1 in range(ai + 1):
        for r2 in range(aj + 1):
            k = k0 + r1 + r2
            w = comb(ai, r1) * comb(aj, r2) * (-1) ** (r1 + r2)
            # the monomials Y_i^(r+1) Y_j^(k-1-r) of Y_i Y_j h_{k-2}
            for r in range(k - 1):
                xy = (ai - r1 + r + 1, aj - r2 + k - 1 - r)
                acc[xy] = acc.get(xy, 0) - w
    return tuple(item for item in acc.items() if item[1])


def pushforward(step: BlowupStep, c: ChowClass) -> ChowClass:
    """Proper push-forward of a class on the upper ring down one level, with
    the E^{>=2} terms on empty lower strata left out.

    A term v E^k0 Y~_i^ai Y~_j^aj Y^b keeps its E^0 part v Y_i^ai Y_j^aj Y^b
    when k0 = 0, and a term with no E and no center exponent has nothing
    else.  The E^{>=2} part, v Y^b times the `_deep_push` table of
    (k0, ai, aj), is summed into one (x, y) -> coefficient table per
    off-center key Y^b.  A key off the star of the center edge (the lower
    facets through {i, j}, which are `step.split`, minus i and j) gets no
    table, and every other key yields one term Y^b Y_i^x Y_j^y per nonzero
    entry of its table.

    A grouped class is pushed group by group, and its result is grouped the
    same way, with sparse keys:
      - a group disjoint from {i, j, E} passes down as the same object: each
        of its terms is its own E^0 part and has no other;
      - a group without E keeps its terms as they are, E^0 parts;
      - a group with E is dropped once pushed, since no term in it has an
        E^0 part;
      - the star test runs once per group, on its support minus {i, j, E},
        and a group that passes reads its terms column by column (E, i, j
        and the rest) and builds their E^{>=2} parts at the width of the
        group of that support plus {i, j}; they are added into a copy of
        that group, so the input is never changed.
    So a level visits only the groups that hold E, i or j, and the work on
    each of their terms is as wide as its group.  A class built from a bare
    series is pushed term by term, with the same tables and the same star
    rule: grouping it would cost more than the one push it gets.

    On a reduced class the result is reduced (module docstring); on any
    other class only its E^0 terms may lie on empty strata.  On a base ring
    with no declared nil pairs every E^{>=2} term passes, and the result is
    the full closed form."""
    if c.ring != step.upper:
        raise LevelMismatchError("class is not on the upper ring")
    pi, pj = step.center
    lower = step.lower
    star = [f - {pi, pj} for f in step.split]

    def on_star(rest: Iterable[int]) -> bool:
        return any(f.issuperset(rest) for f in star)

    if c.groups is None:
        return ChowClass(lower, TruncatedSeries._raw(
            lower.num_vars, c.degree_bound,
            _push_terms(c.series.terms, pi, pj, on_star)))
    return ChowClass.grouped(lower, c.degree_bound, _push_groups(
        c.groups, pi, pj, lower.num_vars, on_star))


def _land_deep(out: dict[tuple[int, ...], int], pi: int, pj: int,
               tables: dict[tuple[int, ...], dict]) -> None:
    """Add each key's table into out, one term Y^b Y_i^x Y_j^y per nonzero
    entry, with x and y at indices pi and pj of the key, deleting a term
    that cancels; a key whose table is False (off the star) adds nothing."""
    for key, table in tables.items():
        if table is False:
            continue
        t = list(key)
        for (x, y), w in table.items():
            if not w:
                continue
            t[pi], t[pj] = x, y
            tt = tuple(t)  # total degree is unchanged
            # keys differ off the center, so no other key's term shares tt;
            # an E^0 term with both center entries positive may
            w += out.get(tt, 0)
            if w:
                out[tt] = w
            else:
                del out[tt]


def _push_terms(terms, pi: int, pj: int, on_star) -> dict[tuple[int, ...], int]:
    """The push of a bare series' terms, E last, term by term."""
    out: dict[tuple[int, ...], int] = {}
    # off-center key -> (x, y) -> coefficient, or False off the star
    deep: dict[tuple[int, ...], dict[tuple[int, int], int] | bool] = {}
    for e, v in terms.items():
        k0, ai, aj = e[-1], e[pi], e[pj]
        low = e[:-1]
        if not k0:
            # distinct terms with no E drop to distinct exponents
            out[low] = v
        if k0 + ai + aj < 2:
            continue  # no E^{>=2} part
        t = list(low)
        t[pi] = t[pj] = 0
        key = tuple(t)
        table = deep.get(key)
        if table is None:
            rest = frozenset(m for m, a in enumerate(key) if a)
            table = deep[key] = {} if on_star(rest) else False
        if table is False:
            continue
        for xy, w in _deep_push(k0, ai, aj):
            table[xy] = table.get(xy, 0) + w * v
    _land_deep(out, pi, pj, deep)
    return out


def _push_groups(groups: _Groups, pi: int, pj: int, pe: int,
                 on_star) -> _Groups:
    """The push of a grouped class, E at position pe (see `pushforward`)."""
    touched = frozenset((pi, pj, pe))
    # a group without E keeps its terms as E^0 parts, and one disjoint from
    # {i, j, E} has no other part
    out = groups.copy()
    # support of the E^{>=2} parts -> off-center key at that support's
    # width, zero at i and j -> (x, y) -> coefficient
    deep: dict[tuple[int, ...], dict[tuple[int, ...], dict]] = {}
    for supp in filterfalse(touched.isdisjoint, groups):
        if supp[-1] == pe:  # E is the last position
            del out[supp]  # no term of it has an E^0 part
        rest = [m for m in supp if m not in touched]
        if not on_star(rest):
            continue  # its E^{>=2} parts lie on empty strata
        target = tuple(sorted(rest + [pi, pj]))
        tables = deep.setdefault(target, {})
        terms = groups[supp]
        # the group's exponents by column, one per position it holds, and
        # each term's off-center part at the target's width, zero at i and j
        cols = dict(zip(supp, zip(*terms)))
        zero = (0,) * len(terms)
        keys = zip(*[zero if m == pi or m == pj else cols[m] for m in target])
        for key, k0, ai, aj, v in zip(keys, cols.get(pe, zero),
                                      cols.get(pi, zero), cols.get(pj, zero),
                                      terms.values()):
            if k0 + ai + aj < 2:
                continue  # no E^{>=2} part
            table = tables.get(key)
            if table is None:
                table = tables[key] = {}
            for xy, w in _deep_push(k0, ai, aj):
                table[xy] = table.get(xy, 0) + w * v
    for supp, tables in deep.items():
        if not tables:
            continue
        # copied, so the input's group stays as it is; a reduced class has no
        # such group, since the transforms of i and j do not meet upstairs
        merged = dict(out.get(supp, ()))
        _land_deep(merged, supp.index(pi), supp.index(pj), tables)
        if merged:
            out[supp] = merged
        else:
            out.pop(supp, None)
    return out


def reduce_nils(r: LevelRing, series: TruncatedSeries) -> TruncatedSeries:
    """Delete every term whose support lies in no facet (an empty stratum).
    Every kept term is a term of the clean series, so the result is built
    unchecked."""
    if series.num_vars != r.num_vars:
        raise LevelMismatchError("series does not match the ring")
    nonempty: dict[frozenset[int], bool] = {}  # many terms share a support
    terms = {}
    for e, v in series.terms.items():
        supp = support(e)
        if supp not in nonempty:
            nonempty[supp] = r.in_facet(supp)
        if nonempty[supp]:
            terms[e] = v
    return TruncatedSeries._raw(r.num_vars, series.degree_bound, terms)


def scheme_is_empty(r: LevelRing, p: MonomialPresentation) -> bool:
    """True when no facet of the ring's complex meets the support of every
    generator.

    A point of the scheme would lie on one component of each generating
    divisor; collecting those components gives a variable set with nonempty
    joint intersection that hits every support, and so does the facet
    containing it.  Conversely such a facet certifies a point of the
    scheme."""
    if p.num_vars != r.num_vars:
        raise LevelMismatchError("presentation is not over this ring")
    if not all(map(any, p.generators)):
        return True  # unit ideal
    supports = [support(g) for g in p.generators]
    return not any(all(not supp.isdisjoint(f) for supp in supports)
                   for f in r.facets)


def scheme_is_divisor(r: LevelRing,
                      p: MonomialPresentation) -> ExponentVector | None:
    """The divisor D when the total transform on r of the base presentation p
    is D plus an empty residual scheme, else None.  D is the least exponent
    on each divisor (`LevelRing.exponents`).  The residual rows are distinct,
    because the base divisors' rays persist up the tower.

    This computes everything from r's rays and facets.  A tower's climb
    keeps the same verdict per facet instead (`principalize.Climb`: a facet
    is bad when every residual row is positive somewhere on it, and D is a
    divisor when no facet is bad), and `principalize` calls this once per
    tower, on the top, to confirm it."""
    gens = [r.exponents(g) for g in p.generators]
    d = tuple(map(min, zip(*gens)))
    residual = MonomialPresentation(
        r.num_vars, [tuple(map(sub, g, d)) for g in gens])
    if scheme_is_empty(r, residual):
        return d
    return None
