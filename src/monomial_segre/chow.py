"""Formal intersection-ring model of a simple-normal-crossings divisor
configuration, with codimension-2 blow-ups, the total transform of monomial
generators, and push-forward.

A level stores which strata (intersections of its divisors) are nonempty as
a simplicial complex, listed by its facets; a stratum is empty exactly when
no facet contains it, on the base ring as on every level above.  Blowing up
divisors i and j is the stellar subdivision of the edge {i, j}: each facet F
through both becomes E + F - {i} and E + F - {j}, in proper-transform labels
(Cox-Little-Schenck, Toric Varieties, Sec. 3.3).

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

with k = k0 + r1 + r2.  The first part (the E^0 part) is the term itself;
the second (the E^{>=2} part) depends only on (k0, ai, aj) and is kept in a
memoized table.  A term with no E and no center exponent has no E^{>=2}
part, and passes through with E dropped.

Which pushed terms lie on empty strata is known in advance when the upper
class is reduced (every term's support lies in an upper facet):
  - every E^0 term lies on a nonempty lower stratum, since an upper facet
    without E is a lower facet, or a lower facet minus i or j, relabelled;
  - an E^{>=2} term has support R + {i, j}, where R is the term's support off
    E, i and j, so it lies on a nonempty stratum exactly when R is inside
    F - {i, j} for a lower facet F through {i, j}: the *star* of the center
    edge.  R does not depend on the binomial split, so one test per term
    decides its whole E^{>=2} part.
`pushforward` leaves out the E^{>=2} parts that fail the star test, which
are zero in the lower ring.  Its result on a reduced class is therefore
reduced, and the tower needs no nil reduction between levels.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb
from typing import Iterable

from .errors import EmptyCenterError, LevelMismatchError, MonomialSegreError
from .lattice import (ExponentVector, MonomialPresentation, default_labels,
                      residual_split, support)
from .series import TruncatedSeries


@dataclass(frozen=True)
class LevelRing:
    """Named divisor variables and the facets of their complex of nonempty
    strata; build one with `base_ring` or `blow_up`.  A stratum (variable
    subset) is nonempty exactly when it lies in a facet."""

    variables: tuple[str, ...]
    facets: tuple[frozenset[str], ...]
    depth: int = 0

    def __post_init__(self):
        object.__setattr__(self, "variables", tuple(self.variables))
        if len(set(self.variables)) != len(self.variables):
            raise MonomialSegreError("variable labels must be unique")

    @property
    def num_vars(self) -> int:
        return len(self.variables)

    def index(self, label: str) -> int:
        try:
            return self.variables.index(label)
        except ValueError:
            raise MonomialSegreError(f"unknown variable {label!r}") from None

    def in_facet(self, labels: frozenset[str]) -> bool:
        """True when some facet contains the stratum `labels`."""
        return any(labels <= f for f in self.facets)

    def stratum_is_empty(self, labels: Iterable[str]) -> bool:
        return not self.in_facet(frozenset(labels))


class _BlownUpRing(LevelRing):
    """Ring one level above a blow-up; its strata follow the same facet rule
    as the base ring's.

    The class exists only to give `stratum_is_empty` a binding of its own:
    the benchmark tracer (bench/tracing.py) counts calls by wrapping the
    function in each class's namespace, and one function bound in both
    classes would be counted twice."""

    def stratum_is_empty(self, labels: Iterable[str]) -> bool:
        return not self.in_facet(frozenset(labels))


def base_ring(n: int, labels: Iterable[str] | None = None,
              nil_pairs: Iterable[Iterable[str]] = ()) -> LevelRing:
    """The ambient divisors of an n-dimensional variety, as a generic
    normal-crossings configuration: a stratum is empty when it has more than
    n labels or contains one of the nil pairs, whose divisors do not meet."""
    if n < 1:
        raise MonomialSegreError("the dimension n must be positive")
    labels = tuple(labels) if labels else default_labels(n)
    seeds = {frozenset(p) for p in nil_pairs}
    for s in seeds:
        if len(s) != 2:
            raise MonomialSegreError(f"nil pair {sorted(s)} is not a pair")
        if not s <= set(labels):
            raise MonomialSegreError(
                f"nil pair {sorted(s)} uses a label outside {list(labels)}")
    # split every largest stratum along each nil pair it contains
    facets = [frozenset(f) for f in combinations(labels, min(n, len(labels)))]
    for a, b in sorted(sorted(s) for s in seeds):
        facets = [g for f in facets
                  for g in ((f - {a}, f - {b}) if {a, b} <= f else (f,))]
    facets = list(dict.fromkeys(facets))
    maximal = tuple(f for f in facets if not any(f < g for g in facets))
    return LevelRing(labels, maximal)


@dataclass(frozen=True)
class ChowClass:
    ring: LevelRing
    series: TruncatedSeries

    def __post_init__(self):
        if self.series.num_vars != self.ring.num_vars:
            raise LevelMismatchError(
                f"series in {self.series.num_vars} variables on a ring with "
                f"{self.ring.num_vars}")


@dataclass(frozen=True)
class BlowupStep:
    lower: LevelRing
    upper: LevelRing
    center: tuple[str, str]
    exceptional_label: str

    def center_positions(self) -> tuple[int, int]:
        i, j = self.center
        return self.lower.index(i), self.lower.index(j)


def blow_up(r: LevelRing, i: str, j: str) -> BlowupStep:
    """Blow up along the intersection of divisors i and j: the stellar
    subdivision of the edge {i, j} of the lower ring's complex."""
    if i == j:
        raise MonomialSegreError("center labels must differ")
    r.index(i), r.index(j)  # validate labels
    if r.stratum_is_empty({i, j}):
        raise EmptyCenterError(f"center ({i}, {j}) is a known-empty intersection")
    exceptional = f"E{r.depth + 1}"

    def transform(lab: str) -> str:
        return "~" + lab if lab in (i, j) else lab

    facets = []
    for f in r.facets:
        if {i, j} <= f:
            facets += [frozenset(map(transform, f - {c})) | {exceptional}
                       for c in (i, j)]
        else:
            facets.append(frozenset(map(transform, f)))
    upper_vars = (exceptional,) + tuple(transform(v) for v in r.variables)
    upper = _BlownUpRing(upper_vars, tuple(facets), depth=r.depth + 1)
    return BlowupStep(lower=r, upper=upper, center=(i, j),
                      exceptional_label=exceptional)


def pullback_generators(step: BlowupStep,
                        p: MonomialPresentation) -> MonomialPresentation:
    """Total transform of each monomial: the E-entry is the sum of the two
    center entries."""
    if p.variable_labels != step.lower.variables:
        raise LevelMismatchError("presentation is not over the lower ring")
    pi, pj = step.center_positions()
    gens = tuple((g[pi] + g[pj],) + g for g in p.generators)
    return MonomialPresentation(p.num_vars + 1, gens, step.upper.variables)


# the E^{>=2} part of p_*(E^k0 Y~_i^ai Y~_j^aj), keyed by (k0, ai, aj); it
# depends on nothing else, so one table serves every level of every tower
_DEEP_PUSH: dict[tuple[int, int, int], tuple[tuple[int, int, int], ...]] = {}


def _deep_push(k0: int, ai: int, aj: int) -> tuple[tuple[int, int, int], ...]:
    """The E^{>=2} part of p_*(E^k0 Y~_i^ai Y~_j^aj) as (x, y, w) triples,
    one for each term w Y_i^x Y_j^y (see the module docstring)."""
    key = (k0, ai, aj)
    table = _DEEP_PUSH.get(key)
    if table is None:
        acc: dict[tuple[int, int], int] = {}
        for r1 in range(ai + 1):
            for r2 in range(aj + 1):
                k = k0 + r1 + r2
                w = comb(ai, r1) * comb(aj, r2) * (-1) ** (r1 + r2)
                # the monomials Y_i^(r+1) Y_j^(k-1-r) of Y_i Y_j h_{k-2}
                for r in range(k - 1):
                    xy = (ai - r1 + r + 1, aj - r2 + k - 1 - r)
                    acc[xy] = acc.get(xy, 0) - w
        table = _DEEP_PUSH[key] = tuple((x, y, w) for (x, y), w in acc.items()
                                        if w)
    return table


def pushforward(step: BlowupStep, c: ChowClass) -> ChowClass:
    """Proper push-forward of a class on the upper ring down one level, with
    the E^{>=2} terms on empty lower strata left out.

    A term v E^k0 Y~_i^ai Y~_j^aj Y^b keeps its E^0 part v Y_i^ai Y_j^aj Y^b
    when k0 = 0.  Its E^{>=2} part, v Y^b times the `_deep_push` table of
    (k0, ai, aj), is added only when the support of Y^b lies in the star of
    the center edge, the facets through {i, j} minus i and j.  On a reduced
    class the result is reduced (module docstring); on any other class only
    its E^0 terms may lie on empty strata.  On a base ring with no declared
    nil pairs every E^{>=2} term passes, and the result is the full closed
    form."""
    if c.ring != step.upper:
        raise LevelMismatchError("class is not on the upper ring")
    pi, pj = step.center_positions()
    i, j = step.center
    lower = step.lower
    star = [frozenset(lower.index(lab) for lab in f - {i, j})
            for f in lower.facets if i in f and j in f]
    in_star: dict[frozenset[int], bool] = {}  # many terms share a support
    out: dict[tuple[int, ...], int] = {}
    for e, v in c.series.terms.items():
        k0, low = e[0], e[1:]
        if not k0:
            out[low] = out.get(low, 0) + v
        ai, aj = low[pi], low[pj]
        if k0 + ai + aj < 2:
            continue  # no E^{>=2} part
        rest = frozenset(m for m, a in enumerate(low)
                         if a and m != pi and m != pj)
        ok = in_star.get(rest)
        if ok is None:
            ok = in_star[rest] = any(rest <= f for f in star)
        if not ok:
            continue
        t = list(low)
        for x, y, w in _deep_push(k0, ai, aj):
            t[pi], t[pj] = x, y
            tt = tuple(t)  # total degree is unchanged
            out[tt] = out.get(tt, 0) + w * v
    return ChowClass(lower, TruncatedSeries._raw(
        lower.num_vars, c.series.degree_bound,
        {e: v for e, v in out.items() if v}))


def reduce_nils(r: LevelRing, series: TruncatedSeries) -> TruncatedSeries:
    """Delete every term whose support lies in no facet (an empty stratum)."""
    if series.num_vars != r.num_vars:
        raise LevelMismatchError("series does not match the ring")
    labels = r.variables
    nonempty: dict[frozenset[str], bool] = {}  # many terms share a support
    terms = {}
    for e, v in series.terms.items():
        supp = frozenset(labels[k] for k, a in enumerate(e) if a > 0)
        if supp not in nonempty:
            nonempty[supp] = r.in_facet(supp)
        if nonempty[supp]:
            terms[e] = v
    return TruncatedSeries(r.num_vars, series.degree_bound, terms)


def scheme_is_empty(r: LevelRing, p: MonomialPresentation) -> bool:
    """True when no facet of the ring's complex meets the support of every
    generator.

    A point of the scheme would lie on one component of each generating
    divisor; collecting those components gives a variable set with nonempty
    joint intersection that hits every support, and so does the facet
    containing it.  Conversely such a facet certifies a point of the
    scheme."""
    if p.variable_labels != r.variables:
        raise LevelMismatchError("presentation is not over this ring")
    if any(all(a == 0 for a in g) for g in p.generators):
        return True  # unit ideal
    supports = [frozenset(r.variables[k] for k in support(g))
                for g in p.generators]
    return not any(all(supp & f for supp in supports) for f in r.facets)


def scheme_is_divisor(r: LevelRing,
                      p: MonomialPresentation) -> ExponentVector | None:
    """The common-factor divisor when the residual scheme is empty, else None."""
    d, residual = residual_split(p)
    if scheme_is_empty(r, residual):
        return d
    return None
