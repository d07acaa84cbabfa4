"""Formal intersection-ring model of a simple-normal-crossings divisor
configuration, with codimension-2 blow-ups, pull-back, and push-forward.

A level stores which strata (intersections of its divisors) are nonempty as
a simplicial complex, listed by its facets.  Blowing up divisors i and j is
the stellar subdivision of the edge {i, j}: each facet F through both becomes
E + F - {i} and E + F - {j}, in proper-transform labels (Cox-Little-Schenck,
Toric Varieties, Sec. 3.3).

Push-forward is in closed form: rewrite every proper transform through
Y~ = p*Y - E at the two center variables (Y~ = p*Y at the others), then push
each power of E down with p_*(1) = 1, p_*(E) = 0 and, for k >= 2,
p_*(E^k) = -Y_i Y_j h_{k-2}(Y_i, Y_j), where h is the complete homogeneous
symmetric polynomial.  This is Fulton, Intersection Theory, Cor. 4.2.2, with
the center's normal bundle Segre class s(N) = 1/((1+Y_i)(1+Y_j)); it is the
normal form of E^k under E^2 = E p*(Y_i + Y_j) - p*(Y_i Y_j), read off in one
step.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb
from typing import Iterable

from .errors import (DimensionMismatchError, EmptyCenterError,
                     LevelMismatchError, MonomialSegreError)
from .lattice import (ExponentVector, MonomialPresentation, residual_split,
                      support)
from .series import TruncatedSeries

NilPair = frozenset[str]


@dataclass(frozen=True)
class LevelRing:
    """Named divisor variables and the facets of their complex of nonempty
    strata; build one with `base_ring` or `blow_up`.

    declared_nils are the variable pairs whose divisors do not meet.  On the
    base ring a stratum (variable subset) is empty when it contains one of
    them, or when it is larger than the ambient dimension: a generic
    normal-crossings configuration has no deeper strata.  `base_ring` derives
    the facets from exactly this rule."""

    ambient_dim: int
    variables: tuple[str, ...]
    facets: tuple[frozenset[str], ...]
    declared_nils: frozenset[NilPair] = frozenset()
    depth: int = 0

    def __post_init__(self):
        object.__setattr__(self, "variables", tuple(self.variables))
        object.__setattr__(self, "declared_nils",
                           frozenset(frozenset(s) for s in self.declared_nils))
        if self.ambient_dim < 1:
            raise MonomialSegreError("ambient_dim must be positive")
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

    def stratum_is_empty(self, labels: Iterable[str]) -> bool:
        s = frozenset(labels)
        return len(s) > self.ambient_dim or \
            any(pair <= s for pair in self.declared_nils)


class _BlownUpRing(LevelRing):
    """Ring one level above a blow-up: a stratum is empty unless it lies in
    one of the facets `blow_up` subdivided from the level below.

    This class keeps its own `stratum_is_empty` rather than sharing one with
    `LevelRing`: the benchmark tracer (bench/tracing.py) counts calls by
    wrapping the function in each class's namespace, and one function bound
    in both would be counted twice."""

    def stratum_is_empty(self, labels: Iterable[str]) -> bool:
        s = frozenset(labels)
        return not any(s <= f for f in self.facets)


def base_ring(n: int, labels: Iterable[str] | None = None,
              nil_pairs: Iterable[Iterable[str]] = ()) -> LevelRing:
    labels = tuple(labels) if labels else tuple(f"X{i + 1}" for i in range(n))
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
    return LevelRing(n, labels, maximal, seeds)


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
    upper = _BlownUpRing(r.ambient_dim, upper_vars, tuple(facets),
                         depth=r.depth + 1)
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


def pullback_class(step: BlowupStep, c: ChowClass) -> ChowClass:
    """p* on classes: center variables map to transform + E, others to their
    transform."""
    if c.ring is not step.lower and c.ring != step.lower:
        raise LevelMismatchError("class is not on the lower ring")
    pi, pj = step.center_positions()
    bound = c.series.degree_bound
    lifted = TruncatedSeries._raw(step.upper.num_vars, bound,
                                  {(0,) + e: v for e, v in c.series.terms.items()})
    return ChowClass(step.upper, _center_substitute(lifted, pi, pj, sign=1))


def _center_substitute(series: TruncatedSeries, pi: int, pj: int,
                       sign: int) -> TruncatedSeries:
    """Substitute Y~_center -> p*Y + sign*E in the working layout
    (E, Y_1, ..., Y_n); all other variables map to themselves.

    Only two variables have nontrivial images, so each term expands into a
    small binomial sum; this avoids generic series substitution, which is
    painfully slow high in a tower."""
    bound = series.degree_bound
    out: dict[tuple[int, ...], int] = {}
    for e, c in series.terms.items():
        ai, aj = e[pi + 1], e[pj + 1]
        for r1 in range(ai + 1):
            for r2 in range(aj + 1):
                coeff = c * comb(ai, r1) * comb(aj, r2)
                if sign < 0 and (r1 + r2) % 2:
                    coeff = -coeff
                t = list(e)
                t[0] = e[0] + r1 + r2
                t[pi + 1] = ai - r1
                t[pj + 1] = aj - r2
                tt = tuple(t)  # total degree is unchanged
                v = out.get(tt)
                out[tt] = coeff if v is None else v + coeff
    return TruncatedSeries._raw(series.num_vars, bound,
                                {e: v for e, v in out.items() if v})


def pushforward(step: BlowupStep, c: ChowClass) -> ChowClass:
    """Proper push-forward of a class on the upper ring down one level.

    After Y~_center -> p*Y - E, a term v E^k p*Y^a pushes to v Y^a for k = 0,
    to 0 for k = 1, and to -v h_{k-2}(Y_i, Y_j) Y_i Y_j Y^a for k >= 2 (see
    the module docstring)."""
    if c.ring != step.upper:
        raise LevelMismatchError("class is not on the upper ring")
    pi, pj = step.center_positions()
    working = _center_substitute(c.series, pi, pj, sign=-1)
    out: dict[tuple[int, ...], int] = {}
    for e, v in working.terms.items():
        k = e[0]
        if k == 0:
            out[e[1:]] = out.get(e[1:], 0) + v
            continue
        # the monomials Y_i^(r+1) Y_j^(k-1-r) of Y_i Y_j h_{k-2}; none for k = 1
        for r in range(k - 1):
            t = list(e[1:])
            t[pi] += r + 1
            t[pj] += k - 1 - r
            t = tuple(t)  # total degree is unchanged
            out[t] = out.get(t, 0) - v
    return ChowClass(step.lower, TruncatedSeries._raw(
        step.lower.num_vars, c.series.degree_bound,
        {e: v for e, v in out.items() if v}))


def reduce_nils(r: LevelRing, c: ChowClass | TruncatedSeries):
    """Delete every term whose support lies in no facet (an empty stratum)."""
    series = c.series if isinstance(c, ChowClass) else c
    if series.num_vars != r.num_vars:
        raise LevelMismatchError("series does not match the ring")
    labels = r.variables
    nonempty: dict[frozenset[str], bool] = {}  # many terms share a support
    terms = {}
    for e, v in series.terms.items():
        supp = frozenset(labels[k] for k, a in enumerate(e) if a > 0)
        if supp not in nonempty:
            nonempty[supp] = any(supp <= f for f in r.facets)
        if nonempty[supp]:
            terms[e] = v
    out = TruncatedSeries(r.num_vars, series.degree_bound, terms)
    return ChowClass(r, out) if isinstance(c, ChowClass) else out


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
