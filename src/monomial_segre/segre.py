"""The two Segre-class pipelines and the identity checks tying them together.

Pipeline one integrates over the Newton region through a placing
triangulation; pipeline two principalizes the ideal by a blow-up tower,
applies the divisor closed form D/(1+D) at the top, and pushes the class
back down.  Both return series over the base divisor variables and must
agree termwise.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from functools import cache, cached_property
from itertools import combinations
from math import comb

from . import chow
from .chow import ChowClass, LevelRing, base_ring, pushforward, reduce_nils
from .principalize import TowerTrace, principalize as run_principalize
from .errors import MonomialSegreError, TermBudgetError, TowerDivergenceError
from .lattice import (MonomialPresentation, residual_split, support,
                      support_cover_check)
from .polytope import (HalfSimplex, PointConfiguration, Triangulation,
                       blowup_replay, complement_configuration,
                       placement_order, placing_triangulation)
from .series import (TERM_BUDGET, TruncatedSeries, check_term_budget,
                     divide_one_plus, reciprocal_one_plus, sum_series,
                     tensor_line)

ORIGIN_LABEL = "O"

# the placement order whose integral `verify` compares with the default one
VERIFY_ORDER_PRESET = "rays_first"


def default_degree_bound(n: int) -> int:
    return n + 3


def simplex_contribution(t: HalfSimplex, degree_bound: int) -> TruncatedSeries:
    """t.volume * prod of X_j over bounded directions, divided by (1 + v.X)
    for every finite vertex v; zero for degenerate simplices, and when the
    monomial's degree is above the bound.  The volume is the one the cell
    carries, so a placed cell is not measured again.

    The monomial is divided by every nonzero vertex's form in one
    `divide_one_plus`, at the full degree bound; the origin's form is 1 and
    needs no division.  A cell with one nonzero finite vertex instead
    multiplies the monomial by `reciprocal_one_plus`: the series is the
    same, and the branch exists only because bench/tracing.py fails a traced
    run in which `series.mul` or `series.reciprocal_one_plus` records no
    call.  The branch goes when the tracer wraps `divide_one_plus`."""
    volume = t.volume
    n = t.dim
    if volume == 0:
        return TruncatedSeries.zero(n, degree_bound)
    numerator = tuple(0 if d in t.infinite_directions else 1 for d in range(n))
    # a nonzero int volume at a degree within the bound is a clean term
    monomial = TruncatedSeries._raw(n, degree_bound, {numerator: volume} if
                                    sum(numerator) <= degree_bound else {})
    forms = [v for v in t.finite_vertices if any(v)]
    if len(forms) == 1:
        return monomial * reciprocal_one_plus(forms[0], degree_bound)
    return divide_one_plus(monomial, *forms)


@dataclass(frozen=True)
class SimplexTerm:
    simplex: HalfSimplex
    series: TruncatedSeries


@dataclass(frozen=True)
class SegreResult:
    """A pipeline's Segre class, with what produced it.

    The integral pipeline keeps the Newton cells with their contributions,
    which its sum reads, as `per_simplex`, and its orthant triangulation as
    `complement`, with the complement cells unbuilt.  `complement_cells`
    builds the cells that avoid the origin on first read, and
    `complement_terms` computes their contributions on first read, at the
    series' degree bound; both keep what they build.  Only `verify`'s
    orthant check and the tests read them.  A `complement` given as a tuple
    of cells is read back as it is."""

    series: TruncatedSeries
    per_simplex: tuple[SimplexTerm, ...]          # cells covering the Newton region
    complement: tuple[HalfSimplex, ...] | Triangulation
    pipeline: str
    trace: TowerTrace | None = None

    @cached_property
    def complement_cells(self) -> tuple[HalfSimplex, ...]:
        """The cells covering the Newton region's convex complement."""
        if isinstance(self.complement, Triangulation):
            return self.complement.cells_with(ORIGIN_LABEL, present=False)
        return self.complement

    @cached_property
    def complement_terms(self) -> tuple[SimplexTerm, ...]:
        return _terms_for(self.complement_cells, self.series.degree_bound)


def _terms_for(cells, degree_bound: int) -> tuple[SimplexTerm, ...]:
    return tuple(SimplexTerm(cell, simplex_contribution(cell, degree_bound))
                 for cell in cells)


def orthant_triangulation(p: MonomialPresentation,
                          order_preset: str = "default") -> Triangulation:
    """Triangulate the whole positive orthant: place the complement
    configuration, then the origin last.  Cells avoiding the origin cover the
    convex complement; cells through the origin cover the Newton region."""
    config = complement_configuration(p)
    origin = (ORIGIN_LABEL, (0,) * p.num_vars + (1,))
    extended = PointConfiguration(p.num_vars, config.points + (origin,))
    order = placement_order(config, order_preset) + [ORIGIN_LABEL]
    return placing_triangulation(extended, order=order)


def split_cells(t: Triangulation):
    """(the complement cells, the Newton cells) of an orthant triangulation."""
    return t.cells_with(ORIGIN_LABEL, present=False), t.cells_with(ORIGIN_LABEL)


def segre_integral(p: MonomialPresentation, degree_bound: int | None = None,
                   order_preset: str = "default",
                   ring: LevelRing | None = None) -> SegreResult:
    """Newton-region integral pipeline: the sum of the contributions of the
    cells through the origin, which cover the Newton region, added in one
    dict.

    Only the Newton cells are built and their series computed here; the
    complement cells wait unbuilt in the result's triangulation until
    `SegreResult.complement_cells` or `complement_terms` is read.  Every
    cell's series is truncated at the same bound and the cells of the whole
    orthant sum to exactly 1, so this is 1 minus the complement's sum.  A
    series wider than TERM_BUDGET raises TermBudgetError before any work."""
    n = p.num_vars
    if degree_bound is None:
        degree_bound = default_degree_bound(n)
    check_term_budget(n, degree_bound)
    tri = orthant_triangulation(p, order_preset)
    newton_terms = _terms_for(tri.cells_with(ORIGIN_LABEL), degree_bound)
    series = sum_series(n, degree_bound, [t.series for t in newton_terms])
    if ring is not None:
        series = reduce_nils(ring, series)
    return SegreResult(series, newton_terms, tri, pipeline="integral")


@cache
def _compositions(t: int, r: int) -> tuple:
    """The pairs (parts, multinomial coefficient of parts) over the
    compositions of t into r positive parts, each coefficient built as the
    product C(t, parts_1) C(t - parts_1, parts_2) ... of binomials."""
    if r == 1:
        return (((t,), 1),)
    return tuple(((first,) + rest, comb(t, first) * m)
                 for first in range(1, t - r + 2)
                 for rest, m in _compositions(t - first, r - 1))


def _top_faces(top: LevelRing, d, degree_bound: int) -> list[tuple[int, ...]]:
    """The nonempty strata of the top ring inside the support of d, as
    sorted position tuples: every nonempty subset of a facet's positive
    part with at most degree_bound positions.  A wider face carries no term
    of the expansion, so none is listed, and a k-position facet costs the
    subsets of at most degree_bound positions, not all 2^k."""
    faces: set[tuple[int, ...]] = set()
    for f in top.facets:
        g = sorted(m for m in f if d[m])
        for r in range(1, min(len(g), degree_bound) + 1):
            faces.update(combinations(g, r))
    return sorted(faces)


def _divisor_segre_reduced(top: LevelRing, d, degree_bound: int) -> ChowClass:
    """D/(1+D) on the top ring, on nonempty strata only, in closed form:

        D/(1+D) = sum over 1 <= |e| <= degree_bound of
                  (-1)^(|e|-1) multinomial(e) prod_m d_m^(e_m) X^e,

    where e runs over the exponent vectors whose support is a face of the
    top complex (a nonempty stratum) on which every d_m is positive: any
    other term lies on an empty stratum or has a zero coefficient.  A face
    of r positions gives one term per composition of each total t into r
    positive parts, C(degree_bound, r) terms in all, and no two terms share
    an exponent.  A face wider than the bound gives none, so `_top_faces`
    lists only the faces of at most degree_bound positions, and the count is
    known before any term is built; over TERM_BUDGET it raises
    TermBudgetError.  Every coefficient is nonzero and every degree within
    the bound, and a face's terms all have that face as their support, so
    they make one group of a grouped class (`chow.ChowClass.grouped`): the
    face is the group's key, and each composition, the exponents at the
    face's positions, is a term's key as it is."""
    faces = _top_faces(top, d, degree_bound)
    count = sum(comb(degree_bound, len(s)) for s in faces)
    if count > TERM_BUDGET:
        raise TermBudgetError(
            f"the top expansion of a {top.num_vars}-variable tower at degree "
            f"bound {degree_bound} has {count} terms, more than the budget "
            f"of {TERM_BUDGET}")
    groups = {}
    for s in faces:
        r = len(s)
        total = groups[s] = {}
        powers = [[d[m] ** a for a in range(degree_bound + 1)] for m in s]
        for t in range(r, degree_bound + 1):
            sign = 1 if t % 2 else -1
            for parts, mult in _compositions(t, r):
                c = sign * mult
                for a, pw in zip(parts, powers):
                    c *= pw[a]
                total[parts] = c
    return ChowClass.grouped(top, degree_bound, groups)


def segre_tower(p: MonomialPresentation, degree_bound: int | None = None,
                ring: LevelRing | None = None) -> SegreResult:
    """Blow-up tower pipeline: principalize, apply D/(1+D) at the top, push
    the class back down level by level.  A series wider than TERM_BUDGET
    raises TermBudgetError before any work, and so does a top expansion of
    more than TERM_BUDGET terms before it is built.

    The top expansion is reduced, and `pushforward` keeps a reduced class
    reduced (see the chow module docstring), so no level needs a nil
    reduction.  The class stays grouped by support all the way down, each
    term keyed by its exponents at its group's positions only: each level
    visits only the groups that hold its exceptional divisor or a center,
    and passes every other group down as it is.  `pushforward` is pure and
    is called once per level.  The series is read once, at the base, where
    the terms are scattered out to the base width.  The top expansion lists
    only faces of at most degree_bound positions, so its cost follows the
    bound, not the width of the top facets.

    The one `reduce_nils` at the base changes nothing.  It is
    kept so that both pipelines end in the same `reduce_nils(ring, ...)`,
    and because the per-layer tracer (bench/tracing.py) fails a `corpus`
    run that records no `reduce_nils` call, while that workload calls
    `segre_integral` without a ring."""
    n = p.num_vars
    if degree_bound is None:
        degree_bound = default_degree_bound(n)
    check_term_budget(n, degree_bound)
    if ring is None:
        ring = base_ring(n, p.variable_labels)
    trace = run_principalize(ring, p)
    top = trace.top_ring
    d = trace.terminal_divisor
    c = _divisor_segre_reduced(top, d, degree_bound)
    for step in reversed(trace.steps):
        c = pushforward(step, c)
    return SegreResult(reduce_nils(ring, c.series), (), (), pipeline="tower",
                       trace=trace)


# -- identity checks ---------------------------------------------------------


def _first_difference(a: TruncatedSeries, b: TruncatedSeries):
    diff = a - b
    if diff.is_zero():
        return None
    return diff.sorted_terms()[0]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""
    seconds: float = 0.0


def residual_identity_check(p: MonomialPresentation,
                            integral: TruncatedSeries) -> tuple[bool, str]:
    """Check the residual formula: the full integral of p, given as
    `integral` (with no nil reduction), equals
    D/(1+D) + (1/(1+D)) (residual integral twisted by O(D)); the right side
    is computed here, at the degree bound of `integral`, dividing the
    twisted integral by 1 + D in one `divide_one_plus`.

    Returns (passed, detail): (True, "skipped") when p has no divisorial
    part D, (True, "equal"), or (False, "mismatch, first differing term
    <term>")."""
    n = p.num_vars
    degree_bound = integral.degree_bound
    d, residual = residual_split(p)
    if all(a == 0 for a in d):
        return True, "skipped"
    d_series = TruncatedSeries.one(n, degree_bound) - \
        reciprocal_one_plus(d, degree_bound)
    residual_integral = segre_integral(residual, degree_bound).series
    twisted = tensor_line(residual_integral, d)
    rhs = d_series + divide_one_plus(twisted, d)
    diff = _first_difference(integral, rhs)
    if diff is None:
        return True, "equal"
    return False, f"mismatch, first differing term {diff}"


def blowup_invariance_check(p: MonomialPresentation, i: int, j: int,
                            integral: TruncatedSeries) -> tuple[bool, str]:
    """Verify that the lifted integral pushes forward to the base integral,
    given as `integral` (with no nil reduction), cell by cell: the U0 and
    U'' contributions die, the U' and U1 contributions land on their alpha
    images.  The lifted side is computed here, at the degree bound of
    `integral`.  i, j are 0-based base directions.

    Returns (passed, detail), the detail naming every failure, joined by
    "; ", and empty when none."""
    n = p.num_vars
    degree_bound = integral.degree_bound
    ring = base_ring(n, p.variable_labels)
    step = chow.blow_up(ring, i, j)

    replay = blowup_replay(complement_configuration(p), i, j)

    failures = []

    # the alpha images must be exactly the links of the a0 ray, each once
    keys = [image.key() for _, image in replay.Uprime + replay.U1]
    distinct = set(keys)
    if distinct != {c.key() for c in replay.links} or \
            len(distinct) != len(keys):
        failures.append("alpha is not a bijection onto the base cells")

    lifted, targets = [], []
    for cell in replay.U0 + replay.Udoubleprime:
        contribution = simplex_contribution(cell, degree_bound)
        lifted.append(contribution)
        pushed = pushforward(step, ChowClass(step.upper, contribution)).series
        if not pushed.is_zero():
            failures.append(
                f"U0/U'' cell {cell.provenance} does not push to zero")
    for cell, image in replay.Uprime + replay.U1:
        contribution = simplex_contribution(cell, degree_bound)
        lifted.append(contribution)
        pushed = pushforward(step, ChowClass(step.upper, contribution)).series
        target = simplex_contribution(image, degree_bound)
        targets.append(target)
        if pushed != target:
            failures.append(
                f"U'/U1 cell {cell.provenance} does not push to its alpha image")

    # totals: push-forward of the lifted integral equals the base integral
    lifted_sum = sum_series(n + 1, degree_bound, lifted)
    base_sum = sum_series(n, degree_bound, targets)
    lifted_integral = TruncatedSeries.one(n + 1, degree_bound) - lifted_sum
    pushed_total = pushforward(step, ChowClass(step.upper, lifted_integral)).series
    if pushed_total != integral:
        failures.append("total push-forward does not match the base integral")
    if (TruncatedSeries.one(n, degree_bound) - base_sum) != integral:
        failures.append("link triangulation total differs from the base integral")
    return not failures, "; ".join(failures)


def admissible_pairs(r: LevelRing, p: MonomialPresentation):
    """Non-nil variable pairs (i, j) in which the exponents on r of two
    generators of the base presentation p are incomparable: the centers
    `verify` checks blow-up invariance at."""
    gens = [r.exponents(g) for g in p.generators]
    for i, j in combinations(range(r.num_vars), 2):
        if not r.stratum_is_empty((i, j)) and any(
                (u[i] - v[i]) * (u[j] - v[j]) < 0
                for u, v in combinations(gens, 2)):
            yield i, j


@dataclass(frozen=True)
class VerifyReport:
    checks: tuple[CheckResult, ...]
    diverged: bool = False

    @property
    def status(self) -> str:
        """The run's verdict: "pass" when every check passed, "diverged"
        when the one failed check is the one whose tower reached its cap
        (only pipeline_equality climbs a tower), and "fail" otherwise."""
        failed = sum(not c.passed for c in self.checks)
        if not failed:
            return "pass"
        return "diverged" if self.diverged and failed == 1 else "fail"

    @property
    def ok(self) -> bool:
        return self.status == "pass"


def verify(p: MonomialPresentation, degree_bound: int | None = None,
           ring: LevelRing | None = None) -> VerifyReport:
    """Run every identity check on one presentation and aggregate a report.

    ring is the base ring, as for the pipelines; None means no nil pairs.
    The blow-up checks, one per admissible pair, lift the configuration to
    n + 1 variables, and every other check works in n.  So the pairs are
    counted first, and a series over TERM_BUDGET in n + 1 variables when
    there is a pair, or in n when there is none, raises TermBudgetError
    before any check runs.  Each check returns (passed, detail) and becomes
    one CheckResult, in a fixed order.  A tower that reaches no divisor
    within its cap fails the check that climbed it and sets the report's
    `diverged`."""
    n = p.num_vars
    if degree_bound is None:
        degree_bound = default_degree_bound(n)
    if ring is None:
        ring = base_ring(n, p.variable_labels)
    pairs = list(admissible_pairs(ring, p))
    check_term_budget(n + 1 if pairs else n, degree_bound)
    checks: list[CheckResult] = []
    diverged = False

    def run(name, fn, *args):
        start = time.perf_counter()
        try:
            passed, detail = fn(*args)
        except TowerDivergenceError as exc:
            nonlocal diverged
            diverged = True
            passed, detail = False, f"tower divergence: {exc}"
        checks.append(CheckResult(name, passed, detail,
                                  time.perf_counter() - start))

    # the unreduced integral feeds the residual and blow-up checks; the rest
    # compare the ring-reduced one, as segre_integral(ring=ring) returns it
    base = segre_integral(p, degree_bound)
    integral = replace(base, series=reduce_nils(ring, base.series))

    def pipelines():
        tower = segre_tower(p, degree_bound, ring=ring)
        diff = _first_difference(integral.series, tower.series)
        if diff is None:
            return True, f"tower depth {len(tower.trace.steps)}"
        return False, f"first differing term {diff}"
    run("pipeline_equality", pipelines)
    run("residual_identity", residual_identity_check, p, base.series)
    run("integer_coefficients", lambda: (integral.series.is_integral(), ""))

    def orthant():
        total = TruncatedSeries.one(n, degree_bound)
        acc = sum_series(n, degree_bound, [
            t.series for t in integral.per_simplex + integral.complement_terms])
        if acc != total:
            return False, "orthant contributions do not sum to 1"
        return True, ""
    run("orthant_normalization", orthant)

    def order_independence():
        other = segre_integral(p, degree_bound,
                               order_preset=VERIFY_ORDER_PRESET, ring=ring)
        if other.series != integral.series:
            return False, f"preset {VERIFY_ORDER_PRESET} disagrees"
        return True, ""
    run("order_independence", order_independence)

    def supports():
        for term in integral.per_simplex:
            if term.series.is_zero():
                continue
            bounded = [d for d in range(n)
                       if d not in term.simplex.infinite_directions]
            if not support_cover_check(p, bounded):
                return False, f"cell {term.simplex.provenance} fails the cover check"
        for e in integral.series.terms:
            if not support_cover_check(p, support(e)):
                return False, f"term {e} is not supported on the scheme"
        if chow.scheme_is_empty(ring, p) and not integral.series.is_zero():
            return False, "empty scheme with nonzero class"
        return True, ""
    run("support_property", supports)

    for (bi, bj) in pairs:
        run(f"blowup_invariance_{bi + 1}_{bj + 1}", blowup_invariance_check,
            p, bi, bj, base.series)

    return VerifyReport(tuple(checks), diverged)
