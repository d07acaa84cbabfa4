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
from functools import cached_property

from . import chow
from .chow import ChowClass, LevelRing, base_ring, pushforward, reduce_nils
from .principalize import (TowerTrace, admissible_pairs,
                           principalize as run_principalize)
from .errors import MonomialSegreError, TowerDivergenceError
from .lattice import (MonomialPresentation, residual_split, support,
                      support_cover_check)
from .polytope import (HalfSimplex, PointConfiguration, Triangulation, alpha,
                       classify_blowup_cells, complement_configuration, hvol,
                       lift_to_H, link_cells, placement_order,
                       placing_triangulation)
from .series import (TruncatedSeries, divide_one_plus, reciprocal_one_plus,
                     tensor_line)

ORIGIN_LABEL = "O"

# placement orders whose integrals `verify` compares with the default one
VERIFY_ORDER_PRESETS = ("rays_first",)


def default_degree_bound(n: int) -> int:
    return n + 3


def simplex_contribution(t: HalfSimplex, degree_bound: int) -> TruncatedSeries:
    """hvol(t) * prod of X_j over bounded directions, divided by (1 + v.X) for
    every finite vertex v; zero for degenerate simplices.

    The monomial is divided by every nonzero vertex's form in one
    `divide_one_plus`, at the full degree bound; the origin's form is 1 and
    needs no division.  A cell with one nonzero finite vertex instead
    multiplies the monomial by `reciprocal_one_plus`: the series is the
    same, and the branch exists only because bench/tracing.py fails a traced
    run in which `series.mul` or `series.reciprocal_one_plus` records no
    call.  The branch goes when the tracer wraps `divide_one_plus`."""
    volume = hvol(t)
    n = t.dim
    if volume == 0:
        return TruncatedSeries.zero(n, degree_bound)
    numerator = tuple(0 if d in t.infinite_directions else 1 for d in range(n))
    monomial = TruncatedSeries.monomial(numerator, n, degree_bound,
                                        coefficient=volume)
    forms = [v for v in t.finite_vertices if any(v)]
    if len(forms) == 1:
        return monomial * reciprocal_one_plus(forms[0], degree_bound)
    return divide_one_plus(monomial, *forms)


@dataclass(frozen=True)
class SimplexTerm:
    simplex: HalfSimplex
    series: TruncatedSeries
    support: frozenset[int]  # bounded directions of the simplex


@dataclass(frozen=True)
class SegreResult:
    """A pipeline's Segre class, with what produced it.

    The integral pipeline keeps the cells of its triangulation: the Newton
    cells with their contributions, which its sum reads, and the complement
    cells bare.  `complement_terms` computes the complement cells'
    contributions on first read, at the series' degree bound, and keeps
    them; only `verify`'s orthant check and the tests read them."""

    series: TruncatedSeries
    per_simplex: tuple[SimplexTerm, ...]          # cells covering the Newton region
    complement_cells: tuple[HalfSimplex, ...]     # cells covering its convex complement
    pipeline: str
    trace: TowerTrace | None = None

    @cached_property
    def complement_terms(self) -> tuple[SimplexTerm, ...]:
        return _terms_for(self.complement_cells, self.series.degree_bound)


def _terms_for(cells, degree_bound: int) -> tuple[SimplexTerm, ...]:
    out = []
    for cell in cells:
        series = simplex_contribution(cell, degree_bound)
        bounded = frozenset(d for d in range(cell.dim)
                            if d not in cell.infinite_directions)
        out.append(SimplexTerm(cell, series, bounded))
    return tuple(out)


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
    complement = tuple(c for c in t.cells if ORIGIN_LABEL not in c.provenance)
    newton = tuple(c for c in t.cells if ORIGIN_LABEL in c.provenance)
    return complement, newton


def segre_integral(p: MonomialPresentation, degree_bound: int | None = None,
                   order_preset: str = "default",
                   ring: LevelRing | None = None) -> SegreResult:
    """Newton-region integral pipeline: the sum of the contributions of the
    cells through the origin, which cover the Newton region.

    Only the Newton cells' series are computed here; the complement cells'
    wait in the result until `SegreResult.complement_terms` is read.  Every
    cell's series is truncated at the same bound and the cells of the whole
    orthant sum to exactly 1, so this is 1 minus the complement's sum."""
    n = p.num_vars
    if degree_bound is None:
        degree_bound = default_degree_bound(n)
    tri = orthant_triangulation(p, order_preset)
    complement, newton = split_cells(tri)
    newton_terms = _terms_for(newton, degree_bound)
    series = TruncatedSeries.zero(n, degree_bound)
    for term in newton_terms:
        series = series + term.series
    if ring is not None:
        series = reduce_nils(ring, series)
    return SegreResult(series, newton_terms, complement, pipeline="integral")


def _divisor_segre_reduced(top: LevelRing, d, degree_bound: int):
    """D/(1+D) = sum_k (-1)^(k-1) D^k on the top ring, on nonempty strata only.

    Expanding 1/(1+D) outright is hopeless high in a tower (a dense linear
    form in dozens of variables).  Instead each term of D^k is multiplied
    only by the variables of D in its link, the union of the facets through
    its support: any other product, and every multiple of it, lies on an
    empty stratum.  Every term has degree k <= degree_bound and a positive
    coefficient (D has no negative entry), so the terms go to the trusted
    constructor, which does not scan each wide exponent again."""
    links: dict[frozenset[int], list[int]] = {}
    power = {(0,) * top.num_vars: 1}
    total = {}
    for k in range(1, degree_bound + 1):
        nxt: dict[tuple[int, ...], int] = {}
        for e, c in power.items():
            s = support(e)
            if s not in links:
                near = set().union(*(f for f in top.facets if s <= f))
                links[s] = [m for m in sorted(near) if d[m]]
            for m in links[s]:
                t = e[:m] + (e[m] + 1,) + e[m + 1:]
                nxt[t] = nxt.get(t, 0) + c * d[m]
        power = nxt
        total.update((e, c if k % 2 else -c) for e, c in power.items())
    return TruncatedSeries._raw(top.num_vars, degree_bound, total)


def segre_tower(p: MonomialPresentation, degree_bound: int | None = None,
                ring: LevelRing | None = None) -> SegreResult:
    """Blow-up tower pipeline: principalize, apply D/(1+D) at the top, push
    the class back down level by level.

    The top expansion is reduced, and `pushforward` keeps a reduced class
    reduced (see the chow module docstring), so no level needs a nil
    reduction.  The one `reduce_nils` at the base changes nothing.  It is
    kept so that both pipelines end in the same `reduce_nils(ring, ...)`,
    and because the per-layer tracer (bench/tracing.py) fails a `corpus`
    run that records no `reduce_nils` call, while that workload calls
    `segre_integral` without a ring."""
    n = p.num_vars
    if degree_bound is None:
        degree_bound = default_degree_bound(n)
    if ring is None:
        ring = base_ring(n, p.variable_labels)
    trace = run_principalize(ring, p)
    top = trace.top_ring
    d = trace.terminal_divisor
    c = ChowClass(top, _divisor_segre_reduced(top, d, degree_bound))
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


@dataclass(frozen=True)
class ResidualReport:
    status: str  # "equal", "skipped", or "mismatch"
    first_difference: tuple | None = None

    @property
    def ok(self) -> bool:
        return self.status in ("equal", "skipped")


def residual_identity_check(p: MonomialPresentation,
                            integral: TruncatedSeries) -> ResidualReport:
    """Check the residual formula: the full integral of p, given as
    `integral` (with no nil reduction), equals
    D/(1+D) + (1/(1+D)) (residual integral twisted by O(D)); the right side
    is computed here, at the degree bound of `integral`."""
    n = p.num_vars
    degree_bound = integral.degree_bound
    d, residual = residual_split(p)
    if all(a == 0 for a in d):
        return ResidualReport("skipped")
    inv = reciprocal_one_plus(d, degree_bound)
    d_series = TruncatedSeries.one(n, degree_bound) - inv
    residual_integral = segre_integral(residual, degree_bound).series
    twisted = tensor_line(residual_integral, d)
    rhs = d_series + inv * twisted
    diff = _first_difference(integral, rhs)
    if diff is None:
        return ResidualReport("equal")
    return ResidualReport("mismatch", diff)


@dataclass(frozen=True)
class BlowupReport:
    ok: bool
    failures: tuple[str, ...]
    classification_sizes: tuple[int, int, int, int]


def blowup_invariance_check(p: MonomialPresentation, i: int, j: int,
                            integral: TruncatedSeries) -> BlowupReport:
    """Verify that the lifted integral pushes forward to the base integral,
    given as `integral` (with no nil reduction), cell by cell: the U0 and
    U'' contributions die, the U' and U1 contributions land on their alpha
    images.  The lifted side is computed here, at the degree bound of
    `integral`.  i, j are 0-based base directions."""
    n = p.num_vars
    degree_bound = integral.degree_bound
    ring = base_ring(n, p.variable_labels)
    step = chow.blow_up(ring, i, j)

    tri_hat = placing_triangulation(lift_to_H(complement_configuration(p), i, j))
    parts = classify_blowup_cells(tri_hat, i, j)

    failures = []

    # the alpha images must be exactly the links of the a0 ray
    links = {c.key() for c in link_cells(tri_hat)}
    images = {}
    for cell in parts.Uprime + parts.U1:
        img = alpha(cell, parts, i)
        images[cell.key()] = img
    image_keys = {img.key() for img in images.values()}
    if image_keys != links or len(images) != len(parts.Uprime) + len(parts.U1):
        failures.append("alpha is not a bijection onto the base cells")

    zero = TruncatedSeries.zero(n, degree_bound)
    lifted_sum = TruncatedSeries.zero(n + 1, degree_bound)
    for cell in parts.U0 + parts.Udoubleprime:
        contribution = simplex_contribution(cell, degree_bound)
        lifted_sum = lifted_sum + contribution
        pushed = pushforward(step, ChowClass(step.upper, contribution)).series
        if pushed != zero:
            failures.append(
                f"U0/U'' cell {cell.provenance} does not push to zero")
    base_sum = TruncatedSeries.zero(n, degree_bound)
    for cell in parts.Uprime + parts.U1:
        contribution = simplex_contribution(cell, degree_bound)
        lifted_sum = lifted_sum + contribution
        pushed = pushforward(step, ChowClass(step.upper, contribution)).series
        target = simplex_contribution(images[cell.key()], degree_bound)
        base_sum = base_sum + target
        if pushed != target:
            failures.append(
                f"U'/U1 cell {cell.provenance} does not push to its alpha image")

    # totals: push-forward of the lifted integral equals the base integral
    lifted_integral = TruncatedSeries.one(n + 1, degree_bound) - lifted_sum
    pushed_total = pushforward(step, ChowClass(step.upper, lifted_integral)).series
    if pushed_total != integral:
        failures.append("total push-forward does not match the base integral")
    if (TruncatedSeries.one(n, degree_bound) - base_sum) != integral:
        failures.append("link triangulation total differs from the base integral")

    sizes = (len(parts.U0), len(parts.U1), len(parts.Uprime),
             len(parts.Udoubleprime))
    return BlowupReport(not failures, tuple(failures), sizes)


@dataclass(frozen=True)
class VerifyReport:
    presentation: MonomialPresentation
    checks: tuple[CheckResult, ...]
    diverged: bool = False

    @property
    def ok(self) -> bool:
        return not self.diverged and all(c.passed for c in self.checks)


def verify(p: MonomialPresentation, degree_bound: int | None = None,
           nil_pairs=()) -> VerifyReport:
    """Run every identity check on one presentation and aggregate a report."""
    n = p.num_vars
    if degree_bound is None:
        degree_bound = default_degree_bound(n)
    ring = base_ring(n, p.variable_labels, nil_pairs)
    checks: list[CheckResult] = []
    diverged = False

    def run(name, fn):
        start = time.perf_counter()
        try:
            passed, detail = fn()
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

    def residual():
        report = residual_identity_check(p, base.series)
        if report.ok:
            return True, report.status
        return False, f"mismatch, first differing term {report.first_difference}"
    run("residual_identity", residual)

    def integrality():
        return integral.series.is_integral(), ""
    run("integer_coefficients", integrality)

    def orthant():
        total = TruncatedSeries.one(n, degree_bound)
        acc = TruncatedSeries.zero(n, degree_bound)
        for term in integral.per_simplex + integral.complement_terms:
            acc = acc + term.series
        if acc != total:
            return False, "orthant contributions do not sum to 1"
        return True, ""
    run("orthant_normalization", orthant)

    def order_independence():
        for preset in VERIFY_ORDER_PRESETS:
            other = segre_integral(p, degree_bound, order_preset=preset,
                                   ring=ring)
            if other.series != integral.series:
                return False, f"preset {preset} disagrees"
        return True, ""
    run("order_independence", order_independence)

    def supports():
        for term in integral.per_simplex:
            if term.series.is_zero():
                continue
            if not support_cover_check(p, term.support):
                return False, f"cell {term.simplex.provenance} fails the cover check"
        for e in integral.series.terms:
            if not support_cover_check(p, support(e)):
                return False, f"term {e} is not supported on the scheme"
        if chow.scheme_is_empty(ring, p) and not integral.series.is_zero():
            return False, "empty scheme with nonzero class"
        return True, ""
    run("support_property", supports)

    for (bi, bj) in admissible_pairs(ring, p):
        def blowup(bi=bi, bj=bj):
            report = blowup_invariance_check(p, bi, bj, base.series)
            detail = "; ".join(report.failures)
            return report.ok, detail
        run(f"blowup_invariance_{bi + 1}_{bj + 1}", blowup)

    return VerifyReport(p, tuple(checks), diverged)
