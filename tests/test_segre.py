import dataclasses
import random
from collections import Counter
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from monomial_segre import chow, polytope, segre
from monomial_segre.chow import base_ring
from monomial_segre.lattice import presentation
from monomial_segre.segre import (admissible_pairs, blowup_invariance_check,
                                  default_degree_bound, orthant_triangulation,
                                  residual_identity_check, segre_integral,
                                  segre_tower, simplex_contribution, verify)
from monomial_segre.polytope import (blowup_replay, complement_configuration,
                                     lift_to_H, placing_triangulation)
from monomial_segre.errors import MonomialSegreError, TermBudgetError
from monomial_segre.series import TruncatedSeries, check_term_budget

from oracles import (cell, expand_terms, newton_region_area,
                     newton_region_volume, random_presentation,
                     simplex_contribution_by_products, symbols)

STAIRCASE = presentation(((3, 0), (1, 1), (0, 3)))


def test_default_degree_bound():
    assert default_degree_bound(2) == 5
    assert default_degree_bound(3) == 6


def test_column_simplex_contribution():
    # unbounded in direction 3 only, height volume 2
    s = cell(3, ((0, 0, 1), (1, 0, 2), (0, 2, 3)), frozenset({2}))
    got = simplex_contribution(s, 4)
    X1, X2, X3 = symbols(3)
    want = expand_terms(
        2 * X1 * X2 / ((1 + X3) * (1 + X1 + 2 * X3) * (1 + 2 * X2 + 3 * X3)),
        (X1, X2, X3), 4)
    assert got.terms == want


@given(st.integers(0, 10 ** 6), st.sampled_from(("default", "rays_first")))
@settings(max_examples=40, deadline=None)
def test_contribution_matches_the_product_formula(seed, preset):
    p = random_presentation(random.Random(seed))
    bound = default_degree_bound(p.num_vars)
    cells = list(orthant_triangulation(p, preset).cells)
    # the (n+1)-variable cells that blowup_invariance_check passes in
    for i, j in admissible_pairs(base_ring(p.num_vars, p.variable_labels), p):
        cells += placing_triangulation(
            lift_to_H(complement_configuration(p), i, j)).cells
    for cell in cells:
        assert simplex_contribution(cell, bound) == \
            simplex_contribution_by_products(cell, bound), cell


def test_segre_integral_still_fires_the_traced_product_and_reciprocal(
        monkeypatch):
    # bench/tracing.py's MUST_FIRE fails a `--trace 1` run of `corpus` or
    # `compute_wide` in which series.mul or series.reciprocal_one_plus records
    # no call, and only simplex_contribution's one-vertex branch still makes
    # those calls; delete this test with that branch.  The integral sums the
    # Newton cells, and (x^2 y, x y^2) has the one-form cells (v0, a1, O)
    # and (v1, a2, O), where the staircase has none
    calls = Counter()
    reciprocal, mul = segre.reciprocal_one_plus, TruncatedSeries.__mul__

    def counting_reciprocal(*args):
        calls["reciprocal_one_plus"] += 1
        return reciprocal(*args)

    def counting_mul(a, b):
        calls["mul"] += 1
        return mul(a, b)
    monkeypatch.setattr(segre, "reciprocal_one_plus", counting_reciprocal)
    monkeypatch.setattr(TruncatedSeries, "__mul__", counting_mul)
    segre_integral(presentation(((2, 1), (1, 2))), 5)
    assert calls["reciprocal_one_plus"] >= 1
    assert calls["mul"] >= 1


def test_degenerate_simplex_contributes_zero():
    s = cell(2, ((0, 0), (1, 1), (2, 2)), frozenset())
    assert simplex_contribution(s, 4).is_zero()


generator_sets = st.integers(1, 3).flatmap(lambda n: st.lists(
    st.tuples(*[st.integers(0, 4)] * n), min_size=1, max_size=5,
    unique=True))


@given(generator_sets, st.integers(0, 6))
@example([(0, 0)], 5)             # the unit ideal
@example([(3,)], 4)               # n = 1
@example([(2, 1), (1, 2)], 5)     # not m-primary
@example([(2, 0, 1), (0, 1, 3)], 6)
@settings(max_examples=60, deadline=None)
def test_integral_is_one_minus_the_complement(gens, bound):
    # the sum over the Newton cells and 1 minus the sum over the complement
    # cells are the same truncated series, at the same bound
    result = segre_integral(presentation(sorted(gens)), bound)
    rest = TruncatedSeries.one(len(gens[0]), bound)
    for term in result.complement_terms:
        rest = rest - term.series
    assert result.series == rest
    assert result.series.degree_bound == bound


def test_staircase_closed_form():
    X1, X2 = symbols(2)
    expr = 1 - (3 * X2 / ((1 + 3 * X1) * (1 + 3 * X2))
                + 1 / (1 + 3 * X2)
                + 3 * X1 * X2 / ((1 + 3 * X1) * (1 + X1 + X2) * (1 + 3 * X2)))
    want = expand_terms(expr, (X1, X2), 6)
    assert segre_integral(STAIRCASE, 6).series.terms == want
    assert segre_tower(STAIRCASE, 6).series.terms == want


def test_single_generator_closed_form():
    # principal ideal (x y): class is D/(1+D) with D = X1 + X2
    X1, X2 = symbols(2)
    d = X1 + X2
    want = expand_terms(d / (1 + d), (X1, X2), 5)
    p = presentation(((1, 1),))
    assert segre_integral(p, 5).series.terms == want
    assert segre_tower(p, 5).series.terms == want


def test_two_coordinate_lines_closed_form():
    # (x, y): the origin, with class X1 X2 / ((1+X1)(1+X2))
    X1, X2 = symbols(2)
    want = expand_terms(X1 * X2 / ((1 + X1) * (1 + X2)), (X1, X2), 5)
    p = presentation(((1, 0), (0, 1)))
    assert segre_integral(p, 5).series.terms == want
    assert segre_tower(p, 5).series.terms == want


@given(st.integers(1, 6), st.integers(1, 6),
       st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)), max_size=3))
@settings(max_examples=60, deadline=None)
@example(3, 3, [(1, 1)])
def test_top_coefficient_is_the_multiplicity_for_n2(a, b, extra):
    # with pure powers of both variables the scheme is supported on the
    # origin: the class starts in degree 2, with X1 X2 coefficient
    # e(I) = 2 area(N), the area computed without the triangulation
    p = presentation(sorted({(a, 0), (0, b), *extra}))
    want = 2 * newton_region_area(p.generators)
    for result in (segre_integral(p, 3), segre_tower(p, 3)):
        terms = result.series.terms
        assert all(sum(e) >= 2 for e in terms), (p.generators, terms)
        assert terms.get((1, 1), 0) == want, (p.generators, terms)


@given(st.integers(1, 3), st.integers(1, 3), st.integers(1, 3),
       st.lists(st.tuples(*[st.integers(0, 3)] * 3), max_size=2))
@settings(max_examples=30, deadline=None)
@example(1, 1, 1, [])
@example(2, 2, 2, [(1, 1, 1)])
def test_top_coefficient_is_the_multiplicity_for_n3(a, b, c, extra):
    # the n = 3 case of the test above: e(I) = 6 vol(N), the volume an
    # Ehrhart count of lattice points, again without the triangulation
    p = presentation(sorted({(a, 0, 0), (0, b, 0), (0, 0, c), *extra}))
    want = 6 * newton_region_volume(p.generators)
    for result in (segre_integral(p, 4), segre_tower(p, 4)):
        terms = result.series.terms
        assert all(sum(e) >= 3 for e in terms), (p.generators, terms)
        assert terms.get((1, 1, 1), 0) == want, (p.generators, terms)


def test_residual_identity_golden_and_skip():
    p = presentation(((2, 1), (1, 2)))
    assert residual_identity_check(
        p, segre_integral(p).series) == (True, "equal")
    assert residual_identity_check(
        STAIRCASE, segre_integral(STAIRCASE).series) == (True, "skipped")


def test_order_independence_presets():
    for preset in ("default", "rays_first", "finite_reversed"):
        assert segre_integral(STAIRCASE, 6, order_preset=preset).series == \
            segre_integral(STAIRCASE, 6).series


def test_integer_coefficients_on_goldens():
    for gens in [((3, 0), (1, 1), (0, 3)), ((1, 0), (0, 1)),
                 ((2, 0, 0), (0, 2, 0), (0, 0, 2)), ((1, 1),)]:
        assert segre_integral(presentation(gens)).series.is_integral()


def test_support_property_staircase():
    # every term of the class involves both variables or comes from a face
    # meeting the scheme; the aggregated check is part of verify
    report = verify(STAIRCASE, 5)
    by_name = {c.name: c for c in report.checks}
    assert by_name["support_property"].passed
    assert by_name["orthant_normalization"].passed


def test_empty_scheme_under_declared_nils_is_zero():
    ring = base_ring(2, nil_pairs=[("X1", "X2")])
    p = presentation(((1, 0), (0, 1)))
    assert segre_integral(p, 5, ring=ring).series.is_zero()
    assert segre_tower(p, 5, ring=ring).series.is_zero()


def test_blowup_invariance_staircase():
    assert blowup_invariance_check(
        STAIRCASE, 0, 1, segre_integral(STAIRCASE, 6).series) == (True, "")


@pytest.mark.parametrize("p", [STAIRCASE,
                               presentation(((2, 0, 1), (0, 3, 1), (1, 1, 0)))])
def test_the_lift_and_the_blown_up_ring_share_one_layout(p):
    # blowup_invariance_check pushes the lifted cells' series down with
    # chow.pushforward, so a lifted coordinate must be the ring's divisor
    # at the same position: each generator's point is its exponents on the
    # blown-up ring, and the a0 ray points at the exceptional divisor
    n = p.num_vars
    for i, j in permutations(range(n), 2):
        up = chow.blow_up(base_ring(n), i, j).upper
        points = lift_to_H(complement_configuration(p), i, j).homogeneous
        for k, g in enumerate(p.generators):
            assert points[f"v{k}"] == up.exponents(g) + (1,), (i, j, g)
        e = up.num_vars - 1  # the exceptional divisor goes last
        assert points["a0"] == tuple(int(m == e) for m in range(n + 1)) + (0,)


def test_blowup_invariance_fails_a_non_injective_alpha(monkeypatch):
    # one more U1 cell, distinct from every other, whose image repeats an
    # existing one: the image set still equals the link set
    replay = blowup_replay(complement_configuration(STAIRCASE), 0, 1)
    extra = (replay.Udoubleprime[0], replay.U1[0][1])
    bad = dataclasses.replace(replay, U1=replay.U1 + (extra,))
    monkeypatch.setattr(segre, "blowup_replay", lambda config, i, j: bad)
    passed, detail = blowup_invariance_check(
        STAIRCASE, 0, 1, segre_integral(STAIRCASE, 6).series)
    assert not passed
    assert "alpha is not a bijection onto the base cells" in detail.split("; ")


@given(st.integers(0, 10 ** 6))
@settings(max_examples=30, deadline=None)
def test_blowup_invariance_for_every_ordered_center_pair(seed):
    # verify visits admissible pairs with i < j only; the lift places ray i
    # before ray j, so i > j places the center rays the other way round
    p = random_presentation(random.Random(seed))
    integral = segre_integral(p).series
    for i in range(p.num_vars):
        for j in range(p.num_vars):
            if i != j:
                assert blowup_invariance_check(p, i, j, integral) == \
                    (True, ""), (p.generators, i, j)


@pytest.mark.parametrize("p", [
    STAIRCASE, presentation(((2, 0, 1), (0, 3, 1), (1, 1, 0))),
    presentation(((1, 2, 0, 1), (0, 1, 3, 2), (2, 0, 1, 0)))])
def test_each_cell_is_measured_once(monkeypatch, p):
    # a placed cell keeps the determinant its placing took as its volume,
    # and a contracted cell the volume of the cell it came from, so the
    # integral, the replay and the blow-up check take no determinant beyond
    # their placing's
    calls = []
    det = polytope.det

    def counting(rows):
        calls.append(len(rows))
        return det(rows)
    monkeypatch.setattr(polytope, "det", counting)

    def count(fn, *args):
        calls.clear()
        fn(*args)
        return len(calls)
    assert count(segre_integral, p) == count(orthant_triangulation, p) > 0
    integral = segre_integral(p).series
    config = complement_configuration(p)
    pairs = list(admissible_pairs(base_ring(p.num_vars), p))
    assert pairs
    for i, j in pairs:
        assert count(blowup_invariance_check, p, i, j, integral) == \
            count(blowup_replay, config, i, j) == \
            count(placing_triangulation, lift_to_H(config, i, j)) > 0


def test_verify_aggregates_all_checks():
    report = verify(STAIRCASE, 6)
    assert report.ok
    names = [c.name for c in report.checks]
    for expected in ("pipeline_equality", "residual_identity",
                     "integer_coefficients", "orthant_normalization",
                     "order_independence", "support_property",
                     "blowup_invariance_1_2"):
        assert expected in names


def test_verify_computes_the_default_integral_once(monkeypatch):
    presets = []

    def recording(p, degree_bound=None, order_preset="default", ring=None):
        presets.append(order_preset)
        return segre_integral(p, degree_bound, order_preset, ring)
    monkeypatch.setattr(segre, "segre_integral", recording)
    assert verify(STAIRCASE, 5).ok
    assert presets == ["default", "rays_first"]


def test_complement_cells_are_computed_only_where_they_are_read(monkeypatch):
    # segre_integral's sum reads the Newton cells alone; verify reads the
    # complement cells through complement_terms, and computes each of them
    # once
    cells = []

    def recording(t, degree_bound):
        cells.append(t)
        return simplex_contribution(t, degree_bound)
    monkeypatch.setattr(segre, "simplex_contribution", recording)
    p = presentation(((4, 1), (2, 2), (1, 4)))
    result = segre_integral(p, 5)
    assert cells == [t.simplex for t in result.per_simplex]
    assert all(segre.ORIGIN_LABEL in c.provenance for c in cells)
    cells.clear()
    terms = result.complement_terms
    assert result.complement_terms is terms
    assert cells == [t.simplex for t in terms] == list(result.complement_cells)
    assert all(segre.ORIGIN_LABEL not in c.provenance for c in cells)
    for t in terms:
        assert t.series.degree_bound == 5
        assert t.series == simplex_contribution(t.simplex, 5)
    cells.clear()
    report = verify(p, 5)
    assert report.ok
    assert any(c.name.startswith("blowup_invariance") for c in report.checks)
    complement = [c for c in cells if c in result.complement_cells]
    assert complement == list(result.complement_cells)


def test_complement_cells_are_built_only_when_read(monkeypatch):
    # segre_integral builds the Newton cells alone; the first read of
    # complement_cells or of complement_terms builds the complement cells,
    # once, and a later read builds nothing.  Cells are built, then sorted
    built = []
    real = polytope._cell_from_labels

    def recording(config, labels, order_index, volume):
        cell = real(config, labels, order_index, volume)
        built.append(cell)
        return cell
    monkeypatch.setattr(polytope, "_cell_from_labels", recording)

    def in_order(cells):
        return sorted(cells, key=lambda c: c.provenance)
    p = presentation(((4, 1), (2, 2), (1, 4)))
    for read in ("complement_cells", "complement_terms"):
        built.clear()
        result = segre_integral(p, 5)
        assert in_order(built) == [t.simplex for t in result.per_simplex]
        assert all(segre.ORIGIN_LABEL in c.provenance for c in built)
        built.clear()
        getattr(result, read)
        assert in_order(built) == list(result.complement_cells)
        assert built and all(segre.ORIGIN_LABEL not in c.provenance
                             for c in built)
        built.clear()
        assert [t.simplex for t in result.complement_terms] == \
            list(result.complement_cells)
        assert built == []


def test_verify_names_the_residual_mismatch(monkeypatch):
    # an untwisted residual breaks the identity; the detail names the first
    # differing term, as pipeline_equality's does
    p = presentation(((2, 1), (1, 2)))
    monkeypatch.setattr(segre, "tensor_line", lambda c, line: c)
    passed, detail = residual_identity_check(p, segre_integral(p, 5).series)
    assert not passed
    assert detail.startswith("mismatch, first differing term (")
    report = verify(p, 5)
    by_name = {c.name: c for c in report.checks}
    assert not report.ok
    assert (by_name["residual_identity"].passed,
            by_name["residual_identity"].detail) == (passed, detail)


def test_orthant_check_sees_complement_cells_one_degree_low(monkeypatch):
    # every cell's series is truncated at the integral's bound; complement
    # cell series at a lower bound no longer sum to the 1 at the full one
    monkeypatch.setattr(segre.SegreResult, "complement_terms", property(
        lambda self: segre._terms_for(self.complement_cells,
                                      self.series.degree_bound - 1)))
    report = verify(STAIRCASE, 5)
    by_name = {c.name: c for c in report.checks}
    assert not by_name["orthant_normalization"].passed
    assert by_name["orthant_normalization"].detail == \
        "orthant contributions do not sum to 1"


def _record_integrals(monkeypatch):
    calls = []

    def recording(p, degree_bound=None, order_preset="default", ring=None):
        calls.append((p.generators, order_preset, ring is not None))
        return segre_integral(p, degree_bound, order_preset, ring)
    monkeypatch.setattr(segre, "segre_integral", recording)
    return calls


def test_verify_computes_the_base_integral_once_for_every_check(monkeypatch):
    # the residual and blow-up checks take the default integral verify holds
    calls = _record_integrals(monkeypatch)
    p = presentation(((4, 1), (2, 2), (1, 4)))
    report = verify(p, 5)
    assert report.ok
    assert any(c.name.startswith("blowup_invariance") for c in report.checks)
    assert calls == [(p.generators, "default", False),
                     (STAIRCASE.generators, "default", False),
                     (p.generators, "rays_first", True)]


def test_verify_checks_the_unreduced_integral_under_nils(monkeypatch):
    # with a declared nil pair the reduced and unreduced integrals differ;
    # the residual and blow-up identities hold for the unreduced one
    p = presentation(((3, 1, 1), (1, 2, 1), (1, 1, 3)))
    nils = [("X1", "X3")]
    ring = base_ring(3, nil_pairs=nils)
    assert segre_integral(p, 5).series != \
        segre_integral(p, 5, ring=ring).series
    calls = _record_integrals(monkeypatch)
    report = verify(p, 5, ring=ring)
    assert report.ok, [c for c in report.checks if not c.passed]
    names = [c.name for c in report.checks]
    assert "residual_identity" in names
    assert "blowup_invariance_1_2" in names
    assert calls == [(p.generators, "default", False),
                     (((2, 0, 0), (0, 1, 0), (0, 0, 2)), "default", False),
                     (p.generators, "rays_first", True)]


def _record_towers(monkeypatch):
    calls = []

    def recording(p, degree_bound=None, ring=None):
        calls.append(p.generators)
        return segre_tower(p, degree_bound, ring)
    monkeypatch.setattr(segre, "segre_tower", recording)
    return calls


def test_verify_refuses_a_lift_over_the_budget_before_any_check(monkeypatch):
    # at n = 3 and dmax 40 the base series fits the budget, C(43, 3), but
    # the blow-up checks' lift to four variables, C(44, 4), does not
    p = presentation(((1, 2, 3), (3, 2, 1)))
    integrals = _record_integrals(monkeypatch)
    towers = _record_towers(monkeypatch)
    with pytest.raises(TermBudgetError, match="4 variables at degree bound 40"):
        verify(p, 40)
    assert integrals == [] and towers == []
    check_term_budget(3, 40)


def test_the_entries_refuse_a_negative_degree_bound_first(monkeypatch):
    def no_placing(*args, **kwargs):
        raise AssertionError("placing_triangulation ran")

    monkeypatch.setattr(segre, "placing_triangulation", no_placing)
    monkeypatch.setattr(polytope, "placing_triangulation", no_placing)
    for entry in (segre_integral, segre_tower, verify):
        with pytest.raises(MonomialSegreError,
                           match="degree_bound must be nonnegative"):
            entry(STAIRCASE, -1)


def test_the_pipelines_refuse_a_series_over_the_budget_first(monkeypatch):
    # C(3 + 65, 3) > TERM_BUDGET: neither pipeline places a cell or climbs
    # a tower before it refuses
    placed, climbed = [], []
    monkeypatch.setattr(segre, "orthant_triangulation",
                        lambda *a: placed.append(a))
    monkeypatch.setattr(segre, "run_principalize",
                        lambda *a: climbed.append(a))
    p = presentation(((1, 1, 1),))
    for pipeline in (segre_integral, segre_tower):
        with pytest.raises(TermBudgetError,
                           match="3 variables at degree bound 65"):
            pipeline(p, 65)
    assert placed == [] and climbed == []


def test_a_report_diverges_only_when_the_capped_tower_alone_fails():
    passed = segre.CheckResult("residual_identity", True)
    failed = segre.CheckResult("residual_identity", False)
    capped = segre.CheckResult("pipeline_equality", False,
                               "tower divergence: no divisor reached")
    equal = segre.CheckResult("pipeline_equality", True)
    report = segre.VerifyReport
    assert report((equal, passed)).status == "pass"
    assert report((equal, failed)).status == "fail"
    assert report((capped, passed), diverged=True).status == "diverged"
    assert report((capped, failed), diverged=True).status == "fail"
    assert [report((equal, passed)).ok,
            report((capped, passed), diverged=True).ok] == [True, False]


def test_verify_with_nils():
    report = verify(presentation(((1, 0), (0, 1))), 5,
                    ring=base_ring(2, nil_pairs=[("X1", "X2")]))
    assert report.ok
    assert not report.diverged


@pytest.mark.parametrize("seed", range(8))
def test_pipelines_agree_randomized(seed):
    rnd = random.Random(f"unit-{seed}")
    p = random_presentation(rnd)
    bound = default_degree_bound(p.num_vars)
    a = segre_integral(p, bound).series
    b = segre_tower(p, bound).series
    assert a == b, p.generators


# the ideal (X2, X3)^2 over a base label of the shape the CLI gives
# blow-up divisors
GENERATED_BASE_LABEL = presentation(((0, 2, 0), (0, 0, 2), (0, 1, 1)),
                                    labels=("E1", "X2", "X3"))


def check_both_pipelines_take(p):
    """segre_tower and verify take p's labels as segre_integral does."""
    tower = segre_tower(p, 5)
    assert tower.trace.steps
    assert tower.series == segre_integral(p, 5).series
    assert verify(p, 5).ok


def test_a_tower_over_a_generated_base_label_equals_the_integral():
    # a ring stores no names, so E1 is a label as any other: the tower
    # climbs over it and agrees with the integral, and so does verify
    check_both_pipelines_take(GENERATED_BASE_LABEL)
    check_both_pipelines_take(presentation(GENERATED_BASE_LABEL.generators,
                                           labels=("X1", "~X2", "X3")))


def test_a_tower_over_labels_that_are_not_strings_equals_the_integral():
    # labels are read only to find the nil pairs, so they need not be
    # strings, for the tower as for the integral
    check_both_pipelines_take(presentation(GENERATED_BASE_LABEL.generators,
                                           labels=(1, 2, 3)))
    assert base_ring(3, (1, 2, 3), [(1, 3)]) == \
        base_ring(3, nil_pairs=[("X1", "X3")])


@pytest.mark.parametrize("labels", [("a", "b", "c"), ("E", "E1x", "X~")])
def test_a_tower_over_ordinary_labels_equals_the_integral(labels):
    # labels near the CLI's generated shape, but not of it, climb as any
    # others
    p = presentation(GENERATED_BASE_LABEL.generators, labels=labels)
    tower = segre_tower(p, 5)
    assert tower.trace.steps and tower.series == segre_integral(p, 5).series


def test_tower_result_carries_trace():
    result = segre_tower(STAIRCASE, 5)
    assert result.trace is not None
    assert result.pipeline == "tower"
    assert segre_integral(STAIRCASE, 5).pipeline == "integral"


# -- the paper's invariants, on both pipelines --------------------------------
# Each randomized invariant runs on at most 15 `random_presentation` draws, so
# that the three together stay near a second.

INVARIANT_EXAMPLES = 15


def both_pipelines(p):
    return segre_integral(p).series.terms, segre_tower(p).series.terms


def regenerate(p, gens):
    return presentation(tuple(sorted(gens)), num_vars=p.num_vars)


@given(st.integers(0, 10 ** 6), st.sampled_from((2, 3)))
@settings(max_examples=INVARIANT_EXAMPLES, deadline=None)
def test_scaling_the_exponents_scales_each_degree(seed, k):
    # s(k G) is s(G) with every X_i replaced by k X_i
    p = random_presentation(random.Random(seed))
    base, _ = both_pipelines(p)
    scaled = regenerate(p, [tuple(k * a for a in g) for g in p.generators])
    want = {e: k ** sum(e) * c for e, c in base.items()}
    for got in both_pipelines(scaled):
        assert got == want, p.generators


@given(st.integers(0, 10 ** 6))
@example(seed=55207)  # permuted, it is 0,0,3;0,2,4;1,4,0;4,2,1, 27 levels deep
@settings(max_examples=INVARIANT_EXAMPLES, deadline=None)
def test_permuting_the_variables_permutes_the_exponents(seed):
    rnd = random.Random(seed)
    p = random_presentation(rnd)
    perm = list(range(p.num_vars))
    rnd.shuffle(perm)
    base, _ = both_pipelines(p)
    permuted = regenerate(p, [tuple(g[m] for m in perm) for g in p.generators])
    want = {tuple(e[m] for m in perm): c for e, c in base.items()}
    for got in both_pipelines(permuted):
        assert got == want, (p.generators, perm)


@given(st.integers(0, 10 ** 6))
@settings(max_examples=INVARIANT_EXAMPLES, deadline=None)
def test_a_dominated_generator_changes_nothing(seed):
    rnd = random.Random(seed)
    p = random_presentation(rnd)
    g = rnd.choice(p.generators)
    h = tuple(a + rnd.randint(0, 2) for a in g)
    h = h if h != g else tuple(a + 1 for a in g)
    base, _ = both_pipelines(p)
    bigger = regenerate(p, set(p.generators) | {h})
    for got in both_pipelines(bigger):
        assert got == base, (p.generators, h)


@pytest.mark.parametrize("gens, extra", [
    (((4, 0), (0, 4)), (2, 2)),
    (((6, 0), (0, 3)), (2, 2)),
    (((3, 0, 0), (0, 3, 0), (0, 0, 3)), (1, 1, 1)),
])
def test_a_generator_in_the_integral_closure_changes_nothing(gens, extra):
    # extra lies on the Newton polytope's boundary face, so the two ideals
    # have the same integral closure and the same Segre class
    base, tower = both_pipelines(presentation(gens))
    assert base == tower
    for got in both_pipelines(presentation(gens + (extra,))):
        assert got == base
