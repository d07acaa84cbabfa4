import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from monomial_segre import segre
from monomial_segre.chow import base_ring
from monomial_segre.lattice import presentation
from monomial_segre.segre import (blowup_invariance_check, default_degree_bound,
                                  orthant_triangulation,
                                  residual_identity_check, segre_integral,
                                  segre_tower, simplex_contribution, verify)
from monomial_segre.polytope import (HalfSimplex, complement_configuration,
                                     lift_to_H, placing_triangulation)
from monomial_segre.principalize import admissible_pairs
from monomial_segre.series import TruncatedSeries

from oracles import (expand_terms, random_presentation,
                     simplex_contribution_by_products, symbols)

STAIRCASE = presentation(((3, 0), (1, 1), (0, 3)))


def test_default_degree_bound():
    assert default_degree_bound(2) == 5
    assert default_degree_bound(3) == 6


def test_column_simplex_contribution():
    # unbounded in direction 3 only, height volume 2
    s = HalfSimplex(3, ((0, 0, 1), (1, 0, 2), (0, 2, 3)), frozenset({2}))
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
    s = HalfSimplex(2, ((0, 0), (1, 1), (2, 2)), frozenset())
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


def test_residual_identity_golden_and_skip():
    p = presentation(((2, 1), (1, 2)))
    assert residual_identity_check(
        p, segre_integral(p).series).status == "equal"
    assert residual_identity_check(
        STAIRCASE, segre_integral(STAIRCASE).series).status == "skipped"


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
    report = blowup_invariance_check(STAIRCASE, 0, 1,
                                     segre_integral(STAIRCASE, 6).series)
    assert report.ok, report.failures
    assert report.classification_sizes == (1, 1, 2, 1)


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
                report = blowup_invariance_check(p, i, j, integral)
                assert report.ok, (p.generators, i, j, report.failures)


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


def test_verify_names_the_residual_mismatch(monkeypatch):
    # an untwisted residual breaks the identity; the detail names the first
    # differing term, as pipeline_equality's does
    p = presentation(((2, 1), (1, 2)))
    monkeypatch.setattr(segre, "tensor_line", lambda c, line: c)
    want = residual_identity_check(p, segre_integral(p, 5).series)
    assert want.status == "mismatch" and want.first_difference is not None
    report = verify(p, 5)
    by_name = {c.name: c for c in report.checks}
    assert not report.ok
    assert not by_name["residual_identity"].passed
    assert by_name["residual_identity"].detail == \
        f"mismatch, first differing term {want.first_difference}"


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
    report = verify(p, 5, nil_pairs=nils)
    assert report.ok, [c for c in report.checks if not c.passed]
    names = [c.name for c in report.checks]
    assert "residual_identity" in names
    assert "blowup_invariance_1_2" in names
    assert calls == [(p.generators, "default", False),
                     (((2, 0, 0), (0, 1, 0), (0, 0, 2)), "default", False),
                     (p.generators, "rays_first", True)]


def test_verify_with_nils():
    report = verify(presentation(((1, 0), (0, 1))), 5,
                    nil_pairs=[("X1", "X2")])
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
@example(seed=55207)  # the permuted tower needs the fallback center rule
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
