import random
from fractions import Fraction

import pytest

from monomial_segre.chow import base_ring
from monomial_segre.lattice import presentation
from monomial_segre.segre import (blowup_invariance_check, default_degree_bound,
                                  residual_identity_check, segre_integral,
                                  segre_tower, simplex_contribution, verify)
from monomial_segre.polytope import HalfSimplex
from monomial_segre.series import TruncatedSeries

from oracles import expand_terms, random_presentation, symbols

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


def test_degenerate_simplex_contributes_zero():
    s = HalfSimplex(2, ((0, 0), (1, 1), (2, 2)), frozenset())
    assert simplex_contribution(s, 4).is_zero()


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
    assert residual_identity_check(presentation(((2, 1), (1, 2)))).status == "equal"
    assert residual_identity_check(STAIRCASE).status == "skipped"


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
    report = verify(STAIRCASE, 5, include_blowup_checks=False)
    by_name = {c.name: c for c in report.checks}
    assert by_name["support_property"].passed
    assert by_name["orthant_normalization"].passed


def test_empty_scheme_under_declared_nils_is_zero():
    ring = base_ring(2, nil_pairs=[("X1", "X2")])
    p = presentation(((1, 0), (0, 1)))
    assert segre_integral(p, 5, ring=ring).series.is_zero()
    assert segre_tower(p, 5, ring=ring).series.is_zero()


def test_blowup_invariance_staircase():
    report = blowup_invariance_check(STAIRCASE, 0, 1, 6)
    assert report.ok, report.failures
    assert report.classification_sizes == (1, 1, 2, 1)
    assert report.lifted_total == report.base_total


def test_verify_aggregates_all_checks():
    report = verify(STAIRCASE, 6)
    assert report.ok
    names = [c.name for c in report.checks]
    for expected in ("pipeline_equality", "residual_identity",
                     "integer_coefficients", "orthant_normalization",
                     "order_independence", "support_property",
                     "blowup_invariance_1_2"):
        assert expected in names


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
