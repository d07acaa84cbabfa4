from fractions import Fraction
from math import comb

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from monomial_segre.errors import DimensionMismatchError, MonomialSegreError
from monomial_segre.series import (TERM_BUDGET, LinearForm, TruncatedSeries,
                                   check_term_budget, divide_one_plus,
                                   graded_piece, reciprocal_one_plus,
                                   tensor_line)

from oracles import (divide_by_degree, expand_terms, form_series,
                     reciprocal_by_geometric_series, symbols, variable)


def test_constructor_drops_zero_and_overweight_terms():
    s = TruncatedSeries(2, 3, {(1, 1): 5, (4, 0): 7, (0, 2): 0})
    assert s.terms == {(1, 1): Fraction(5)}


def test_constructor_rejects_negative_exponent_entries():
    with pytest.raises(MonomialSegreError):
        TruncatedSeries(2, 3, {(-1, 2): 1})
    with pytest.raises(MonomialSegreError):
        TruncatedSeries(2, 3, {(0, -1): 0})


def test_dimension_mismatch_raises():
    with pytest.raises(DimensionMismatchError):
        TruncatedSeries(2, 3, {(1, 1, 1): 1})
    a = TruncatedSeries.one(2, 3)
    b = TruncatedSeries.one(3, 3)
    with pytest.raises(DimensionMismatchError):
        a + b


def test_arithmetic_against_sympy():
    X1, X2 = symbols(2)
    expr = (1 + 2 * X1) * (3 - X2) - X1 * X2
    a = TruncatedSeries(2, 4, {(0, 0): 1, (1, 0): 2})
    b = TruncatedSeries(2, 4, {(0, 0): 3, (0, 1): -1})
    c = TruncatedSeries(2, 4, {(1, 1): 1})
    assert (a * b - c).terms == expand_terms(expr, (X1, X2), 4)


def test_mul_truncates_at_bound():
    x = variable(0, 1, 3)
    assert (x * x * x * x).is_zero()
    assert (x * x * x).terms == {(3,): Fraction(1)}


def test_reciprocal_matches_sympy():
    X1, X2, X3 = symbols(3)
    got = reciprocal_one_plus(LinearForm.of(1, (1, 2, 3)), 5)
    want = expand_terms(1 / (1 + X1 + 2 * X2 + 3 * X3), (X1, X2, X3), 5)
    assert got.terms == want


def test_reciprocal_needs_unit_constant():
    with pytest.raises(MonomialSegreError):
        reciprocal_one_plus(LinearForm.of(2, (1,)), 3)


coeff = st.integers(min_value=-3, max_value=3)


@given(st.lists(coeff, min_size=1, max_size=3), st.integers(1, 5))
@settings(max_examples=50, deadline=None)
def test_reciprocal_times_original_is_one(coeffs, bound):
    f = LinearForm.of(1, coeffs)
    inv = reciprocal_one_plus(f, bound)
    assert inv * form_series(f, bound) == TruncatedSeries.one(len(coeffs), bound)


@st.composite
def series_and_forms(draw):
    """A random series in 1-4 variables at bound 0-6, and a form 1 + L."""
    n = draw(st.integers(1, 4))
    bound = draw(st.integers(0, 6))
    exponents = st.tuples(*[st.integers(0, 3)] * n)
    terms = draw(st.dictionaries(exponents, coeff, max_size=8))
    coeffs = draw(st.lists(coeff, min_size=n, max_size=n))
    return TruncatedSeries(n, bound, terms), LinearForm.of(1, coeffs)


@given(series_and_forms())
@settings(max_examples=150, deadline=None)
def test_divide_one_plus_matches_the_geometric_reciprocal(case):
    s, f = case
    got = divide_one_plus(s, f)
    assert got.degree_bound == s.degree_bound
    assert got.is_integral()
    assert got == s * reciprocal_by_geometric_series(f, s.degree_bound)


@st.composite
def sparse_series_and_forms(draw):
    """A sparse series in 1-6 variables at bound 0-8, with terms of mixed
    degree (some past the bound), and a form 1 + L with zero coefficients
    allowed, the all-zero form of the origin vertex among them."""
    n = draw(st.integers(1, 6))
    bound = draw(st.integers(0, 8))
    exponents = st.tuples(*[st.integers(0, bound // n + 1)] * n)
    terms = draw(st.dictionaries(exponents, coeff, max_size=6))
    coeffs = draw(st.just((0,) * n) | st.tuples(*[coeff] * n))
    return TruncatedSeries(n, bound, terms), LinearForm.of(1, coeffs)


@given(sparse_series_and_forms())
@settings(max_examples=200, deadline=None)
def test_divide_one_plus_matches_the_degree_recurrence(case):
    s, f = case
    got = divide_one_plus(s, f)
    want = divide_by_degree(s, f)
    assert (got.num_vars, got.degree_bound) == (s.num_vars, s.degree_bound)
    assert got.terms == want.terms


def test_term_budget_bounds_the_dense_layout():
    # n = 7 at its default bound, and its blow-up checks in 8 variables
    check_term_budget(7, 10)
    check_term_budget(8, 10)
    assert comb(3 + 65, 3) > TERM_BUDGET
    with pytest.raises(MonomialSegreError):
        check_term_budget(3, 65)
    with pytest.raises(MonomialSegreError):
        reciprocal_one_plus(LinearForm.of(1, (1, 2, 3)), 65)


@given(series_and_forms(), st.integers(-3, 3).filter(lambda c: c != 1))
@settings(max_examples=30, deadline=None)
def test_divide_one_plus_rejects_bad_forms(case, constant):
    s, f = case
    with pytest.raises(MonomialSegreError):
        divide_one_plus(s, LinearForm(constant, f.coefficients))
    with pytest.raises(DimensionMismatchError):
        divide_one_plus(s, LinearForm(1, f.coefficients + (1,)))


@given(st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                       coeff, max_size=6),
       st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                       coeff, max_size=6),
       st.integers(0, 4), st.integers(0, 4))
@settings(max_examples=60, deadline=None)
def test_truncation_commutes_with_product(ta, tb, b1, b2):
    lo = min(b1, b2)
    a = TruncatedSeries(2, max(b1, b2), ta)
    b = TruncatedSeries(2, max(b1, b2), tb)

    def truncate(s):
        return TruncatedSeries(s.num_vars, lo, s.terms)
    assert truncate(a * b) == truncate(a) * truncate(b)


def test_graded_pieces_sum_back():
    s = TruncatedSeries(2, 4, {(0, 0): 1, (1, 0): 2, (1, 1): -3, (0, 4): 5})
    acc = TruncatedSeries.zero(2, 4)
    for p in range(5):
        acc = acc + graded_piece(s, p)
    assert acc == s


def test_tensor_line_divisor_closed_form():
    # for a divisor class D/(1+D), twisting by a line L gives D/(1+D+L)
    X1, X2 = symbols(2)
    bound = 6
    for d, l in [((2, 0), (0, 1)), ((1, 1), (2, 1)), ((0, 3), (1, 0))]:
        dd = LinearForm.of(1, d)
        c = TruncatedSeries.one(2, bound) - reciprocal_one_plus(dd, bound)
        got = tensor_line(c, LinearForm.of(0, l))
        de = d[0] * X1 + d[1] * X2
        le = l[0] * X1 + l[1] * X2
        want = expand_terms(de / (1 + de + le), (X1, X2), bound)
        assert got.terms == want


@given(st.lists(st.integers(0, 4), min_size=2, max_size=2),
       st.lists(st.integers(0, 4), min_size=2, max_size=2),
       st.lists(st.integers(0, 4), min_size=2, max_size=2))
@settings(max_examples=50, deadline=None)
def test_tensor_line_composes(d, l1, l2):
    # (c (x) O(L1)) (x) O(L2) = c (x) O(L1 + L2)
    bound = 5
    c = TruncatedSeries.one(2, bound) - \
        reciprocal_one_plus(LinearForm.of(1, d), bound)
    lhs = tensor_line(tensor_line(c, LinearForm.of(0, l1)), LinearForm.of(0, l2))
    rhs = tensor_line(c, LinearForm.of(0, [a + b for a, b in zip(l1, l2)]))
    assert lhs == rhs


def test_tensor_line_rejects_constants():
    c = TruncatedSeries.one(2, 3)
    with pytest.raises(MonomialSegreError):
        tensor_line(c, LinearForm.of(1, (1, 0)))


def test_equality_compares_the_degree_bound():
    # the same terms at two bounds are two truncations, not one
    terms = {(1, 0): 2, (1, 1): -1}
    a, b = TruncatedSeries(2, 3, terms), TruncatedSeries(2, 4, terms)
    assert a != b
    assert a == TruncatedSeries(2, 3, terms)
    assert hash(a) == hash(TruncatedSeries(2, 3, terms))
    assert len({a, b}) == 2


def test_sorted_terms_graded_lex():
    s = TruncatedSeries(2, 4, {(0, 2): 1, (2, 0): 1, (1, 0): 1, (1, 1): 1})
    assert [e for e, _ in s.sorted_terms()] == [(1, 0), (0, 2), (1, 1), (2, 0)]


def test_render_readable():
    s = TruncatedSeries(2, 4, {(1, 1): 6, (2, 1): -1})
    assert s.render() == "6*X1*X2 - X1^2*X2"
    assert s.render(labels=("a", "b")) == "6*a*b - a^2*b"
    assert TruncatedSeries.zero(2, 1).render() == "0"


def test_is_integral():
    assert TruncatedSeries(1, 2, {(1,): 3}).is_integral()
    with pytest.raises(MonomialSegreError):
        TruncatedSeries(1, 2, {(1,): Fraction(1, 2)})
    # the trusted constructor does not check, so is_integral must
    assert not TruncatedSeries._raw(1, 2, {(1,): Fraction(1, 2)}).is_integral()
