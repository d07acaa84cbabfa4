from fractions import Fraction
from math import comb

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from monomial_segre.errors import DimensionMismatchError, MonomialSegreError
from monomial_segre.series import (TERM_BUDGET, TruncatedSeries,
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


def test_arithmetic_with_a_non_series_is_a_type_error():
    # the library has no scalar + or -, so an int is an unsupported operand
    s = TruncatedSeries.one(2, 3)
    for op in (lambda: s + 1, lambda: 1 + s, lambda: s - 1, lambda: 1 - s):
        with pytest.raises(TypeError):
            op()


def test_arithmetic_against_sympy():
    X1, X2 = symbols(2)
    expr = (1 + 2 * X1) * (3 - X2) - X1 * X2
    a = TruncatedSeries(2, 4, {(0, 0): 1, (1, 0): 2})
    b = TruncatedSeries(2, 4, {(0, 0): 3, (0, 1): -1})
    c = TruncatedSeries(2, 4, {(1, 1): 1})
    assert (a * b - c).terms == expand_terms(expr, (X1, X2), 4)
    # a one-term factor, on either side, shifts the other's terms
    shifted = expand_terms(X1 * X2 * (1 + 2 * X1), (X1, X2), 4)
    assert (c * a).terms == (a * c).terms == shifted


def test_mul_truncates_at_bound():
    x = variable(0, 1, 3)
    assert (x * x * x * x).is_zero()
    assert (x * x * x).terms == {(3,): Fraction(1)}


def test_reciprocal_matches_sympy():
    X1, X2, X3 = symbols(3)
    got = reciprocal_one_plus((1, 2, 3), 5)
    want = expand_terms(1 / (1 + X1 + 2 * X2 + 3 * X3), (X1, X2, X3), 5)
    assert got.terms == want


def test_reciprocal_needs_integer_coefficients():
    with pytest.raises(MonomialSegreError):
        reciprocal_one_plus((Fraction(1, 2),), 3)


coeff = st.integers(min_value=-3, max_value=3)


@given(st.lists(coeff, min_size=1, max_size=3), st.integers(1, 5))
@settings(max_examples=50, deadline=None)
def test_reciprocal_times_original_is_one(coeffs, bound):
    v = tuple(coeffs)
    inv = reciprocal_one_plus(v, bound)
    assert inv * form_series(1, v, bound) == TruncatedSeries.one(len(v), bound)


@st.composite
def series_and_forms(draw):
    """A random series in 1-4 variables at bound 0-6, and the coefficient
    vector of a form L, to divide by 1 + L."""
    n = draw(st.integers(1, 4))
    bound = draw(st.integers(0, 6))
    exponents = st.tuples(*[st.integers(0, 3)] * n)
    terms = draw(st.dictionaries(exponents, coeff, max_size=8))
    coeffs = draw(st.lists(coeff, min_size=n, max_size=n))
    return TruncatedSeries(n, bound, terms), tuple(coeffs)


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
    degree (some past the bound, and the lowest often above degree 0), and
    the coefficient vectors of one to three forms L, to divide by every
    1 + L, with zero coefficients allowed, the all-zero vector of the origin
    vertex among them."""
    n = draw(st.integers(1, 6))
    bound = draw(st.integers(0, 8))
    exponents = st.tuples(*[st.integers(0, bound // n + 1)] * n)
    terms = draw(st.dictionaries(exponents, coeff, max_size=6))
    form = st.just((0,) * n) | st.tuples(*[coeff] * n)
    forms = draw(st.lists(form, min_size=1, max_size=3))
    return TruncatedSeries(n, bound, terms), forms


@given(sparse_series_and_forms())
@settings(max_examples=200, deadline=None)
def test_divide_one_plus_matches_the_degree_recurrence(case):
    s, forms = case
    got = divide_one_plus(s, *forms)
    want = s
    for f in forms:
        want = divide_by_degree(want, f)
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
        reciprocal_one_plus((1, 2, 3), 65)


@given(series_and_forms(), st.integers(0, 2))
@settings(max_examples=30, deadline=None)
def test_divide_one_plus_rejects_bad_forms(case, position):
    s, v = case
    good = [v] * position
    with pytest.raises(DimensionMismatchError):
        divide_one_plus(s, *good, v + (1,), v)
    with pytest.raises(MonomialSegreError):
        divide_one_plus(s, *good, v[:-1] + (Fraction(1, 2),), v)


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
        c = TruncatedSeries.one(2, bound) - reciprocal_one_plus(d, bound)
        got = tensor_line(c, l)
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
    c = TruncatedSeries.one(2, bound) - reciprocal_one_plus(tuple(d), bound)
    lhs = tensor_line(tensor_line(c, tuple(l1)), tuple(l2))
    rhs = tensor_line(c, tuple(a + b for a, b in zip(l1, l2)))
    assert lhs == rhs


def test_tensor_line_rejects_wrong_width():
    c = TruncatedSeries.one(2, 3)
    for v in ((1,), (1, 0, 0)):
        with pytest.raises(DimensionMismatchError):
            tensor_line(c, v)


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
