from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monomial_segre.chow import (ChowClass, base_ring, blow_up,
                                 pullback_class, pullback_generators,
                                 pushforward, reduce_nils, scheme_is_divisor,
                                 scheme_is_empty)
from monomial_segre.errors import (EmptyCenterError, LevelMismatchError,
                                   MonomialSegreError)
from monomial_segre.lattice import MonomialPresentation, presentation
from monomial_segre.series import LinearForm, TruncatedSeries, reciprocal_one_plus

from oracles import expand_terms, pushforward_by_normal_form, symbols

BOUND = 6


def var(ring, label, bound=BOUND):
    return TruncatedSeries.variable(ring.index(label), ring.num_vars, bound)


def test_base_ring_defaults():
    r = base_ring(3)
    assert r.variables == ("X1", "X2", "X3")
    assert not any(r.stratum_is_empty(pair)
                   for pair in combinations(r.variables, 2))
    assert r.depth == 0


def test_base_ring_closes_declared_pairs_upward():
    r = base_ring(3, nil_pairs=[("X1", "X2")])
    assert r.stratum_is_empty({"X1", "X2"})
    assert r.stratum_is_empty({"X1", "X2", "X3"})
    assert not r.stratum_is_empty({"X1", "X3"})


def test_stratum_size_cap():
    r = base_ring(2)
    assert r.stratum_is_empty({"X1", "X2", "X1"}) is False
    # more labels than the ambient dimension: always empty
    r3 = blow_up(r, "X1", "X2").upper
    assert r3.stratum_is_empty({"E1", "~X1", "~X2"})


def test_blow_up_labels_and_nils():
    r = base_ring(2)
    step = blow_up(r, "X1", "X2")
    assert step.upper.variables == ("E1", "~X1", "~X2")
    assert [pair for pair in combinations(step.upper.variables, 2)
            if step.upper.stratum_is_empty(pair)] == [("~X1", "~X2")]
    assert step.upper.depth == 1


def test_blow_up_rejects_empty_center():
    r = base_ring(2, nil_pairs=[("X1", "X2")])
    with pytest.raises(EmptyCenterError):
        blow_up(r, "X1", "X2")
    with pytest.raises(MonomialSegreError):
        blow_up(base_ring(2), "X1", "X1")


def test_exceptional_pair_tracking_uses_lower_triples():
    # in a threefold, E over X1 cap X2 meets the transform of X3 exactly
    # when X1 cap X2 cap X3 is nonempty
    r = base_ring(3)
    up = blow_up(r, "X1", "X2").upper
    assert not up.stratum_is_empty({"E1", "X3"})
    r_nil = base_ring(3, nil_pairs=[("X1", "X3")])
    up_nil = blow_up(r_nil, "X1", "X2").upper
    assert up_nil.stratum_is_empty({"E1", "X3"})


def test_second_level_triple_emptiness():
    # after two blow-ups sharing divisor X1, three divisors can meet
    # pairwise with no common point; pairwise bookkeeping alone misses this
    r = base_ring(3)
    s1 = blow_up(r, "X1", "X2")
    s2 = blow_up(s1.upper, "E1", "~X1")
    up = s2.upper
    assert not up.stratum_is_empty({"E2", "~E1"})
    assert not up.stratum_is_empty({"E2", "~~X1"})
    assert not up.stratum_is_empty({"~E1", "X3"})
    # E2 meets ~E1 and ~~X1 separately, but the second center was
    # exactly E1 cap ~X1, so the triple is empty upstairs
    assert up.stratum_is_empty({"E2", "~E1", "~~X1"})


def test_pullback_generators_total_transform():
    p = presentation(((3, 0), (1, 1), (0, 3)))
    step = blow_up(base_ring(2), "X1", "X2")
    lifted = pullback_generators(step, p)
    assert lifted.generators == ((3, 3, 0), (2, 1, 1), (3, 0, 3))
    assert lifted.variable_labels == ("E1", "~X1", "~X2")


def test_pullback_then_pushforward_is_identity():
    step = blow_up(base_ring(2), "X1", "X2")
    s = TruncatedSeries(2, BOUND, {(1, 0): 2, (1, 1): -3, (0, 2): 1})
    c = ChowClass(step.lower, s)
    assert pushforward(step, pullback_class(step, c)).series == s


@given(st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2)),
    st.integers(-4, 4), max_size=5))
@settings(max_examples=40, deadline=None)
def test_pullback_pushforward_identity_randomized(terms):
    step = blow_up(base_ring(3), "X2", "X3")
    s = TruncatedSeries(3, BOUND, terms)
    c = ChowClass(step.lower, s)
    assert pushforward(step, pullback_class(step, c)).series == s


@given(st.dictionaries(st.tuples(st.integers(0, 2), st.integers(0, 2)),
                       st.integers(-3, 3), max_size=4),
       st.dictionaries(st.tuples(st.integers(0, 2), st.integers(0, 2),
                                 st.integers(0, 2)),
                       st.integers(-3, 3), max_size=4))
@settings(max_examples=40, deadline=None)
def test_projection_formula(base_terms, upper_terms):
    step = blow_up(base_ring(2), "X1", "X2")
    beta = TruncatedSeries(2, BOUND, base_terms)
    c = ChowClass(step.upper, TruncatedSeries(3, BOUND, upper_terms))
    lhs = pushforward(
        step, ChowClass(step.upper,
                        pullback_class(step, ChowClass(step.lower, beta)).series
                        * c.series)).series
    rhs = beta * pushforward(step, c).series
    assert lhs == rhs


# -- the five push-forward unit identities -----------------------------------


def test_pushforward_E_times_X2():
    step = blow_up(base_ring(3), "X1", "X2")
    up = step.upper
    cls = ChowClass(up, var(up, "E1") * var(up, "~X2"))
    r = step.lower
    assert pushforward(step, cls).series == \
        (var(r, "X1") * var(r, "X2"))


def test_pushforward_X1_times_X2():
    step = blow_up(base_ring(3), "X1", "X2")
    up = step.upper
    cls = ChowClass(up, var(up, "~X1") * var(up, "~X2"))
    assert pushforward(step, cls).series.is_zero()


def test_pushforward_E_times_X3():
    step = blow_up(base_ring(3), "X1", "X2")
    up = step.upper
    cls = ChowClass(up, var(up, "E1") * var(up, "X3"))
    assert pushforward(step, cls).series.is_zero()


def test_pushforward_X1_times_X3():
    step = blow_up(base_ring(3), "X1", "X2")
    up = step.upper
    r = step.lower
    cls = ChowClass(up, var(up, "~X1") * var(up, "X3"))
    assert pushforward(step, cls).series == \
        (var(r, "X1") * var(r, "X3"))


def test_pushforward_exceptional_segre():
    # E/(1+E) downstairs is X1 X2 / ((1+X1)(1+X2))
    step = blow_up(base_ring(2), "X1", "X2")
    up = step.upper
    e = LinearForm.of(1, (1, 0, 0))
    ecls = TruncatedSeries.one(3, BOUND) - reciprocal_one_plus(e, BOUND)
    got = pushforward(step, ChowClass(up, ecls)).series
    X1, X2 = symbols(2)
    want = expand_terms(X1 * X2 / ((1 + X1) * (1 + X2)), (X1, X2), BOUND)
    assert got.terms == want


def test_pushforward_rejects_wrong_level():
    step = blow_up(base_ring(2), "X1", "X2")
    with pytest.raises(LevelMismatchError):
        pushforward(step, ChowClass(step.lower, TruncatedSeries.one(2, BOUND)))


@st.composite
def upper_classes(draw):
    """(n, i, j, terms): a class on the blow-up of X_i cap X_j over an
    n-variable base, with powers of E up to 6."""
    n = draw(st.sampled_from([2, 3]))
    i, j = draw(st.sampled_from(list(combinations(range(n), 2))))
    exponents = st.tuples(st.integers(0, 6), *[st.integers(0, 2)] * n)
    return n, i, j, draw(st.dictionaries(exponents, st.integers(-4, 4),
                                         max_size=8))


@given(upper_classes())
@settings(max_examples=80, deadline=None)
def test_pushforward_closed_form_matches_normal_form(case):
    n, i, j, terms = case
    r = base_ring(n)
    step = blow_up(r, r.variables[i], r.variables[j])
    c = ChowClass(step.upper, TruncatedSeries(n + 1, BOUND, terms))
    assert pushforward(step, c).series.terms == \
        pushforward_by_normal_form(c.series.terms, i, j)


# -- nil reduction and scheme predicates -------------------------------------


def test_reduce_nils_drops_empty_supports():
    r = base_ring(2, nil_pairs=[("X1", "X2")])
    s = TruncatedSeries(2, 4, {(1, 1): 5, (2, 0): 1, (0, 1): 2})
    assert reduce_nils(r, s).terms == {(2, 0): Fraction(1), (0, 1): Fraction(2)}


def test_reduce_nils_drops_deep_supports():
    # support wider than the ambient dimension is an empty stratum
    step = blow_up(base_ring(2), "X1", "X2")
    s = TruncatedSeries(3, 4, {(1, 1, 1): 1, (2, 1, 0): 3})
    out = reduce_nils(step.upper, s)
    assert out.terms == {(2, 1, 0): Fraction(3)}


def test_scheme_is_empty_basic():
    r = base_ring(2)
    assert not scheme_is_empty(r, presentation(((1, 0), (0, 1))))
    r_nil = base_ring(2, nil_pairs=[("X1", "X2")])
    assert scheme_is_empty(r_nil, presentation(((1, 0), (0, 1))))
    assert scheme_is_empty(r, presentation(((0, 0),)))  # unit ideal


def test_scheme_is_divisor():
    r = base_ring(2)
    assert scheme_is_divisor(r, presentation(((2, 1),))) == (2, 1)
    assert scheme_is_divisor(r, presentation(((1, 0), (0, 1)))) is None
    r_nil = base_ring(2, nil_pairs=[("X1", "X2")])
    assert scheme_is_divisor(
        r_nil, presentation(((2, 1), (1, 2)))) == (1, 1)


def test_scheme_predicates_check_labels():
    r = base_ring(2)
    p = MonomialPresentation(2, ((1, 0),), ("A", "B"))
    with pytest.raises(LevelMismatchError):
        scheme_is_empty(r, p)
