from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monomial_segre.chow import (ChowClass, base_ring, blow_up,
                                 pullback_generators, pushforward, reduce_nils,
                                 scheme_is_divisor, scheme_is_empty)
from monomial_segre.errors import (EmptyCenterError, LevelMismatchError,
                                   MonomialSegreError)
from monomial_segre.lattice import MonomialPresentation, presentation
from monomial_segre.principalize import ring_edges
from monomial_segre.segre import _divisor_segre_reduced
from monomial_segre.series import LinearForm, TruncatedSeries, reciprocal_one_plus

from oracles import (expand_terms, pullback, pushforward_by_normal_form,
                     pushforward_by_substitution,
                     scheme_is_empty_by_enumeration,
                     stratum_is_empty_by_recursion, symbols, variable)

BOUND = 6


def var(ring, label, bound=BOUND):
    return variable(ring.index(label), ring.num_vars, bound)


def pulled_back(step, s):
    """The pull-back of the series s on the lower ring, as a class upstairs."""
    pi, pj = step.center_positions()
    return ChowClass(step.upper, TruncatedSeries(
        step.upper.num_vars, s.degree_bound, pullback(s.terms, pi, pj)))


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


def test_exceptional_label_may_repeat_a_base_label():
    # the new E1 is not the base divisor E1, whose transform is ~E1
    step = blow_up(base_ring(2, labels=("E1", "X2")), "E1", "X2")
    assert step.upper.variables == ("E1", "~E1", "~X2")
    assert sorted(map(sorted, step.upper.facets)) == \
        [["E1", "~E1"], ["E1", "~X2"]]


def test_pullback_generators_total_transform():
    p = presentation(((3, 0), (1, 1), (0, 3)))
    step = blow_up(base_ring(2), "X1", "X2")
    lifted = pullback_generators(step, p)
    assert lifted.generators == ((3, 3, 0), (2, 1, 1), (3, 0, 3))
    assert lifted.variable_labels == ("E1", "~X1", "~X2")


def test_pullback_then_pushforward_is_identity():
    step = blow_up(base_ring(2), "X1", "X2")
    s = TruncatedSeries(2, BOUND, {(1, 0): 2, (1, 1): -3, (0, 2): 1})
    assert pushforward(step, pulled_back(step, s)).series == s


@given(st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2)),
    st.integers(-4, 4), max_size=5))
@settings(max_examples=40, deadline=None)
def test_pullback_pushforward_identity_randomized(terms):
    step = blow_up(base_ring(3), "X2", "X3")
    s = TruncatedSeries(3, BOUND, terms)
    assert pushforward(step, pulled_back(step, s)).series == s


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
                        pulled_back(step, beta).series * c.series)).series
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


# -- the facet model against the recursive and brute-force rules ------------


@st.composite
def towers(draw):
    """(base, nils, steps): a base ring in 2-4 variables with random nil
    pairs nils, and up to six blow-ups above it, each at a center the
    recursive oracle calls nonempty."""
    n = draw(st.integers(2, 4))
    pairs = list(combinations(base_ring(n).variables, 2))
    nils = draw(st.lists(st.sampled_from(pairs), unique=True))
    base = base_ring(n, nil_pairs=nils)
    ring, steps = base, []
    for _ in range(draw(st.integers(0, 6))):
        centers = [c for c in combinations(ring.variables, 2)
                   if not stratum_is_empty_by_recursion(n, nils, steps, c)]
        if not centers:
            break
        steps.append(blow_up(ring, *draw(st.sampled_from(centers))))
        ring = steps[-1].upper
    return base, nils, steps


def sparse_generators(draw, num_vars):
    """One to four distinct generators, each with at most three variables
    (with multiplicity) in its support; the zero generator may occur."""
    positions = st.lists(st.integers(0, num_vars - 1), max_size=3)
    drawn = draw(st.lists(positions, min_size=1, max_size=4))
    gens = {tuple(pos.count(k) for k in range(num_vars)) for pos in drawn}
    return tuple(sorted(gens))


@given(towers(), st.data())
@settings(max_examples=60, deadline=None)
def test_facets_match_the_recursive_and_enumeration_oracles(tower, data):
    base, nils, steps = tower
    n = base.num_vars
    for level, r in enumerate([base] + [s.upper for s in steps]):
        def oracle(labels, level=level):
            return stratum_is_empty_by_recursion(n, nils, steps[:level],
                                                 labels)
        strata = [frozenset(c) for k in range(n + 2)
                  for c in combinations(r.variables, k)]
        for s in strata:
            assert r.stratum_is_empty(s) == oracle(s), (level, sorted(s))
            if level == 0:
                assert r.stratum_is_empty(s) == \
                    (not any(s <= f for f in r.facets))
            if len(s) == 2:
                assert (s in ring_edges(r)) == (not r.stratum_is_empty(s))
        gens = sparse_generators(data.draw, r.num_vars)
        p = MonomialPresentation(r.num_vars, gens, r.variables)
        assert scheme_is_empty(r, p) == scheme_is_empty_by_enumeration(
            r.variables, n, gens, oracle), (level, gens)


@given(towers(), st.data())
@settings(max_examples=40, deadline=None)
def test_top_expansion_matches_the_filtered_dense_one(tower, data):
    base, nils, steps = tower
    top = steps[-1].upper if steps else base
    d = data.draw(st.lists(st.integers(0, 3), min_size=top.num_vars,
                           max_size=top.num_vars))
    bound = 4
    dense = TruncatedSeries.one(top.num_vars, bound) - \
        reciprocal_one_plus(LinearForm.of(1, d), bound)
    want = {e: c for e, c in dense.terms.items()
            if not stratum_is_empty_by_recursion(
                base.num_vars, nils, steps,
                {top.variables[k] for k, a in enumerate(e) if a})}
    assert _divisor_segre_reduced(top, d, bound).terms == want


def test_pushforward_leaves_out_deep_terms_off_the_star():
    # with X1 cap X3 empty, ~X2^2 X3 lies on the nonempty stratum ~X2 cap X3
    # upstairs; its E^2 part -X1 X2 X3 would lie on an empty one downstairs
    step = blow_up(base_ring(3, nil_pairs=[("X1", "X3")]), "X1", "X2")
    c = ChowClass(step.upper, TruncatedSeries(4, BOUND, {(0, 0, 2, 1): 1}))
    assert pushforward_by_substitution(c.series.terms, 0, 1) == \
        {(0, 2, 1): 1, (1, 1, 1): -1}
    assert pushforward(step, c).series.terms == {(0, 2, 1): 1}


@given(towers(), st.data())
@settings(max_examples=60, deadline=None)
def test_pushforward_of_a_reduced_class_is_the_reduced_substitution(tower,
                                                                    data):
    # a reduced class pushes to the reduced closed form, with no nil
    # reduction of its own: the star test drops exactly the E^{>=2} terms on
    # empty strata, and no E^0 term lands on one
    _, _, steps = tower
    if not steps:
        return
    step = data.draw(st.sampled_from(steps))
    up, low = step.upper, step.lower
    pi, pj = step.center_positions()
    bound = 6
    # any three factors, then up to three of one center transform: a power
    # of a transform is what reaches E^{>=2} outside the star
    monomials = st.tuples(st.lists(st.integers(0, up.num_vars - 1), max_size=3),
                          st.sampled_from([pi + 1, pj + 1]), st.integers(0, 3))
    drawn = data.draw(st.lists(st.tuples(monomials, st.integers(-4, 4)),
                               max_size=8))
    terms = {tuple((pos + [t] * a).count(k) for k in range(up.num_vars)): v
             for (pos, t, a), v in drawn}
    c = ChowClass(up, reduce_nils(up, TruncatedSeries(up.num_vars, bound,
                                                      terms)))
    got = pushforward(step, c).series
    want = reduce_nils(low, TruncatedSeries(
        low.num_vars, bound, pushforward_by_substitution(c.series.terms,
                                                         pi, pj)))
    assert got.terms == want.terms
    assert reduce_nils(low, got) == got
