import time
from fractions import Fraction
from itertools import combinations, permutations
from math import comb

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from monomial_segre.chow import (FACET_BUDGET, ChowClass, base_ring,
                                 blow_up, pushforward, reduce_nils,
                                 scheme_is_divisor, scheme_is_empty)
from monomial_segre.errors import (EmptyCenterError, LevelMismatchError,
                                   MonomialSegreError)
from monomial_segre.lattice import (MonomialPresentation, default_labels,
                                    presentation)
from monomial_segre.segre import _divisor_segre_reduced
from monomial_segre.series import TruncatedSeries, reciprocal_one_plus

from oracles import (check_sparse_groups, expand_terms, flat_terms,
                     names_above, pullback, pushforward_by_normal_form,
                     pushforward_by_substitution,
                     scheme_is_empty_by_enumeration,
                     stratum_is_empty_by_recursion, symbols, total_transform,
                     tower_names, variable)

BOUND = 6
LABELS2, LABELS3 = default_labels(2), default_labels(3)


def var(names, label, bound=BOUND):
    """The named divisor's variable on a ring whose divisors have names."""
    return variable(names.index(label), len(names), bound)


def at(names, labels):
    """The positions of the named divisors, in order."""
    return [names.index(lab) for lab in labels]


def blow(ring, names, i, j):
    """The blow-up of the divisors named i and j on a ring whose divisors
    have names, and the names on the ring above (`oracles.names_above`)."""
    step = blow_up(ring, *at(names, (i, j)))
    return step, names_above(names, step)


def pulled_back(step, s):
    """The pull-back of the series s on the lower ring, as a class upstairs."""
    pi, pj = step.center
    return ChowClass(step.upper, TruncatedSeries(
        step.upper.num_vars, s.degree_bound, pullback(s.terms, pi, pj)))


def test_base_ring_defaults():
    r = base_ring(3)
    assert r.num_vars == 3
    assert r.rays == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert not any(r.stratum_is_empty(pair)
                   for pair in combinations(range(r.num_vars), 2))
    assert r.depth == 0


def test_base_ring_closes_declared_pairs_upward():
    r = base_ring(3, nil_pairs=[("X1", "X2")])
    assert r.stratum_is_empty(at(LABELS3, {"X1", "X2"}))
    assert r.stratum_is_empty(at(LABELS3, {"X1", "X2", "X3"}))
    assert not r.stratum_is_empty(at(LABELS3, {"X1", "X3"}))


def test_stratum_size_cap():
    r = base_ring(2)
    assert r.stratum_is_empty(at(LABELS2, ["X1", "X2", "X1"])) is False
    # more labels than the ambient dimension: always empty
    step, names = blow(r, LABELS2, "X1", "X2")
    assert step.upper.stratum_is_empty(at(names, {"E1", "~X1", "~X2"}))


def test_blow_up_labels_and_nils():
    r = base_ring(2)
    step, names = blow(r, LABELS2, "X1", "X2")
    assert names == ("~X1", "~X2", "E1")
    assert step.upper.rays == ((1, 0), (0, 1), (1, 1))
    assert [pair for pair in combinations(names, 2)
            if step.upper.stratum_is_empty(at(names, pair))] == \
        [("~X1", "~X2")]
    assert step.upper.depth == 1


def test_blow_up_rejects_empty_center():
    r = base_ring(2, nil_pairs=[("X1", "X2")])
    with pytest.raises(EmptyCenterError):
        blow(r, LABELS2, "X1", "X2")
    with pytest.raises(MonomialSegreError):
        blow(base_ring(2), LABELS2, "X1", "X1")


def test_blow_up_checks_its_positions():
    # a negative position would otherwise wrap around to the last variable
    r = base_ring(3)
    for i, j in [(1, 1), (-1, 0), (0, -3), (0, 3), (3, 1)]:
        with pytest.raises(MonomialSegreError):
            blow_up(r, i, j)
    # the message of a known-empty center names its two positions
    r_nil = base_ring(3, labels=("a", "b", "c"), nil_pairs=[("a", "c")])
    with pytest.raises(EmptyCenterError, match=r"center \(0, 2\)"):
        blow_up(r_nil, 0, 2)
    up = blow_up(r_nil, 0, 1).upper
    with pytest.raises(EmptyCenterError, match=r"center \(0, 1\)"):
        blow_up(up, 0, 1)


def test_exceptional_pair_tracking_uses_lower_triples():
    # in a threefold, E over X1 cap X2 meets the transform of X3 exactly
    # when X1 cap X2 cap X3 is nonempty
    r = base_ring(3)
    step, names = blow(r, LABELS3, "X1", "X2")
    assert not step.upper.stratum_is_empty(at(names, {"E1", "X3"}))
    r_nil = base_ring(3, nil_pairs=[("X1", "X3")])
    step_nil, names = blow(r_nil, LABELS3, "X1", "X2")
    assert step_nil.upper.stratum_is_empty(at(names, {"E1", "X3"}))


def test_second_level_triple_emptiness():
    # after two blow-ups sharing divisor X1, three divisors can meet
    # pairwise with no common point; pairwise bookkeeping alone misses this
    r = base_ring(3)
    s1, names1 = blow(r, LABELS3, "X1", "X2")
    s2, names = blow(s1.upper, names1, "E1", "~X1")
    up = s2.upper
    assert not up.stratum_is_empty(at(names, {"E2", "~E1"}))
    assert not up.stratum_is_empty(at(names, {"E2", "~~X1"}))
    assert not up.stratum_is_empty(at(names, {"~E1", "X3"}))
    # E2 meets ~E1 and ~~X1 separately, but the second center was
    # exactly E1 cap ~X1, so the triple is empty upstairs
    assert up.stratum_is_empty(at(names, {"E2", "~E1", "~~X1"}))


def test_a_base_ring_takes_any_unique_labels():
    # a ring stores no names, so labels of the shape the CLI gives blow-up
    # divisors (E<k>, a ~ prefix), or labels that are not strings, build the
    # ring the default labels build; they are read only to find the nil
    # pairs, and must be unique
    for labels in (("E1", "X2"), ("X1", "~X2"), (1, 2)):
        assert base_ring(2, labels) == base_ring(2)
        assert base_ring(2, labels, [labels]) == \
            base_ring(2, nil_pairs=[LABELS2])
    with pytest.raises(MonomialSegreError, match="labels must be unique"):
        base_ring(2, labels=("a", "a"))


def test_base_ring_refuses_a_split_past_its_facet_budget():
    # k disjoint nil pairs split the one largest stratum into 2^k facets,
    # and the maximality filter compares every pair of them: 16 pairs are
    # refused as the split passes the budget, before any such comparison
    labels = default_labels(32)
    pairs = list(zip(labels[::2], labels[1::2]))
    start = time.perf_counter()
    with pytest.raises(MonomialSegreError,
                       match=f"into more than {FACET_BUDGET} facets"):
        base_ring(32, labels, pairs)
    assert time.perf_counter() - start < 1
    # ten pairs make 1,024 facets, at the budget
    assert len(base_ring(20, nil_pairs=pairs[:10]).facets) == FACET_BUDGET


def test_exponents_are_read_off_the_rays():
    step, _ = blow(base_ring(2), LABELS2, "X1", "X2")
    assert step.upper.rays == ((1, 0), (0, 1), (1, 1))
    assert [step.upper.exponents(g) for g in ((3, 0), (1, 1), (0, 3))] == \
        [(3, 0, 3), (1, 1, 2), (0, 3, 3)]
    # a monomial over any other width would be truncated by the dot product
    for g in ((1,), (1, 0, 0)):
        with pytest.raises(LevelMismatchError):
            step.upper.exponents(g)


def test_pullback_then_pushforward_is_identity():
    step, _ = blow(base_ring(2), LABELS2, "X1", "X2")
    s = TruncatedSeries(2, BOUND, {(1, 0): 2, (1, 1): -3, (0, 2): 1})
    assert pushforward(step, pulled_back(step, s)).series == s


@given(st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2)),
    st.integers(-4, 4), max_size=5))
@settings(max_examples=40, deadline=None)
def test_pullback_pushforward_identity_randomized(terms):
    step, _ = blow(base_ring(3), LABELS3, "X2", "X3")
    s = TruncatedSeries(3, BOUND, terms)
    assert pushforward(step, pulled_back(step, s)).series == s


@given(st.dictionaries(st.tuples(st.integers(0, 2), st.integers(0, 2)),
                       st.integers(-3, 3), max_size=4),
       st.dictionaries(st.tuples(st.integers(0, 2), st.integers(0, 2),
                                 st.integers(0, 2)),
                       st.integers(-3, 3), max_size=4))
@settings(max_examples=40, deadline=None)
def test_projection_formula(base_terms, upper_terms):
    step, _ = blow(base_ring(2), LABELS2, "X1", "X2")
    beta = TruncatedSeries(2, BOUND, base_terms)
    c = ChowClass(step.upper, TruncatedSeries(3, BOUND, upper_terms))
    lhs = pushforward(
        step, ChowClass(step.upper,
                        pulled_back(step, beta).series * c.series)).series
    rhs = beta * pushforward(step, c).series
    assert lhs == rhs


# -- the five push-forward unit identities -----------------------------------


def test_pushforward_E_times_X2():
    step, names = blow(base_ring(3), LABELS3, "X1", "X2")
    up = step.upper
    cls = ChowClass(up, var(names, "E1") * var(names, "~X2"))
    assert pushforward(step, cls).series == \
        (var(LABELS3, "X1") * var(LABELS3, "X2"))


def test_pushforward_X1_times_X2():
    step, names = blow(base_ring(3), LABELS3, "X1", "X2")
    up = step.upper
    cls = ChowClass(up, var(names, "~X1") * var(names, "~X2"))
    assert pushforward(step, cls).series.is_zero()


def test_pushforward_E_times_X3():
    step, names = blow(base_ring(3), LABELS3, "X1", "X2")
    up = step.upper
    cls = ChowClass(up, var(names, "E1") * var(names, "X3"))
    assert pushforward(step, cls).series.is_zero()


def test_pushforward_X1_times_X3():
    step, names = blow(base_ring(3), LABELS3, "X1", "X2")
    up = step.upper
    cls = ChowClass(up, var(names, "~X1") * var(names, "X3"))
    assert pushforward(step, cls).series == \
        (var(LABELS3, "X1") * var(LABELS3, "X3"))


def test_pushforward_exceptional_segre():
    # E/(1+E) downstairs is X1 X2 / ((1+X1)(1+X2))
    step, _ = blow(base_ring(2), LABELS2, "X1", "X2")
    up = step.upper
    ecls = TruncatedSeries.one(3, BOUND) - reciprocal_one_plus((0, 0, 1), BOUND)
    got = pushforward(step, ChowClass(up, ecls)).series
    X1, X2 = symbols(2)
    want = expand_terms(X1 * X2 / ((1 + X1) * (1 + X2)), (X1, X2), BOUND)
    assert got.terms == want


def test_pushforward_rejects_wrong_level():
    step, _ = blow(base_ring(2), LABELS2, "X1", "X2")
    with pytest.raises(LevelMismatchError):
        pushforward(step, ChowClass(step.lower, TruncatedSeries.one(2, BOUND)))


@st.composite
def upper_classes(draw):
    """(n, i, j, terms): a class on the blow-up of X_i cap X_j over an
    n-variable base, with powers of E up to 6; the center comes in either
    order."""
    n = draw(st.sampled_from([2, 3]))
    i, j = draw(st.sampled_from(list(permutations(range(n), 2))))
    exponents = st.tuples(*[st.integers(0, 2)] * n, st.integers(0, 6))
    return n, i, j, draw(st.dictionaries(exponents, st.integers(-4, 4),
                                         max_size=8))


# E ~X1 X3 and E^2 X3 share the off-center part X3, and their E^{>=2} parts,
# +X1 X2 X3 and -X1 X2 X3, cancel in its table: the class pushes to zero
@example((3, 0, 1, {(1, 0, 1, 1): 1, (0, 0, 1, 2): 1}))
@example((3, 1, 0, {(1, 0, 1, 1): 1, (0, 0, 1, 2): 1}))
@given(upper_classes())
@settings(max_examples=80, deadline=None)
def test_pushforward_closed_form_matches_normal_form(case):
    n, i, j, terms = case
    step = blow_up(base_ring(n), i, j)
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
    step, _ = blow(base_ring(2), LABELS2, "X1", "X2")
    s = TruncatedSeries(3, 4, {(1, 1, 1): 1, (1, 0, 2): 3})
    out = reduce_nils(step.upper, s)
    assert out.terms == {(1, 0, 2): Fraction(3)}


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
    # one blow-up up, the base presentation's total transform is E1
    up = blow(r, LABELS2, "X1", "X2")[0].upper
    assert scheme_is_divisor(up, presentation(((1, 0), (0, 1)))) == (0, 0, 1)
    r_nil = base_ring(2, nil_pairs=[("X1", "X2")])
    assert scheme_is_divisor(
        r_nil, presentation(((2, 1), (1, 2)))) == (1, 1)


def test_scheme_predicates_check_widths():
    # a ring stores no names, so a presentation's labels do not matter, but
    # its width must be the ring's
    r = base_ring(2)
    assert not scheme_is_empty(r, MonomialPresentation(2, ((1, 0),),
                                                       ("A", "B")))
    with pytest.raises(LevelMismatchError):
        scheme_is_empty(r, presentation(((1, 0, 0),)))


# -- the facet model against the recursive and brute-force rules ------------


@st.composite
def towers(draw):
    """(base, nils, steps): a base ring in 2-4 variables with random nil
    pairs nils, and up to six blow-ups above it, each at a center the
    recursive oracle calls nonempty."""
    n = draw(st.integers(2, 4))
    labels = default_labels(n)
    nils = draw(st.lists(st.sampled_from(list(combinations(labels, 2))),
                         unique=True))
    base = base_ring(n, nil_pairs=nils)
    ring, names, steps = base, labels, []
    for _ in range(draw(st.integers(0, 6))):
        centers = [c for c in combinations(names, 2)
                   if not stratum_is_empty_by_recursion(n, labels, nils,
                                                        steps, c)]
        if not centers:
            break
        step, names = blow(ring, names, *draw(st.sampled_from(centers)))
        steps.append(step)
        ring = step.upper
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
    labels = default_labels(n)
    rings = [base] + [s.upper for s in steps]
    for level, (r, names) in enumerate(zip(rings,
                                           tower_names(labels, steps))):
        def oracle(stratum, level=level):
            return stratum_is_empty_by_recursion(n, labels, nils,
                                                 steps[:level], stratum)
        strata = [frozenset(c) for k in range(n + 2)
                  for c in combinations(names, k)]
        for s in strata:
            ps = frozenset(at(names, s))
            assert r.stratum_is_empty(ps) == oracle(s), (level, sorted(s))
            if level == 0:
                assert r.stratum_is_empty(ps) == \
                    (not any(ps <= f for f in r.facets))
        gens = sparse_generators(data.draw, r.num_vars)
        p = MonomialPresentation(r.num_vars, gens, names)
        assert scheme_is_empty(r, p) == scheme_is_empty_by_enumeration(
            names, n, gens, oracle), (level, gens)


@given(towers(), st.data())
@settings(max_examples=60, deadline=None)
def test_exponents_match_the_step_by_step_transform(tower, data):
    base, _, steps = tower
    n = base.num_vars
    gens = data.draw(st.lists(st.tuples(*[st.integers(0, 4)] * n),
                              min_size=1, max_size=4))
    for level, r in enumerate([base] + [s.upper for s in steps]):
        assert [r.exponents(g) for g in gens] == \
            total_transform(gens, steps[:level]), level


def check_top_expansion(tower, d, bound):
    """The closed-form top expansion equals the dense D/(1+D) with its terms
    on empty strata filtered out by the recursive oracle, and has as many
    terms as its budget count: C(bound, |F|) summed over the faces F of the
    top complex on which every entry of d is positive."""
    base, nils, steps = tower
    top = steps[-1].upper if steps else base
    labels = default_labels(base.num_vars)
    names = tower_names(labels, steps)[-1]
    dense = TruncatedSeries.one(top.num_vars, bound) - \
        reciprocal_one_plus(tuple(d), bound)
    want = {e: c for e, c in dense.terms.items()
            if not stratum_is_empty_by_recursion(
                base.num_vars, labels, nils, steps,
                {names[k] for k, a in enumerate(e) if a})}
    got = _divisor_segre_reduced(top, d, bound).series.terms
    assert got == want
    faces = {c for f in top.facets
             for r in range(1, len(f) + 1)
             for c in combinations(sorted(m for m in f if d[m]), r)}
    assert len(got) == sum(comb(bound, len(face)) for face in faces)


@given(towers(), st.data())
@settings(max_examples=40, deadline=None)
def test_top_expansion_matches_the_filtered_dense_one(tower, data):
    base, _, steps = tower
    top = steps[-1].upper if steps else base
    d = data.draw(st.lists(st.integers(0, 3), min_size=top.num_vars,
                           max_size=top.num_vars))
    check_top_expansion(tower, d, 4)


@given(towers(), st.data())
@settings(max_examples=40, deadline=None)
def test_top_expansion_edges_match_the_filtered_dense_one(tower, data):
    # bound 0 and 1, D = 0, and a D that vanishes on a whole facet
    base, _, steps = tower
    top = steps[-1].upper if steps else base
    d = data.draw(st.lists(st.integers(0, 3), min_size=top.num_vars,
                           max_size=top.num_vars))
    for bound in (0, 1):
        check_top_expansion(tower, d, bound)
    check_top_expansion(tower, [0] * top.num_vars, 3)
    facet = data.draw(st.sampled_from(top.facets))
    check_top_expansion(tower, [0 if m in facet else a
                                for m, a in enumerate(d)], 3)


def test_pushforward_leaves_out_deep_terms_off_the_star():
    # with X1 cap X3 empty, ~X2^2 X3 lies on the nonempty stratum ~X2 cap X3
    # upstairs; its E^2 part -X1 X2 X3 would lie on an empty one downstairs
    step, _ = blow(base_ring(3, nil_pairs=[("X1", "X3")]), LABELS3,
                   "X1", "X2")
    c = ChowClass(step.upper, TruncatedSeries(4, BOUND, {(0, 2, 1, 0): 1}))
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
    pi, pj = step.center
    bound = 6
    # any three factors, then up to three of one center transform: a power
    # of a transform is what reaches E^{>=2} outside the star
    monomials = st.tuples(st.lists(st.integers(0, up.num_vars - 1), max_size=3),
                          st.sampled_from([pi, pj]), st.integers(0, 3))
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


# -- the grouped push-down --------------------------------------------------


@given(towers(), st.data())
@settings(max_examples=40, deadline=None)
def test_grouped_push_down_matches_the_normal_form_level_by_level(tower,
                                                                  data):
    # each level's class is read flat before it is pushed, as the tracer
    # reads it, and the push still takes the grouped path
    base, _, steps = tower
    top = steps[-1].upper if steps else base
    d = data.draw(st.lists(st.integers(0, 3), min_size=top.num_vars,
                           max_size=top.num_vars))
    bound = data.draw(st.integers(1, 5))
    c = _divisor_segre_reduced(top, d, bound)
    check_sparse_groups(c)
    for step in reversed(steps):
        low = step.lower
        want = reduce_nils(low, TruncatedSeries(
            low.num_vars, bound,
            pushforward_by_normal_form(c.series.terms, *step.center)))
        c = pushforward(step, c)
        check_sparse_groups(c)
        assert c.series.terms == want.terms, low.depth


def test_e2_parts_cancel_e0_terms_and_empty_a_group():
    # ~X1 ~X2 X3 keeps X1 X2 X3 as its E^0 part, and the E^{>=2} parts of
    # itself (-1), E^2 X3 (-1) and E ~X1 X3 (+1) cancel it: its group
    # {X1, X2, X3} empties and is dropped.  In {X1, X2}, the E^0 part of
    # ~X1 ~X2 cancels with its own E^{>=2} part, and E^3 adds -X1 X2^2 and
    # -X1^2 X2; X3^2 passes as it is
    step, _ = blow(base_ring(3), LABELS3, "X1", "X2")
    groups = {(0, 1, 2): {(1, 1, 1): 1},
              (2, 3): {(1, 2): 1},
              (0, 2, 3): {(1, 1, 1): 1},
              (0, 1): {(1, 1): 1},
              (3,): {(3,): 1},
              (2,): {(2,): 3}}
    c = ChowClass.grouped(step.upper, BOUND, groups)
    check_sparse_groups(c)
    flat = flat_terms(groups, 4)
    assert flat == {(1, 1, 1, 0): 1, (0, 0, 1, 2): 1, (1, 0, 1, 1): 1,
                    (1, 1, 0, 0): 1, (0, 0, 0, 3): 1, (0, 0, 2, 0): 3}
    got = pushforward(step, c)
    check_sparse_groups(got)
    assert got.series.terms == pushforward_by_normal_form(flat, 0, 1)
    assert got.groups == {(0, 1): {(1, 2): -1, (2, 1): -1},
                          (2,): {(2,): 3}}
    assert got.groups[(2,)] is groups[(2,)]
    # the input is unchanged
    assert c.series.terms == flat
