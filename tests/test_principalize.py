import random
from collections import Counter
from importlib import import_module
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monomial_segre.chow import (LevelRing, base_ring, blow_up, pushforward,
                                 scheme_is_divisor)
from monomial_segre.errors import TowerDivergenceError
from monomial_segre.lattice import presentation, support
from monomial_segre.principalize import (Climb, co_minimal, principalize,
                                         select_center)
from monomial_segre.segre import (_divisor_segre_reduced, admissible_pairs,
                                  segre_integral, segre_tower)

from oracles import (check_sparse_groups, flat_terms,
                     pushforward_by_normal_form, random_presentation,
                     slot_scores)

# the package re-exports the function `principalize` under its module's name
principalize_module = import_module("monomial_segre.principalize")


def test_admissible_pairs_skip_empty_strata():
    p = presentation(((1, 0), (0, 1)))
    assert list(admissible_pairs(base_ring(2), p)) == [(0, 1)]
    r_nil = base_ring(2, nil_pairs=[("X1", "X2")])
    assert list(admissible_pairs(r_nil, p)) == []


def test_select_center_none_for_principal():
    p = presentation(((2, 1),))
    assert select_center(Climb(base_ring(2), p)) is None


def test_level_one_center_under_lex():
    # the staircase ideal after blowing up the origin: its generators read
    # (3,0,3), (1,1,2), (0,3,3) in (~X1, ~X2, E1), where the two strict
    # transforms no longer meet.  The lexicographically first admissible
    # pair is (~X1, E1); the center rule works the first pair of minimal
    # generators at its top-scoring slot, (E1, ~X2), instead
    r = blow_up(base_ring(2), 0, 1).upper
    p = presentation(((3, 0), (1, 1), (0, 3)))
    assert list(admissible_pairs(r, p)) == [(0, 2), (1, 2)]
    assert select_center(Climb(r, p)) == (2, 1)


@st.composite
def center_queries(draw):
    """(ring, presentation): random generators in n = 2..4 variables over a
    base ring with random nil pairs, or over the ring one blow-up up."""
    n = draw(st.integers(2, 4))
    pairs = list(combinations([f"X{k + 1}" for k in range(n)], 2))
    nils = draw(st.lists(st.sampled_from(pairs), unique=True))
    ring = base_ring(n, nil_pairs=nils)
    gens = draw(st.lists(st.tuples(*[st.integers(0, 4)] * n),
                         min_size=1, max_size=5, unique=True))
    p = presentation(gens, num_vars=n)
    centers = [pair for pair in pairs if pair not in nils]
    if centers and draw(st.booleans()):
        step = blow_up(ring, *(ring.variables.index(lab) for lab in
                               draw(st.sampled_from(centers))))
        ring = step.upper
    return ring, p


@given(center_queries())
@settings(max_examples=200, deadline=None)
def test_relevant_center_is_none_only_on_a_divisor(query):
    ring, p = query
    center = select_center(Climb(ring, p))
    if center is None:
        assert scheme_is_divisor(ring, p) is not None
    else:
        assert not ring.stratum_is_empty(center)


@pytest.mark.parametrize("rows, a, b, want", [
    # the staircase: X1^3 and X2^3 tie only where X1 X2 is smaller
    (((3, 0), (1, 1), (0, 3)), 0, 2, False),
    (((3, 0), (1, 1), (0, 3)), 0, 1, True),
    # X1 and X2 both vanish to order 0 on X3, below X3 itself
    (((1, 0, 0), (0, 1, 0), (0, 0, 1)), 0, 1, True),
    # a multiple of a generator ties with it on the divisor X1
    (((1, 0), (1, 1)), 0, 1, True),
    # X1 X2 X3 ties with X1^2 only where X2^2 or X3^2 is smaller
    (((2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, 1)), 0, 3, False),
])
def test_co_minimal_cases(rows, a, b, want):
    assert co_minimal(list(rows), a, b) is want
    assert co_minimal(list(rows), b, a) is want


@given(st.integers(2, 4).flatmap(lambda d: st.tuples(
    st.lists(st.tuples(*[st.integers(0, 4)] * d), min_size=2, max_size=5,
             unique=True),
    st.tuples(*[st.integers(0, 3)] * d))))
@settings(max_examples=200, deadline=None)
def test_co_minimal_sees_every_sampled_tie(query):
    rows, w = query
    if not any(w):
        return
    values = [sum(x * y for x, y in zip(row, w)) for row in rows]
    least = [k for k, v in enumerate(values) if v == min(values)]
    for a, b in combinations(least, 2):
        assert co_minimal(rows, a, b)


def staircase_trace():
    p = presentation(((3, 0), (1, 1), (0, 3)))
    return principalize(base_ring(2), p)


def test_staircase_tower_shape():
    trace = staircase_trace()
    assert len(trace.steps) == 3
    assert trace.top_ring is trace.steps[-1].upper
    assert trace.top_ring.num_vars == 5
    # the terminal divisor really divides every top-level generator
    for g in ((3, 0), (1, 1), (0, 3)):
        assert all(x >= y for x, y in zip(trace.top_ring.exponents(g),
                                          trace.terminal_divisor))


def test_already_principal_is_depth_zero():
    trace = principalize(base_ring(2), presentation(((1, 1),)))
    assert len(trace.steps) == 0
    assert trace.terminal_divisor == (1, 1)


def test_divisor_modulo_nils_is_depth_zero():
    r = base_ring(2, nil_pairs=[("X1", "X2")])
    trace = principalize(r, presentation(((2, 1), (1, 2))))
    assert len(trace.steps) == 0
    assert trace.terminal_divisor == (1, 1)


@pytest.mark.parametrize("gens, depth", [
    ((((1, 0), (0, 1))), 1),
    ((((2, 0), (0, 2))), 1),
    ((((2, 0, 0), (0, 2, 0), (0, 0, 2))), 2),
])
def test_known_depths(gens, depth):
    trace = principalize(base_ring(len(gens[0])), presentation(gens))
    assert len(trace.steps) == depth


def test_deterministic():
    a = staircase_trace()
    b = staircase_trace()
    assert [s.center for s in a.steps] == [s.center for s in b.steps]
    assert a.terminal_divisor == b.terminal_divisor


def test_divergence_carries_partial_trace():
    p = presentation(((3, 0), (1, 1), (0, 3)))
    with pytest.raises(TowerDivergenceError) as exc:
        principalize(base_ring(2), p, cap=1)
    trace = exc.value.trace
    assert len(trace.steps) == 1
    assert trace.top_ring is trace.steps[0].upper


@pytest.mark.parametrize("gens, depth", [
    ((((0, 0, 3), (0, 2, 4), (1, 4, 0), (4, 2, 1))), 26),
    # a random draw that needs 230 levels: the reason the cap is 250
    ((((2, 4, 1, 0), (3, 0, 0, 3), (4, 0, 3, 0))), 230),
])
def test_deep_towers_reach_a_divisor(gens, depth):
    p = presentation(gens)
    trace = principalize(base_ring(p.num_vars), p)
    assert len(trace.steps) == depth
    assert scheme_is_divisor(trace.top_ring, p) == trace.terminal_divisor


def test_hard_instances_terminate():
    # both of these ran away under purely greedy center selection
    for gens in [((1, 0, 4), (2, 1, 1), (2, 4, 3), (4, 3, 2)),
                 ((1, 3, 3), (1, 3, 4), (3, 0, 0), (4, 1, 4))]:
        trace = principalize(base_ring(3), presentation(gens), cap=40)
        assert len(trace.steps) <= 40


def below_in_multiset_order(n, m):
    """True when the multiset n is below m: they differ, and every element
    n has more of is outdone by a larger one m has more of."""
    n, m = Counter(n), Counter(m)
    return n != m and all(any(x > y for x in m - n) for y in n - m)


def test_multiset_order():
    assert below_in_multiset_order([4, 4, 3, 3, 3], [5])
    assert below_in_multiset_order([], [1])
    assert below_in_multiset_order([2, 1], [2, 1, 1])
    assert not below_in_multiset_order([5], [4, 4, 4])
    assert not below_in_multiset_order([3, 1], [3, 1])


# the acceptance corpus, which holds the four deepest acceptance towers, and
# one more 26-level tower
_ACCEPTANCE = random.Random("acceptance-corpus")
MEASURED_TOWERS = [random_presentation(_ACCEPTANCE) for _ in range(100)] + \
    [presentation(((0, 0, 3), (0, 2, 4), (1, 4, 0), (4, 2, 1)))]


def test_the_termination_measure_falls_along_every_tower():
    # the argument of the principalize module docstring, level by level:
    # the worked pair, the first with a slot, never moves back, and while
    # it is worked, each blow-up is at one of its top slots and its
    # multiset of scores falls
    for p in MEASURED_TOWERS:
        trace = principalize(base_ring(p.num_vars), p)
        rings = [s.lower for s in trace.steps] + [trace.top_ring]
        levels = [slot_scores(p.generators, trace.steps[:k], r.facets)
                  for k, r in enumerate(rings)]
        worked = [next((a for a, s in enumerate(pairs) if s), len(pairs))
                  for pairs in levels]
        for k, step in enumerate(trace.steps):
            scores = levels[k][worked[k]]
            assert scores[frozenset(step.center)] == max(scores.values())
            assert worked[k + 1] >= worked[k], (p.generators, k)
            if worked[k + 1] == worked[k]:
                assert below_in_multiset_order(
                    levels[k + 1][worked[k]].values(), scores.values()), \
                    (p.generators, k)


# two deep draws: 83 and 197 levels
DEEP_TOWERS = [presentation(((0, 5, 1), (1, 0, 3), (2, 1, 4), (4, 0, 2))),
               presentation(((0, 6, 3), (1, 0, 5), (4, 3, 1), (6, 1, 2)))]


def test_the_tower_memo_picks_the_center_a_fresh_memo_picks():
    # principalize keeps one Climb for a whole tower and updates it only on
    # the facets each blow-up creates; on every level of every tower, its
    # divisor is the one scheme_is_divisor finds from scratch, and the
    # center it picks is the one the tower blew up and the one
    # select_center picks with a fresh Climb of its own
    depths = []
    for p in MEASURED_TOWERS + DEEP_TOWERS:
        trace = principalize(base_ring(p.num_vars), p)
        depths.append(len(trace.steps))
        rings = [s.lower for s in trace.steps] + [trace.top_ring]
        climb = Climb(rings[0], p)
        for k, ring in enumerate(rings):
            assert climb.divisor() == scheme_is_divisor(ring, p), \
                (p.generators, k)
            if k == len(trace.steps):
                break
            step = trace.steps[k]
            assert select_center(climb) == \
                select_center(Climb(ring, p)) == step.center, \
                (p.generators, k)
            climb.advance(step)
    assert depths[-2:] == [83, 197]


def test_the_climb_does_each_facet_once(monkeypatch):
    # a work guard in counts, not times, over the 83-level tower.  co_minimal
    # is asked once per pair and facet: no call repeats its arguments, the
    # pair and the facet's exponent rows (no two facets of this tower share
    # their rows).  The generators' exponents are read twice, not once per
    # level: for the climb's state, and for the top's confirmation
    asked: Counter = Counter()
    exponents = Counter()
    original_co_minimal = principalize_module.co_minimal
    original_exponents = LevelRing.exponents

    def co_minimal_counted(rows, a, b):
        asked[a, b, tuple(rows)] += 1
        return original_co_minimal(rows, a, b)

    def exponents_counted(ring, g):
        exponents[g] += 1
        return original_exponents(ring, g)
    monkeypatch.setattr(principalize_module, "co_minimal", co_minimal_counted)
    monkeypatch.setattr(LevelRing, "exponents", exponents_counted)
    p = DEEP_TOWERS[0]
    assert len(principalize(base_ring(p.num_vars), p).steps) == 83
    assert asked and max(asked.values()) == 1
    assert set(exponents) == set(p.generators)
    assert max(exponents.values()) == 2


@pytest.mark.parametrize("p, depth", [(presentation(((2, 1),)), 0),
                                      (DEEP_TOWERS[0], 83)])
def test_the_divisor_test_runs_once_per_tower(monkeypatch, p, depth):
    # the climb decides every level, the base included, and the from-scratch
    # scheme_is_divisor only confirms the top
    tops = []

    def scheme_is_divisor_counted(ring, q):
        tops.append(ring)
        return scheme_is_divisor(ring, q)
    monkeypatch.setattr(principalize_module, "scheme_is_divisor",
                        scheme_is_divisor_counted)
    trace = principalize(base_ring(p.num_vars), p)
    assert len(trace.steps) == depth
    assert tops == [trace.top_ring]


def test_the_push_down_passes_every_untouched_group_as_it_is():
    # a work guard in structure, not times, over the 83-level tower: on every
    # level, the input class is unchanged when read after the call, as the
    # tracer reads it, and each group with none of i, j and E is the very
    # object it was, so no level copies or re-keys the terms it does not own
    p = DEEP_TOWERS[0]
    trace = principalize(base_ring(p.num_vars), p)
    assert len(trace.steps) == 83
    c = _divisor_segre_reduced(trace.top_ring, trace.terminal_divisor,
                               p.num_vars + 3)
    passed = 0
    for step in reversed(trace.steps):
        before = flat_terms(c.groups, step.upper.num_vars)
        pushed = pushforward(step, c)
        assert c.series.terms == before, step.upper.depth
        touched = {*step.center, step.lower.num_vars}
        for supp, terms in c.groups.items():
            if touched.isdisjoint(supp):
                assert pushed.groups[supp] is terms, step.upper.depth
                passed += 1
        c = pushed
    assert passed


def test_every_level_of_a_deep_push_down_keys_its_terms_sparsely():
    # a layout guard over the 83-level tower: on every level each group is
    # keyed by its sorted positions and each term by its exponents there, all
    # positive, so no term comes back at the top ring's width; and the
    # level's series is the normal form of the level above.  The normal form
    # is linear, and a term holding none of i, j and E is its own normal
    # form with E dropped, so the oracle runs on the other terms only
    p = DEEP_TOWERS[0]
    trace = principalize(base_ring(p.num_vars), p)
    assert len(trace.steps) == 83
    c = _divisor_segre_reduced(trace.top_ring, trace.terminal_divisor,
                               p.num_vars + 3)
    check_sparse_groups(c)
    for step in reversed(trace.steps):
        pi, pj = step.center
        low, pe = step.lower, step.lower.num_vars
        held = {}
        want = {}
        for e, v in c.series.terms.items():
            if e[pi] or e[pj] or e[pe]:
                held[e] = v
            else:
                want[e[:-1]] = v
        for e, v in pushforward_by_normal_form(held, pi, pj).items():
            v += want.get(e, 0)
            if v:
                want[e] = v
            else:
                want.pop(e, None)
        c = pushforward(step, c)
        check_sparse_groups(c)
        got = c.series.terms
        # the normal form keeps terms on empty strata, which the push leaves
        # out; every other term must agree
        assert all(want.get(e) == v for e, v in got.items()), low.depth
        assert not any(low.in_facet(support(e))
                       for e in want.keys() - got.keys()), low.depth


@pytest.mark.parametrize("p", DEEP_TOWERS)
def test_deep_towers_agree_with_the_integral(p):
    bound = p.num_vars + 3
    assert segre_tower(p, bound).series == segre_integral(p, bound).series


def test_a_tie_goes_to_the_slot_first_in_listing_order():
    # one blow-up up, (3,1,3), (4,0,1) has two top slots, (E1, ~X1) and
    # (X2, ~X1).  The listing puts E1, the newest exceptional divisor, first,
    # although its position is the last one
    p = presentation(((3, 1, 3), (4, 0, 1)))
    trace = principalize(base_ring(3), p)
    r = trace.steps[1].lower
    assert r.variables == ("~X1", "X2", "~X3", "E1")
    assert [r.variables[k] for k in r.listing] == ["E1", "~X1", "X2", "~X3"]
    (scores,) = slot_scores(p.generators, trace.steps[:1], r.facets)
    top = max(scores.values())
    assert sorted(sorted(r.variables[k] for k in edge)
                  for edge, s in scores.items() if s == top) == \
        [["E1", "~X1"], ["X2", "~X1"]]
    assert [r.variables[k] for k in select_center(Climb(r, p))] == \
        ["E1", "~X1"]
