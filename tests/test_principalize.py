from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monomial_segre.chow import base_ring, blow_up
from monomial_segre.errors import TowerDivergenceError
from monomial_segre.lattice import presentation
from monomial_segre.principalize import (admissible_pairs, principalize,
                                         ring_edges, select_center)


def test_admissible_pairs_skip_empty_strata():
    p = presentation(((1, 0), (0, 1)))
    assert list(admissible_pairs(base_ring(2), p)) == [(0, 1)]
    r_nil = base_ring(2, nil_pairs=[("X1", "X2")])
    assert list(admissible_pairs(r_nil, p)) == []


@pytest.mark.parametrize("n, nils", [
    (1, []), (2, []), (2, [("X1", "X2")]), (3, [("X1", "X3")]),
    (4, [("X1", "X2"), ("X3", "X4")]),
])
def test_ring_edges_are_the_nonempty_pairs(n, nils):
    r = base_ring(n, nil_pairs=nils)
    pairs = {frozenset(pr) for pr in combinations(range(r.num_vars), 2)}
    assert ring_edges(r) == {pr for pr in pairs if not r.stratum_is_empty(pr)}


def test_select_center_none_for_principal():
    p = presentation(((2, 1),))
    assert select_center(base_ring(2), p) is None


def test_level_one_center_under_lex():
    # the staircase ideal after blowing up the origin: its generators read
    # (3,3,0), (2,1,1), (3,0,3) in (E1, ~X1, ~X2), where the two strict
    # transforms no longer meet.  The lexicographically first admissible
    # pair is (0, 1); the center rule attacks the first incomparable
    # generator pair at its largest leftover slot instead
    r = blow_up(base_ring(2), 0, 1).upper
    p = presentation(((3, 0), (1, 1), (0, 3)))
    assert list(admissible_pairs(r, p)) == [(0, 1), (0, 2)]
    assert select_center(r, p) == (0, 2)


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
def test_select_center_none_iff_no_admissible_pair(query):
    ring, p = query
    assert (select_center(ring, p) is None) == \
        (list(admissible_pairs(ring, p)) == [])


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


def test_hard_instances_terminate():
    # both of these ran away under purely greedy center selection
    for gens in [((1, 0, 4), (2, 1, 1), (2, 4, 3), (4, 3, 2)),
                 ((1, 3, 3), (1, 3, 4), (3, 0, 0), (4, 1, 4))]:
        trace = principalize(base_ring(3), presentation(gens), cap=40)
        assert len(trace.steps) <= 40
