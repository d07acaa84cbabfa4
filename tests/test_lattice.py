import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monomial_segre.errors import DimensionMismatchError, MonomialSegreError
from monomial_segre.lattice import (MonomialPresentation, presentation,
                                    residual_split, support,
                                    support_cover_check)


def test_presentation_infers_dimension_and_labels():
    p = presentation(((3, 0), (1, 1), (0, 3)))
    assert p.num_vars == 2
    assert p.variable_labels == ("X1", "X2")


def test_presentation_validation():
    with pytest.raises(MonomialSegreError):
        presentation(((1, 0), (1, 0)))  # duplicates
    with pytest.raises(MonomialSegreError):
        presentation(((-1, 0),))
    with pytest.raises(DimensionMismatchError):
        MonomialPresentation(2, ((1, 0, 0),))
    with pytest.raises(MonomialSegreError):
        MonomialPresentation(2, ())


def test_residual_split_round_trip():
    p = presentation(((2, 1, 3), (1, 1, 4), (5, 2, 3)))
    d, r = residual_split(p)
    assert d == (1, 1, 3)
    rebuilt = tuple(tuple(a + b for a, b in zip(g, d)) for g in r.generators)
    assert rebuilt == p.generators


gen = st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4))


@given(st.lists(gen, min_size=1, max_size=5, unique=True))
@settings(max_examples=60, deadline=None)
def test_residual_has_trivial_gcd(gens):
    _, r = residual_split(presentation(tuple(gens)))
    d2, _ = residual_split(r)
    assert d2 == (0, 0, 0)


def test_support_and_cover_check():
    assert support((2, 0, 1)) == frozenset({0, 2})
    p = presentation(((3, 0), (1, 1), (0, 3)))
    assert support_cover_check(p, {0, 1})
    assert not support_cover_check(p, {0})  # misses (0,3)
    with pytest.raises(MonomialSegreError):
        support_cover_check(p, {5})
