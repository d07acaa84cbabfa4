import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from monomial_segre.errors import (ClassificationError,
                                   DegenerateConfigurationError,
                                   MonomialSegreError)
from monomial_segre.lattice import presentation
from monomial_segre.polytope import (HalfSimplex, PointConfiguration,
                                     Triangulation, alpha,
                                     classify_blowup_cells,
                                     complement_configuration, det, hvol,
                                     lift_to_H, link_cells, placement_order,
                                     placing_triangulation)

STAIRCASE = presentation(((3, 0), (1, 1), (0, 3)))


def cell_labels(t):
    return {frozenset(c.provenance) for c in t.cells}


def test_det_exact_integers():
    assert det(((2, 0), (0, 3))) == 6
    assert det(((1, 2), (2, 4))) == 0
    assert det(((0, 1, 0), (1, 0, 0), (0, 0, 1))) == -1


def test_hvol_unit_simplex():
    s = HalfSimplex(3, ((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)),
                    frozenset())
    assert hvol(s) == 1


def test_hvol_column_example():
    s = HalfSimplex(3, ((0, 0, 1), (1, 0, 2), (0, 2, 3)), frozenset({2}))
    assert hvol(s) == 2


def test_hvol_invariances():
    base = HalfSimplex(2, ((3, 0), (1, 1), (0, 3)), frozenset())
    permuted = HalfSimplex(2, ((1, 1), (0, 3), (3, 0)), frozenset())
    shifted = HalfSimplex(2, ((5, 1), (3, 2), (2, 4)), frozenset())
    assert hvol(base) == hvol(permuted) == hvol(shifted) == 3


def test_hvol_degenerate_is_zero():
    s = HalfSimplex(2, ((0, 0), (1, 1), (2, 2)), frozenset())
    assert hvol(s) == 0


def test_complement_configuration_contents():
    c = complement_configuration(STAIRCASE)
    assert c.dim == 2
    assert [lab for lab, _ in c.finite_points] == ["v0", "v1", "v2"]
    assert c.rays == frozenset({0, 1})


def test_placing_single_point_all_rays():
    c = PointConfiguration(2, (("v0", (1, 1)),), frozenset({0, 1}))
    t = placing_triangulation(c)
    assert cell_labels(t) == {frozenset({"v0", "a1", "a2"})}


def test_placing_two_points():
    c = PointConfiguration(2, (("v0", (1, 0)), ("v1", (0, 1))),
                           frozenset({0, 1}))
    t = placing_triangulation(c, order=["v0", "v1", "a1", "a2"])
    assert cell_labels(t) == {frozenset({"v0", "v1", "a1"}),
                              frozenset({"v1", "a1", "a2"})}


def test_placing_staircase_complement():
    t = placing_triangulation(complement_configuration(STAIRCASE))
    assert cell_labels(t) == {frozenset({"v0", "v1", "v2"}),
                              frozenset({"v0", "v2", "a1"}),
                              frozenset({"v2", "a1", "a2"})}


def test_placing_lifted_staircase_five_cells():
    lifted = lift_to_H(complement_configuration(STAIRCASE), 0, 1)
    t = placing_triangulation(lifted)
    assert cell_labels(t) == {
        frozenset({"v0", "v1", "v2", "a1"}),
        frozenset({"v1", "v2", "a1", "a2"}),
        frozenset({"v0", "v1", "v2", "a0"}),
        frozenset({"v0", "v2", "a1", "a0"}),
        frozenset({"v2", "a1", "a2", "a0"}),
    }


def test_placing_requires_full_dimension():
    c = PointConfiguration(2, (("v0", (1, 1)), ("v1", (2, 2))), frozenset())
    with pytest.raises(DegenerateConfigurationError):
        placing_triangulation(c)


def test_placement_order_presets():
    c = complement_configuration(STAIRCASE)
    assert placement_order(c, "default") == ["v0", "v1", "v2", "a1", "a2"]
    assert placement_order(c, "rays_first") == ["a1", "a2", "v0", "v1", "v2"]
    with pytest.raises(MonomialSegreError):
        placement_order(c, "no_such_preset")
    with pytest.raises(MonomialSegreError):
        placement_order(c, "blowup")  # the lifted order is not a preset
    # a lifted configuration has its own order: the rays off the center
    # plane, then the two center rays and a0; it takes no other preset
    lifted = lift_to_H(c, 0, 1)
    assert placement_order(lifted) == ["v0", "v1", "v2", "a1", "a2", "a0"]
    with pytest.raises(MonomialSegreError):
        placement_order(lifted, "rays_first")


def test_lift_to_H_coordinates():
    lifted = lift_to_H(complement_configuration(STAIRCASE), 0, 1)
    pts = dict(lifted.finite_points)
    assert pts["v0"] == (3, 3, 0)
    assert pts["v1"] == (2, 1, 1)
    assert pts["v2"] == (3, 0, 3)
    assert lifted.rays == frozenset({0, 1, 2})
    assert lifted.lift_centers == (1, 2)


def test_classification_golden():
    lifted = lift_to_H(complement_configuration(STAIRCASE), 0, 1)
    t = placing_triangulation(lifted)
    parts = classify_blowup_cells(t)
    named = {
        "U0": {frozenset({"v0", "v1", "v2", "a0"})},
        "U1": {frozenset({"v0", "v1", "v2", "a1"})},
        "Uprime": {frozenset({"v0", "v2", "a1", "a0"}),
                   frozenset({"v2", "a1", "a2", "a0"})},
        "Udoubleprime": {frozenset({"v1", "v2", "a1", "a2"})},
    }
    for field, want in named.items():
        got = {frozenset(c.provenance) for c in getattr(parts, field)}
        assert got == want, field


def test_alpha_golden():
    lifted = lift_to_H(complement_configuration(STAIRCASE), 0, 1)
    t = placing_triangulation(lifted)
    parts = classify_blowup_cells(t)
    base = placing_triangulation(complement_configuration(STAIRCASE))
    base_keys = {frozenset(c.provenance): c.key() for c in base.cells}
    images = {}
    for cell in parts.Uprime + parts.U1:
        images[frozenset(cell.provenance)] = alpha(cell, parts,
                                                   lifted.lift_centers).key()
    assert images[frozenset({"v0", "v1", "v2", "a1"})] == \
        base_keys[frozenset({"v0", "v1", "v2"})]
    assert images[frozenset({"v0", "v2", "a1", "a0"})] == \
        base_keys[frozenset({"v0", "v2", "a1"})]
    assert images[frozenset({"v2", "a1", "a2", "a0"})] == \
        base_keys[frozenset({"v2", "a1", "a2"})]


def test_links_match_base_triangulation():
    lifted = lift_to_H(complement_configuration(STAIRCASE), 0, 1)
    t = placing_triangulation(lifted)
    base = placing_triangulation(complement_configuration(STAIRCASE))
    assert {c.key() for c in link_cells(t)} == {c.key() for c in base.cells}


def test_classification_needs_lift():
    t = placing_triangulation(complement_configuration(STAIRCASE))
    with pytest.raises(ClassificationError):
        classify_blowup_cells(t)


point2 = st.tuples(st.integers(0, 5), st.integers(0, 5))


@given(st.lists(point2, min_size=3, max_size=6, unique=True))
@settings(max_examples=50, deadline=None)
def test_finite_volume_additivity_order_independent(points):
    # fully finite configuration: total normalized volume of the hull does
    # not depend on the placement order
    c = PointConfiguration(
        2, tuple((f"v{k}", pt) for k, pt in enumerate(points)), frozenset())
    totals = []
    for preset in ("default", "finite_reversed"):
        try:
            t = placing_triangulation(c, preset=preset)
        except DegenerateConfigurationError:
            assume(False)
        totals.append(sum(hvol(s) for s in t.cells))
    assert totals[0] == totals[1]
