import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from monomial_segre.errors import (ClassificationError,
                                   DegenerateConfigurationError,
                                   DimensionMismatchError, MonomialSegreError)
from monomial_segre.lattice import presentation
from monomial_segre.polytope import (ORDER_PRESETS, HalfSimplex,
                                     PointConfiguration, alpha,
                                     classify_blowup_cells,
                                     complement_configuration, configuration,
                                     det, hvol, lift_to_H, link_cells,
                                     placement_order, placing_triangulation)

from oracles import placing_cells_by_rebuild

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
    assert c.points == (("v0", (3, 0, 1)), ("v1", (1, 1, 1)),
                        ("v2", (0, 3, 1)), ("a1", (1, 0, 0)),
                        ("a2", (0, 1, 0)))
    assert c.homogeneous["a2"] == (0, 1, 0)


def test_configuration_validation():
    with pytest.raises(DimensionMismatchError):
        configuration(2, (("v0", (1, 1, 1)),), ())
    with pytest.raises(MonomialSegreError):
        configuration(2, (("a1", (1, 1)),), (0,))  # labels must be unique
    for d in (-1, 2):  # a ray direction outside the dimension
        with pytest.raises(MonomialSegreError):
            configuration(2, (("v0", (1, 1)),), (d,))
    for h in ((1, 1, 0), (2, 0, 0), (1, 1, 2)):  # not a ray, not (v, 1)
        with pytest.raises(MonomialSegreError):
            PointConfiguration(2, (("h", h),))


def test_placing_single_point_all_rays():
    c = configuration(2, (("v0", (1, 1)),), (0, 1))
    t = placing_triangulation(c)
    assert cell_labels(t) == {frozenset({"v0", "a1", "a2"})}


def test_placing_two_points():
    c = configuration(2, (("v0", (1, 0)), ("v1", (0, 1))), (0, 1))
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
    c = configuration(2, (("v0", (1, 1)), ("v1", (2, 2))), ())
    with pytest.raises(DegenerateConfigurationError):
        placing_triangulation(c)


def test_placement_order_presets():
    c = complement_configuration(STAIRCASE)
    assert placement_order(c, "default") == ["v0", "v1", "v2", "a1", "a2"]
    assert placement_order(c, "rays_first") == ["a1", "a2", "v0", "v1", "v2"]
    assert placement_order(c, "finite_reversed") == \
        ["v2", "v1", "v0", "a1", "a2"]
    with pytest.raises(MonomialSegreError):
        placement_order(c, "no_such_preset")
    with pytest.raises(MonomialSegreError):
        placement_order(c, "blowup")  # the lifted order is not a preset


def test_lift_to_H_coordinates():
    lifted = lift_to_H(complement_configuration(STAIRCASE), 0, 1)
    assert lifted.points == (
        ("v0", (3, 3, 0, 1)), ("v1", (2, 1, 1, 1)), ("v2", (3, 0, 3, 1)),
        ("a1", (0, 1, 0, 0)), ("a2", (0, 0, 1, 0)), ("a0", (1, 0, 0, 0)))


def test_lift_lists_its_points_in_placement_order():
    # finite points, the rays off the center plane, ray i, ray j, then a0
    c = complement_configuration(presentation(((1, 2, 0, 1), (0, 1, 3, 2))))
    order = {(i, j): [lab for lab, _ in lift_to_H(c, i, j).points]
             for i, j in ((1, 3), (3, 1), (2, 0))}
    assert order == {
        (1, 3): ["v0", "v1", "a1", "a3", "a2", "a4", "a0"],
        (3, 1): ["v0", "v1", "a1", "a3", "a4", "a2", "a0"],
        (2, 0): ["v0", "v1", "a2", "a4", "a3", "a1", "a0"]}


def test_classification_golden():
    lifted = lift_to_H(complement_configuration(STAIRCASE), 0, 1)
    t = placing_triangulation(lifted)
    parts = classify_blowup_cells(t, 0, 1)
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
    parts = classify_blowup_cells(t, 0, 1)
    base = placing_triangulation(complement_configuration(STAIRCASE))
    base_keys = {frozenset(c.provenance): c.key() for c in base.cells}
    images = {}
    for cell in parts.Uprime + parts.U1:
        images[frozenset(cell.provenance)] = alpha(cell, parts, 0).key()
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
    # the base, or a lift placed in another order, does not place a0 last
    c = complement_configuration(STAIRCASE)
    lifted = lift_to_H(c, 0, 1)
    for t in (placing_triangulation(c),
              placing_triangulation(lifted, placement_order(lifted,
                                                            "rays_first"))):
        with pytest.raises(ClassificationError):
            classify_blowup_cells(t, 0, 1)


point2 = st.tuples(st.integers(0, 5), st.integers(0, 5))


@given(st.lists(point2, min_size=3, max_size=6, unique=True))
@settings(max_examples=50, deadline=None)
def test_finite_volume_additivity_order_independent(points):
    # fully finite configuration: total normalized volume of the hull does
    # not depend on the placement order
    c = configuration(2, ((f"v{k}", pt) for k, pt in enumerate(points)), ())
    totals = []
    for preset in ("default", "finite_reversed"):
        try:
            t = placing_triangulation(c, placement_order(c, preset))
        except DegenerateConfigurationError:
            assume(False)
        totals.append(sum(hvol(s) for s in t.cells))
    assert totals[0] == totals[1]


def _same_as_rebuild(config, order):
    t = placing_triangulation(config, order)
    assert [c.provenance for c in t.cells] == \
        placing_cells_by_rebuild(config, order), (config, order)


@st.composite
def generator_sets(draw, num_vars):
    n = draw(num_vars)
    gens = draw(st.lists(st.tuples(*[st.integers(0, 4)] * n), min_size=1,
                         max_size=5, unique=True))
    return presentation(tuple(sorted(gens)), num_vars=n)


@given(generator_sets(st.integers(1, 4)))
@example(presentation(((2,), (5,)), num_vars=1))
@example(presentation(((1, 1), (2, 2), (3, 3))))
@settings(max_examples=60, deadline=None)
def test_placing_matches_the_rebuilt_boundary(p):
    # the oriented boundary, updated in place, gives the cells and the
    # provenance of rebuilding it from every cell: under every preset, with
    # the origin placed last as the integral places it, and on every lift
    c = complement_configuration(p)
    origin = PointConfiguration(c.dim, c.points + (("O", (0,) * c.dim + (1,)),))
    for preset in ORDER_PRESETS:
        order = placement_order(c, preset)
        _same_as_rebuild(c, order)
        _same_as_rebuild(origin, order + ["O"])
    for i in range(p.num_vars):
        for j in range(p.num_vars):
            if i != j:
                lifted = lift_to_H(c, i, j)
                _same_as_rebuild(lifted, placement_order(lifted, "default"))


@given(st.lists(st.tuples(*[st.integers(0, 3)] * 3), min_size=4, max_size=8,
                unique=True), st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_placing_matches_the_rebuilt_boundary_on_finite_points(points, rnd):
    # interior points, points on a facet's span, and a dependent prefix
    # that defers labels until after the starting cell
    c = configuration(3, ((f"v{k}", pt) for k, pt in enumerate(points)), ())
    order = [lab for lab, _ in c.points]
    rnd.shuffle(order)
    try:
        placing_triangulation(c, order)
    except DegenerateConfigurationError:
        assume(False)
    _same_as_rebuild(c, order)
