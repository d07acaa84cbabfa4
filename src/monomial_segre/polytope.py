"""Exact polyhedral engine: configurations with rays, placing triangulations,
normalized volumes, the blow-up lift, and the cell classification used by the
blow-up invariance check.

Vertices at infinity are handled homogeneously: a finite point v becomes
(v, 1), the ray in coordinate direction j becomes (e_j, 0).  Every predicate
is the sign of an integer determinant, so there is no epsilon anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

from .errors import (ClassificationError, DegenerateConfigurationError,
                     DimensionMismatchError, MonomialSegreError)
from .lattice import ExponentVector, MonomialPresentation

Label = str


def det(rows: Sequence[Sequence[int]]) -> int:
    """Exact determinant of a square integer matrix (fraction-free Bareiss)."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise DimensionMismatchError("determinant of a non-square matrix")
    if n == 0:
        return 1
    m = [list(r) for r in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def _rank(vectors: list[Sequence[int]]) -> int:
    """Rank of a list of integer vectors (fraction-free Bareiss elimination,
    skipping columns without a pivot)."""
    m = [list(v) for v in vectors]
    cols = len(m[0]) if m else 0
    rank = 0
    prev = 1
    for col in range(cols):
        pivot = next((i for i in range(rank, len(m)) if m[i][col] != 0), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        top = m[rank]
        for i in range(rank + 1, len(m)):
            row = m[i]
            m[i] = [(a * top[col] - row[col] * b) // prev
                    for a, b in zip(row, top)]
        prev = top[col]
        rank += 1
    return rank


@dataclass(frozen=True)
class PointConfiguration:
    """Labelled homogeneous vectors, listed in the default placement order:
    a finite point v is (v, 1), the ray in coordinate direction d is (e_d, 0).
    """

    dim: int
    points: tuple[tuple[Label, tuple[int, ...]], ...]

    def __post_init__(self):
        for lab, h in self.points:
            if len(h) != self.dim + 1:
                raise DimensionMismatchError(f"point {lab} has length {len(h)}")
            if h[-1] not in (0, 1) or \
                    (h[-1] == 0 and sorted(h) != [0] * self.dim + [1]):
                raise MonomialSegreError(
                    f"point {lab} is neither (v, 1) nor a ray (e_d, 0)")
        if len(self.homogeneous) != len(self.points):
            raise MonomialSegreError("labels must be unique")

    @cached_property
    def homogeneous(self) -> dict[Label, tuple[int, ...]]:
        return dict(self.points)


def configuration(dim: int, finite_points: Iterable[tuple[Label, ExponentVector]],
                  rays: Iterable[int]) -> PointConfiguration:
    """The finite points in the order given, then the coordinate rays in
    sorted direction order, the ray in direction d labelled a<d+1>."""
    return PointConfiguration(dim, tuple(
        (lab, tuple(v) + (1,)) for lab, v in finite_points) + tuple(
        (f"a{d + 1}", tuple(int(k == d) for k in range(dim)) + (0,))
        for d in sorted(rays)))


@dataclass(frozen=True)
class HalfSimplex:
    """Simplex with finite vertices plus unbounded coordinate directions."""

    dim: int
    finite_vertices: tuple[ExponentVector, ...]
    infinite_directions: frozenset[int]
    provenance: tuple[Label, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "finite_vertices",
                           tuple(tuple(v) for v in self.finite_vertices))
        object.__setattr__(self, "infinite_directions",
                           frozenset(self.infinite_directions))
        for v in self.finite_vertices:
            if len(v) != self.dim:
                raise DimensionMismatchError(f"vertex {v} has length {len(v)}")
        if len(self.finite_vertices) - 1 + len(self.infinite_directions) > self.dim:
            raise MonomialSegreError("too many vertices for the ambient dimension")

    def key(self):
        """Identity of the simplex as a geometric object (vertex order ignored)."""
        return (frozenset(self.finite_vertices), self.infinite_directions)


@dataclass(frozen=True)
class Triangulation:
    config: PointConfiguration
    cells: tuple[HalfSimplex, ...]
    placement_order: tuple[Label, ...]


def hvol(s: HalfSimplex) -> int:
    """Normalized volume (Euclidean volume times the dimension factorial):
    |det| of the edge vectors after projecting along the infinite directions."""
    keep = [i for i in range(s.dim) if i not in s.infinite_directions]
    proj = [tuple(v[i] for i in keep) for v in s.finite_vertices]
    edges = [tuple(a - b for a, b in zip(v, proj[0])) for v in proj[1:]]
    if len(edges) != len(keep):
        raise DimensionMismatchError(
            f"projected simplex is not square: {len(edges)} edges in "
            f"{len(keep)} coordinates")
    return abs(det(edges))


def complement_configuration(p: MonomialPresentation) -> PointConfiguration:
    """The convex complement region: generators plus every coordinate ray."""
    return configuration(
        p.num_vars, ((f"v{k}", g) for k, g in enumerate(p.generators)),
        range(p.num_vars))


# -- placing -----------------------------------------------------------------

ORDER_PRESETS = ("default", "rays_first", "finite_reversed")


def placement_order(config: PointConfiguration, preset: str) -> list[Label]:
    """The labels of a configuration in the order a preset places them;
    `default` is the configuration's own order."""
    finite = [lab for lab, h in config.points if h[-1]]
    rays = [lab for lab, h in config.points if not h[-1]]
    if preset == "default":
        return [lab for lab, _ in config.points]
    if preset == "rays_first":
        return rays + finite
    if preset == "finite_reversed":
        return finite[::-1] + rays
    raise MonomialSegreError(f"unknown order preset {preset!r}")


def _cell_from_labels(config: PointConfiguration, labels: Iterable[Label],
                      order_index: dict[Label, int]) -> HalfSimplex:
    hom = config.homogeneous
    labs = sorted(labels, key=lambda l: order_index[l])
    finite = tuple(hom[lab][:-1] for lab in labs if hom[lab][-1])
    dirs = frozenset(hom[lab].index(1) for lab in labs if not hom[lab][-1])
    return HalfSimplex(config.dim, finite, dirs, provenance=tuple(labs))


def placing_triangulation(config: PointConfiguration,
                          order: Sequence[Label] | None = None) -> Triangulation:
    """Incremental (beneath-beyond) triangulation in homogeneous coordinates.

    The first dim+1 labels of the order that are linearly independent form the
    starting cell; every later label is coned over the boundary facets it
    strictly sees.  Points inside the current hull, and ties (point on a
    facet's span), create no cells.  The order defaults to the
    configuration's own.
    """
    hom = config.homogeneous
    order = [lab for lab, _ in config.points] if order is None else list(order)
    if set(order) != hom.keys() or len(order) != len(hom):
        raise MonomialSegreError("order must enumerate all labels exactly once")

    d1 = config.dim + 1

    # starting simplex: greedy independent prefix
    basis: list[Label] = []
    skipped: list[Label] = []
    consumed = 0
    for lab in order:
        consumed += 1
        if _rank([hom[b] for b in basis] + [hom[lab]]) > len(basis):
            basis.append(lab)
        else:
            skipped.append(lab)
        if len(basis) == d1:
            break
    if len(basis) < d1:
        raise DegenerateConfigurationError(
            "no full-dimensional starting simplex exists in the given order")

    cells: list[frozenset[Label]] = [frozenset(basis)]

    def facet_sign(facet: tuple[Label, ...], probe: Label) -> int:
        value = det([hom[f] for f in facet] + [hom[probe]])
        return (value > 0) - (value < 0)

    def insert(lab: Label):
        # boundary facets with the opposite vertex of their unique cell
        facet_owner: dict[frozenset[Label], list[frozenset[Label]]] = {}
        for cell in cells:
            for drop in cell:
                facet_owner.setdefault(cell - {drop}, []).append(cell)
        new_cells = []
        for facet, owners in facet_owner.items():
            if len(owners) != 1:
                continue
            opposite = next(iter(owners[0] - facet))
            ordered = tuple(sorted(facet))
            s_new = facet_sign(ordered, lab)
            if s_new != 0 and s_new == -facet_sign(ordered, opposite):
                new_cells.append(facet | {lab})
        cells.extend(new_cells)

    for lab in skipped + order[consumed:]:
        insert(lab)

    order_index = {lab: k for k, lab in enumerate(order)}
    cell_objs = tuple(sorted(
        (_cell_from_labels(config, c, order_index) for c in cells),
        key=lambda s: s.provenance))
    return Triangulation(config, cell_objs, tuple(order))


# -- blow-up lift and classification -----------------------------------------

def lift_to_H(config: PointConfiguration, i: int, j: int) -> PointConfiguration:
    """Prepend the coordinate a0 = a_i + a_j; rays shift and gain the a0 ray.

    i and j are 0-based directions of the base configuration.  The lift lists
    its points in the one order it is placed in: the finite points, the rays
    off the center plane, ray i, ray j, then a0.
    """
    if i == j or not (0 <= i < config.dim) or not (0 <= j < config.dim):
        raise MonomialSegreError(f"invalid center pair ({i}, {j})")
    # the rays off the center plane lie in H and join the lifted base
    # triangulation; the two center rays and a0 come afterwards, in that
    # order, so that no cell picks up the second center ray without the
    # first or the exceptional one
    placed = sorted(config.points,
                    key=lambda p: (1 - p[1][-1]) * (1 + p[1][i] + 2 * p[1][j]))
    a0 = (1,) + (0,) * (config.dim + 1)
    return PointConfiguration(config.dim + 1, tuple(
        (lab, ((h[i] + h[j]) * h[-1],) + h) for lab, h in placed) + (("a0", a0),))


@dataclass(frozen=True)
class CellClassification:
    """The four-way split of top cells of a lifted placing triangulation."""

    U0: tuple[HalfSimplex, ...]
    U1: tuple[HalfSimplex, ...]
    Uprime: tuple[HalfSimplex, ...]
    Udoubleprime: tuple[HalfSimplex, ...]


def classify_blowup_cells(t: Triangulation, i: int,
                          j: int) -> CellClassification:
    """Split the cells of a placed lift (see `lift_to_H`) of the base center
    directions i, j, which are directions i + 1 and j + 1 of the lift."""
    if t.config.homogeneous[t.placement_order[-1]] != \
            (1,) + (0,) * t.config.dim:
        raise ClassificationError(
            "classification needs a lift placed with the a0 ray last")
    ci, cj = i + 1, j + 1
    u0, u1, up, upp = [], [], [], []
    for cell in t.cells:
        has0 = 0 in cell.infinite_directions
        hasi = ci in cell.infinite_directions
        hasj = cj in cell.infinite_directions
        if has0 and not hasi and not hasj:
            u0.append(cell)
        elif hasi and not has0 and not hasj:
            u1.append(cell)
        elif has0 and (hasi or hasj):
            up.append(cell)
        elif not has0 and (hasi == hasj):
            upp.append(cell)
        else:
            raise ClassificationError(
                f"cell {cell.provenance} contains the second center ray but "
                "neither the exceptional ray nor the first center ray")
    return CellClassification(tuple(u0), tuple(u1), tuple(up), tuple(upp))


def _contract(cell: HalfSimplex, drop_direction: int) -> HalfSimplex:
    """Delete one infinite direction and the a0 coordinate of every vertex."""
    dirs = frozenset(d - 1 for d in cell.infinite_directions if d != drop_direction)
    finite = tuple(v[1:] for v in cell.finite_vertices)
    return HalfSimplex(cell.dim - 1, finite, dirs, provenance=cell.provenance)


def alpha(cell: HalfSimplex, classification: CellClassification,
          i: int) -> HalfSimplex:
    """The push-forward-compatible bijection from Uprime + U1 to the base
    cells; i is the first base center direction."""
    if cell in classification.Uprime:
        return _contract(cell, drop_direction=0)
    if cell in classification.U1:
        return _contract(cell, drop_direction=i + 1)
    raise ClassificationError("alpha is only defined on Uprime and U1 cells")


def link_cells(t: Triangulation) -> tuple[HalfSimplex, ...]:
    """The base triangulation: links of the a0 ray, i.e. contractions of the
    top cells containing it."""
    return tuple(_contract(c, 0) for c in t.cells if 0 in c.infinite_directions)
