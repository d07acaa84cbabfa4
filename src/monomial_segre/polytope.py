"""Exact polyhedral engine: configurations with rays, placing triangulations,
normalized volumes, the blow-up lift, and the replay of a placed lift that
the blow-up invariance check reads.

Vertices at infinity are handled homogeneously: a finite point v becomes
(v, 1), the ray in coordinate direction j becomes (e_j, 0).  Every predicate
is the sign of an integer determinant, so there is no epsilon anywhere, and
the determinant that places a cell is its normalized volume, which the cell
keeps.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Sequence

from .errors import (ClassificationError, DegenerateConfigurationError,
                     DimensionMismatchError, MonomialSegreError)
from .lattice import ExponentVector, MonomialPresentation

Label = str


def det(rows: Sequence[Sequence[int]]) -> int:
    """Exact determinant of a square integer matrix.

    Sizes 0 to 5, the sizes placing in dimension 4 or less and the center
    rule's minors take, have closed forms: 2x2 products, the 3x3 cofactor
    expansion, and the Laplace expansion by the first two rows for 4x4 (over
    the 2x2 minors of the last two) and 5x5 (over the 3x3 minors of the last
    three).  Larger matrices go through fraction-free Bareiss elimination.
    A matrix that is not square raises `DimensionMismatchError` at every
    size."""
    n = len(rows)
    if n < len(_CLOSED_FORMS):
        try:
            return _CLOSED_FORMS[n](rows)
        except ValueError:   # a row of the wrong length did not unpack
            raise DimensionMismatchError(
                "determinant of a non-square matrix") from None
    if any(len(r) != n for r in rows):
        raise DimensionMismatchError("determinant of a non-square matrix")
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


def _det0(rows):
    return 1


def _det1(rows):
    (a0,), = rows
    return a0


def _det2(rows):
    (a0, a1), (b0, b1) = rows
    return a0 * b1 - a1 * b0


def _det3(rows):
    (a0, a1, a2), (b0, b1, b2), (c0, c1, c2) = rows
    return (a0 * (b1 * c2 - b2 * c1) - a1 * (b0 * c2 - b2 * c0)
            + a2 * (b0 * c1 - b1 * c0))


def _det4(rows):
    (a0, a1, a2, a3), (b0, b1, b2, b3), (c0, c1, c2, c3), \
        (d0, d1, d2, d3) = rows
    return ((a0 * b1 - a1 * b0) * (c2 * d3 - c3 * d2)
            - (a0 * b2 - a2 * b0) * (c1 * d3 - c3 * d1)
            + (a0 * b3 - a3 * b0) * (c1 * d2 - c2 * d1)
            + (a1 * b2 - a2 * b1) * (c0 * d3 - c3 * d0)
            - (a1 * b3 - a3 * b1) * (c0 * d2 - c2 * d0)
            + (a2 * b3 - a3 * b2) * (c0 * d1 - c1 * d0))


def _det5(rows):
    (a0, a1, a2, a3, a4), (b0, b1, b2, b3, b4), (c0, c1, c2, c3, c4), \
        (d0, d1, d2, d3, d4), (e0, e1, e2, e3, e4) = rows
    # mKL: the 2x2 minors of the last two rows on columns K, L
    m01 = d0 * e1 - d1 * e0
    m02 = d0 * e2 - d2 * e0
    m03 = d0 * e3 - d3 * e0
    m04 = d0 * e4 - d4 * e0
    m12 = d1 * e2 - d2 * e1
    m13 = d1 * e3 - d3 * e1
    m14 = d1 * e4 - d4 * e1
    m23 = d2 * e3 - d3 * e2
    m24 = d2 * e4 - d4 * e2
    m34 = d3 * e4 - d4 * e3
    # each 2x2 minor of the first two rows times the 3x3 minor of the last
    # three on the other columns, signed by the columns' parity
    return ((a0 * b1 - a1 * b0) * (c2 * m34 - c3 * m24 + c4 * m23)
            - (a0 * b2 - a2 * b0) * (c1 * m34 - c3 * m14 + c4 * m13)
            + (a0 * b3 - a3 * b0) * (c1 * m24 - c2 * m14 + c4 * m12)
            - (a0 * b4 - a4 * b0) * (c1 * m23 - c2 * m13 + c3 * m12)
            + (a1 * b2 - a2 * b1) * (c0 * m34 - c3 * m04 + c4 * m03)
            - (a1 * b3 - a3 * b1) * (c0 * m24 - c2 * m04 + c4 * m02)
            + (a1 * b4 - a4 * b1) * (c0 * m23 - c2 * m03 + c3 * m02)
            + (a2 * b3 - a3 * b2) * (c0 * m14 - c1 * m04 + c4 * m01)
            - (a2 * b4 - a4 * b2) * (c0 * m13 - c1 * m03 + c3 * m01)
            + (a3 * b4 - a4 * b3) * (c0 * m12 - c1 * m02 + c2 * m01))


_CLOSED_FORMS = (_det0, _det1, _det2, _det3, _det4, _det5)


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
    """Simplex with finite vertices plus unbounded coordinate directions,
    and its normalized volume.

    Every cell carries the volume its placing computed (see
    `placing_triangulation` and `_contract`), so the volume is required.
    It takes no part in equality or hashing, which, like `key`, see only
    the geometry and provenance."""

    dim: int
    finite_vertices: tuple[ExponentVector, ...]
    infinite_directions: frozenset[int]
    provenance: tuple[Label, ...] = ()
    volume: int = field(compare=False, kw_only=True)

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
    """A placing triangulation of a configuration: each placed cell as its
    label set and the normalized volume its placing computed, and the order
    the labels were placed in.

    A cell becomes a `HalfSimplex` only when it is read.  `cells` builds
    every cell on first read and keeps them, sorted by provenance (the
    labels in placement order); `cells_with` builds only the cells that
    hold a label, or only those that avoid it, in the same order."""

    config: PointConfiguration
    placed: tuple[tuple[frozenset[Label], int], ...]
    placement_order: tuple[Label, ...]

    @cached_property
    def cells(self) -> tuple[HalfSimplex, ...]:
        return self._build(self.placed)

    def cells_with(self, label: Label,
                   present: bool = True) -> tuple[HalfSimplex, ...]:
        """The cells whose labels hold label, or with present false the
        cells that avoid it, built now, in the order of `cells`."""
        return self._build([c for c in self.placed if (label in c[0]) == present])

    def _build(self, placed) -> tuple[HalfSimplex, ...]:
        order_index = {lab: k for k, lab in enumerate(self.placement_order)}
        return tuple(sorted(
            (_cell_from_labels(self.config, labels, order_index, volume)
             for labels, volume in placed),
            key=lambda s: s.provenance))


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
                      order_index: dict[Label, int], volume: int) -> HalfSimplex:
    hom = config.homogeneous
    labs = sorted(labels, key=lambda l: order_index[l])
    finite = tuple(hom[lab][:-1] for lab in labs if hom[lab][-1])
    dirs = frozenset(hom[lab].index(1) for lab in labs if not hom[lab][-1])
    return HalfSimplex(config.dim, finite, dirs, provenance=tuple(labs),
                       volume=volume)


def placing_triangulation(config: PointConfiguration,
                          order: Sequence[Label] | None = None) -> Triangulation:
    """Incremental (beneath-beyond) triangulation in homogeneous coordinates.

    The first dim+1 labels of the order that are linearly independent form the
    starting cell; every later label is coned over the boundary facets it
    strictly sees.  Points inside the current hull, and ties (point on a
    facet's span), create no cells.  The order defaults to the
    configuration's own.

    The boundary is kept oriented and updated in place (De Loera, Rambau and
    Santos, *Triangulations*, 8.2): each boundary facet is a vertex tuple f
    with a sign s, and x sees it iff s * det(f + x) > 0.  Only the starting
    cell needs a determinant to orient its facets.  Coning a seen facet f
    over x puts x in place of each vertex v in turn, which gives the new
    cell's facet opposite v; swapping x and v negates the determinant, so
    that facet keeps the sign of f.  A facet two new cells share is interior.

    The test's determinant is also the new cell's normalized volume
    (Euclidean volume times the dimension factorial): up to sign, det(f + x)
    is the determinant of the cell's homogeneous vectors, (v, 1) for a
    vertex and (e_d, 0) for a direction, and s * det(f + x) is positive
    exactly when x sees f.  So each cell keeps s * det(f + x) from the test
    that created it, and the starting cell |det(basis)|; no cell is
    measured twice.

    The result keeps each cell as its label set and that volume; a cell
    becomes a `HalfSimplex` when it is read (see `Triangulation`).
    """
    hom = config.homogeneous
    order = [lab for lab, _ in config.points] if order is None else list(order)
    if set(order) != hom.keys() or len(order) != len(hom):
        raise MonomialSegreError("order must enumerate all labels exactly once")

    d1 = config.dim + 1

    # starting simplex: greedy independent prefix.  Each label's vector is
    # reduced against the echelon rows (pivot column, row) of the basis so
    # far, fraction-free; it is independent when something is left
    basis: list[Label] = []
    skipped: list[Label] = []
    echelon: list[tuple[int, list[int]]] = []
    consumed = 0
    for lab in order:
        consumed += 1
        v = list(hom[lab])
        for col, row in echelon:
            if v[col]:
                v = [a * row[col] - v[col] * b for a, b in zip(v, row)]
        pivot = next((c for c, a in enumerate(v) if a), None)
        if pivot is None:
            skipped.append(lab)
        else:
            echelon.append((pivot, v))
            basis.append(lab)
        if len(basis) == d1:
            break
    if len(basis) < d1:
        raise DegenerateConfigurationError(
            "no full-dimensional starting simplex exists in the given order")

    # det(facet k + basis[k]) is (-1)^(dim-k) det(basis), and the facet's
    # outward sign is the opposite of that
    start = det([hom[b] for b in basis])
    cells: list[tuple[frozenset[Label], int]] = [(frozenset(basis), abs(start))]
    sign = 1 if start > 0 else -1
    boundary: dict[frozenset[Label], tuple[tuple[Label, ...], int]] = {}
    for k in range(d1):
        facet = tuple(basis[:k] + basis[k + 1:])
        boundary[frozenset(facet)] = (facet, sign * (-1) ** (d1 - k))

    for lab in skipped + order[consumed:]:
        x = hom[lab]
        seen = []
        for key, (facet, s) in boundary.items():
            volume = s * det([hom[f] for f in facet] + [x])
            if volume > 0:
                seen.append((key, facet, s, volume))
        for key, facet, s, volume in seen:
            del boundary[key]
            cells.append((key | {lab}, volume))
            for k in range(len(facet)):
                new = facet[:k] + (lab,) + facet[k + 1:]
                new_key = frozenset(new)
                if boundary.pop(new_key, None) is None:
                    boundary[new_key] = (new, s)

    return Triangulation(config, tuple(cells), tuple(order))


# -- blow-up lift and replay -------------------------------------------------

def lift_to_H(config: PointConfiguration, i: int, j: int) -> PointConfiguration:
    """Append the coordinate a0 = a_i + a_j before the homogenizing entry,
    and add the a0 ray; every base direction keeps its index, and a0 is
    direction config.dim, where `chow.blow_up` puts the exceptional divisor.

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
    a0 = (0,) * config.dim + (1, 0)
    return PointConfiguration(config.dim + 1, tuple(
        (lab, h[:-1] + ((h[i] + h[j]) * h[-1], h[-1])) for lab, h in placed)
        + (("a0", a0),))


@dataclass(frozen=True)
class BlowupReplay:
    """The top cells of a placed lift, split four ways.  Each U1 and U' cell
    is paired with its alpha image, the base cell it pushes forward to; the
    links are the base triangulation, the contractions of the cells that
    contain the a0 ray (U0 and U')."""

    U0: tuple[HalfSimplex, ...]
    U1: tuple[tuple[HalfSimplex, HalfSimplex], ...]
    Uprime: tuple[tuple[HalfSimplex, HalfSimplex], ...]
    Udoubleprime: tuple[HalfSimplex, ...]
    links: tuple[HalfSimplex, ...]


def _contract(cell: HalfSimplex, drop_direction: int) -> HalfSimplex:
    """Delete one infinite direction and the last coordinate, a0, of every
    vertex.  The image keeps the cell's volume.

    In the cell's homogeneous matrix, a vertex row is (v, v_i + v_j, 1)
    and a direction row (e_d, 0, 0), or (0, 1, 0) for a0.  Contracting a0
    deletes its row, a unit vector, and the a0 column, so |det| is kept.
    Contracting ray i (a U1 cell, without ray j or a0): after the column
    operation that subtracts columns i and j from a0, which keeps det, the
    a0 column is -1 in ray i's row and 0 elsewhere, so deleting that row
    and column keeps |det| too.  Either way what is left is the image's
    homogeneous matrix."""
    dirs = cell.infinite_directions - {drop_direction}
    finite = tuple(v[:-1] for v in cell.finite_vertices)
    return HalfSimplex(cell.dim - 1, finite, dirs, provenance=cell.provenance,
                       volume=cell.volume)


def blowup_replay(config: PointConfiguration, i: int, j: int) -> BlowupReplay:
    """Place the lift of config (see `lift_to_H`) at the base center
    directions i, j, which keep their indices in the lift, and split its
    cells.  A U1 cell's image contracts ray i; a U' cell's image is its
    link, which contracts a0, direction config.dim."""
    a0 = config.dim
    u0, u1, up, upp, links = [], [], [], [], []
    for cell in placing_triangulation(lift_to_H(config, i, j)).cells:
        has0 = a0 in cell.infinite_directions
        hasi = i in cell.infinite_directions
        hasj = j in cell.infinite_directions
        if has0:
            link = _contract(cell, a0)
            links.append(link)
            if hasi or hasj:
                up.append((cell, link))
            else:
                u0.append(cell)
        elif hasi and not hasj:
            u1.append((cell, _contract(cell, i)))
        elif hasi == hasj:
            upp.append(cell)
        else:
            raise ClassificationError(
                f"cell {cell.provenance} contains the second center ray but "
                "neither the exceptional ray nor the first center ray")
    return BlowupReplay(tuple(u0), tuple(u1), tuple(up), tuple(upp),
                        tuple(links))
