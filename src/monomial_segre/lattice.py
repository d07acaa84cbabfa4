"""Exponent-vector arithmetic for monomial ideal presentations.

A presentation is a list of lattice points in Z^m, one per generating
monomial, with respect to an ordered list of m divisor variables.
Variable indices are 0-based here; the 1-based convention of the
interchange files is handled by the CLI parser.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from .errors import DimensionMismatchError, MonomialSegreError

ExponentVector = tuple[int, ...]


def default_labels(m: int) -> tuple[str, ...]:
    return tuple(f"X{i + 1}" for i in range(m))


@dataclass(frozen=True)
class MonomialPresentation:
    num_vars: int
    generators: tuple[ExponentVector, ...]
    variable_labels: tuple[str, ...] = field(default=())

    def __post_init__(self):
        if self.num_vars < 1:
            raise MonomialSegreError("num_vars must be positive")
        gens = tuple(tuple(g) for g in self.generators)
        object.__setattr__(self, "generators", gens)
        if not gens:
            raise MonomialSegreError("a presentation needs at least one generator")
        for g in gens:
            if any(type(a) is not int for a in g):
                raise MonomialSegreError(f"non-integer exponent in generator {g}")
            if len(g) != self.num_vars:
                raise DimensionMismatchError(
                    f"generator {g} has length {len(g)}, expected {self.num_vars}")
            if any(a < 0 for a in g):
                raise MonomialSegreError(f"negative exponent in generator {g}")
        if len(set(gens)) != len(gens):
            raise MonomialSegreError("duplicate generators are not accepted")
        labels = tuple(self.variable_labels) or default_labels(self.num_vars)
        if len(labels) != self.num_vars:
            raise DimensionMismatchError("one label per variable is required")
        if len(set(labels)) != len(labels):
            raise MonomialSegreError("variable labels must be unique")
        object.__setattr__(self, "variable_labels", labels)

    def with_generators(self, gens: Iterable[ExponentVector]) -> "MonomialPresentation":
        return MonomialPresentation(self.num_vars, tuple(gens), self.variable_labels)


def presentation(gens: Iterable[Iterable[int]], num_vars: int | None = None,
                 labels: Iterable[str] | None = None) -> MonomialPresentation:
    gens = tuple(tuple(g) for g in gens)
    if num_vars is None:
        if not gens:
            raise MonomialSegreError("cannot infer num_vars from an empty generator list")
        num_vars = len(gens[0])
    return MonomialPresentation(num_vars, gens, tuple(labels) if labels else ())


def dominates(u: ExponentVector, v: ExponentVector) -> bool:
    """u >= v componentwise."""
    return all(a >= b for a, b in zip(u, v))


def minimalize(p: MonomialPresentation) -> MonomialPresentation:
    """Drop every generator dominated by another; survivor order is preserved."""
    survivors = []
    for u in p.generators:
        if any(v != u and dominates(u, v) for v in p.generators):
            continue
        survivors.append(u)
    return p.with_generators(survivors)


def residual_split(p: MonomialPresentation) -> tuple[ExponentVector, MonomialPresentation]:
    """Largest common monomial factor d and the translated residual presentation."""
    d = tuple(min(g[i] for g in p.generators) for i in range(p.num_vars))
    residual = p.with_generators(
        tuple(a - b for a, b in zip(g, d)) for g in p.generators)
    return d, residual


def support(g: ExponentVector) -> frozenset[int]:
    return frozenset(i for i, a in enumerate(g) if a > 0)


def support_cover_check(p: MonomialPresentation, variables: Iterable[int]) -> bool:
    """True iff the ideal generated by {X_j : j in variables} contains the ideal of p.

    Equivalently: every generator has a positive entry at some index in
    ``variables`` (0-based).
    """
    vs = set(variables)
    if any(v < 0 or v >= p.num_vars for v in vs):
        raise MonomialSegreError(f"variable indices {vs} out of range")
    return all(any(g[j] > 0 for j in vs) for g in p.generators)
