"""Drive a tower of codimension-2 blow-ups until the transformed monomial
scheme is a divisor.

One center rule, `select_center`: take the first incomparable generator
pair, strip its gcd, and blow up at the largest-exponent slot of the two
leftover supports.  Termination is empirical (a cap turns runaway towers
into a reported error carrying the partial trace)."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from operator import sub

from .chow import BlowupStep, LevelRing, blow_up, scheme_is_divisor
from .errors import NoAdmissibleCenterError, TowerDivergenceError
from .lattice import ExponentVector, MonomialPresentation

CENTER_RULE = "euclid"

DEFAULT_CAP = 200


@dataclass(frozen=True)
class TowerTrace:
    """The blow-ups of a tower, lowest first, its top ring, and the divisor
    the base ideal's total transform is on that ring (zero on a partial
    trace).  The rings below the top are the steps' lower rings."""

    steps: tuple[BlowupStep, ...]
    top_ring: LevelRing
    terminal_divisor: ExponentVector


def admissible_pairs(r: LevelRing, p: MonomialPresentation):
    """Non-nil variable pairs (i, j) in which the exponents on r of two
    generators of the base presentation p are incomparable."""
    gens = [r.exponents(g) for g in p.generators]
    for i, j in combinations(range(r.num_vars), 2):
        if r.stratum_is_empty((i, j)):
            continue
        if any((u[i] - v[i]) * (u[j] - v[j]) < 0
               for u, v in combinations(gens, 2)):
            yield i, j


def ring_edges(r: LevelRing) -> set[frozenset[int]]:
    """The position pairs whose stratum is nonempty: the edges of the ring's
    complex, read off its facets in one pass."""
    return {frozenset(e) for f in r.facets for e in combinations(f, 2)}


def select_center(r: LevelRing, p: MonomialPresentation) -> tuple[int, int] | None:
    """Center from the first incomparable generator pair of the base
    presentation p, read on r: with u and v the two generators' exponents on
    r's divisors and delta = u - v, blow up at the largest-scoring slot, an
    edge (i, j) of the ring's complex (`ring_edges`, built once per call)
    with delta_i > 0 > delta_j, scored delta_i - delta_j; None when no pair
    has a slot.  A comparable pair has none, and neither has a pair whose
    leftover scheme, after the pairwise gcd, is already empty.

    Sticking with one generator pair matters.  The exceptional exponents of
    the attacked slot shrink like a run of the Euclidean algorithm, and a
    pair once comparable stays comparable under total transforms, so pairs
    get retired one by one.  Scanning all pairs greedily instead lets each
    new exceptional re-bridge the two supports and the driver orbits."""
    gens = [r.exponents(g) for g in p.generators]
    edges = ring_edges(r)
    for u, v in combinations(gens, 2):
        delta = tuple(map(sub, u, v))
        below = [j for j, x in enumerate(delta) if x < 0]
        slots = [(x - delta[j], i, j)
                 for i, x in enumerate(delta) if x > 0 for j in below
                 if frozenset((i, j)) in edges]
        if slots:
            _, i, j = max(slots, key=lambda s: (s[0], -s[1], -s[2]))
            return (i, j) if i < j else (j, i)
    return None


def principalize(r0: LevelRing, p0: MonomialPresentation,
                 cap: int = DEFAULT_CAP) -> TowerTrace:
    """Blow up at selected centers until the total transform of p0 is a
    divisor.

    p0 is over the base ring r0, and every level reads its generators'
    exponents through its rays.  Each level asks `scheme_is_divisor` first
    and stops there; otherwise `select_center` picks the center and
    `blow_up` subdivides the ring's complex.  After cap blow-ups without a
    divisor, TowerDivergenceError carries the partial trace (the CLI prints
    its centers)."""
    ring = r0
    steps: list[BlowupStep] = []
    for iteration in range(cap + 1):
        d = scheme_is_divisor(ring, p0)
        if d is not None:
            return TowerTrace(tuple(steps), ring, d)
        if iteration == cap:
            break
        center = select_center(ring, p0)
        if center is None:
            raise NoAdmissibleCenterError(
                "non-divisor presentation admits no incomparability witness; "
                "this indicates a model bug")
        step = blow_up(ring, *center)
        ring = step.upper
        steps.append(step)
    partial = TowerTrace(tuple(steps), ring, (0,) * ring.num_vars)
    raise TowerDivergenceError(
        f"no divisor reached within {cap} blow-ups", trace=partial)
