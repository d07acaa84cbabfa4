"""Drive a tower of codimension-2 blow-ups until the transformed monomial
scheme is a divisor.

The center rule, `select_center`: take the first incomparable generator
pair, strip its gcd, and blow up at the largest-exponent slot of the two
leftover supports.  Both it and the fallback rule `select_relevant_center`
terminate.  Fix the pair being worked on, with delta = u - v read on the
divisors, and score each edge (i, j) with delta_i > 0 > delta_j by
delta_i - delta_j.  Blowing up the top-scoring edge removes it, and every
new scored edge goes through the exceptional ray v_i + v_j, whose delta is
delta_i + delta_j: it scores below the top, and below the old edge (i, k)
or (j, k) beside it.  So the multiset of scores falls in the multiset
order and the pair runs out of slots.  It never gets one back, because a
later ray is the sum of two rays on the same side of delta.  The cap is a
budget, not a divergence test: a tower can be finite and still deeper than
it (the five-generator ideal 2,0,1,0;0,3,0,1;1,1,0,2;0,0,2,1;1,0,1,1 needs
more than 800 blow-ups under `select_center`)."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from operator import ge, mul, neg, sub
from typing import Sequence

from .chow import BlowupStep, LevelRing, blow_up, scheme_is_divisor
from .errors import NoAdmissibleCenterError, TowerDivergenceError
from .lattice import ExponentVector, MonomialPresentation
from .polytope import det

CENTER_RULE = "euclid"
FALLBACK_RULE = "euclid_relevant"

DEFAULT_CAP = 200


@dataclass(frozen=True)
class TowerTrace:
    """The blow-ups of a tower, lowest first, its top ring, the divisor the
    base ideal's total transform is on that ring (zero on a partial trace),
    and the rule that chose the centers (CENTER_RULE or FALLBACK_RULE).
    The rings below the top are the steps' lower rings."""

    steps: tuple[BlowupStep, ...]
    top_ring: LevelRing
    terminal_divisor: ExponentVector
    center_rule: str


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


def co_minimal(rows: Sequence[ExponentVector], a: int, b: int) -> bool:
    """True when rows a and b both attain min_k rows[k].w at some nonzero
    w >= 0.  Such w form a pointed cone, which is nonzero exactly when it
    has an extreme ray: a solution of delta.w = 0 and d - 2 more of its
    constraints held tight (d the row length), spanned by the signed
    maximal minors of those d - 1 rows."""
    d = len(rows[a])
    delta = tuple(map(sub, rows[a], rows[b]))
    bounds = [tuple(int(k == m) for k in range(d)) for m in range(d)]
    bounds += [tuple(map(sub, g, rows[a]))
               for k, g in enumerate(rows) if k not in (a, b)]
    for tight in combinations(bounds, d - 2):
        system = (delta,) + tight
        w = tuple((-1) ** c * det([row[:c] + row[c + 1:] for row in system])
                  for c in range(d))
        for ray in (w, tuple(map(neg, w))) if any(w) else ():
            if all(sum(map(mul, row, ray)) >= 0 for row in bounds):
                return True
    return False


def select_relevant_center(r: LevelRing, p: MonomialPresentation,
                           memo: dict | None = None) -> tuple[int, int] | None:
    """`select_center` with two cuts, for towers it leaves too deep.  Pairs
    are taken among the minimal generators of p only, and a slot counts
    only on a facet on which the pair is co-minimal: both generators attain
    the least exponent at some point of the facet's cone (`co_minimal` on
    the generators' exponents over the facet's divisors).  Those exponents
    are all the answer depends on, so it is kept in memo under the pair and
    them, and a facet the blow-ups leave alone is not asked again; a caller
    passes one memo per tower.

    None means p is a divisor on r.  Start at an interior point of a facet,
    at a minimal generator attaining the least exponent there, and walk to
    any point of the facet: the least exponent can change hands only where
    it is tied between two minimal generators, a co-minimal pair, and each
    such pair is one-signed on the facet.  A facet's pieces are co-minimal
    only where it was, so the measure in the module docstring still falls."""
    gens = p.generators
    minimal = [k for k, g in enumerate(gens)
               if not any(h != g and all(map(ge, g, h)) for h in gens)]
    rows = [r.exponents(g) for g in gens]
    memo = {} if memo is None else memo
    for a, b in combinations(minimal, 2):
        delta = tuple(map(sub, rows[a], rows[b]))
        slots = set()
        for f in map(sorted, r.facets):
            above = [i for i in f if delta[i] > 0]
            below = [j for j in f if delta[j] < 0]
            if not (above and below):
                continue
            key = (a, b, tuple(tuple(row[k] for k in f) for row in rows))
            if key not in memo:
                memo[key] = co_minimal(key[2], a, b)
            if memo[key]:
                slots.update((delta[i] - delta[j], i, j)
                             for i in above for j in below)
        if slots:
            _, i, j = max(slots, key=lambda s: (s[0], -s[1], -s[2]))
            return (i, j) if i < j else (j, i)
    return None


def _climb(r0: LevelRing, p0: MonomialPresentation, cap: int, select):
    """Blow up at select(ring, p0) until the total transform of p0 is a
    divisor or cap blow-ups are done: the steps, the last ring, and the
    divisor (None at the cap)."""
    ring = r0
    steps: list[BlowupStep] = []
    for iteration in range(cap + 1):
        d = scheme_is_divisor(ring, p0)
        if d is not None:
            return steps, ring, d
        if iteration == cap:
            break
        center = select(ring, p0)
        if center is None:
            raise NoAdmissibleCenterError(
                "non-divisor presentation admits no incomparability witness; "
                "this indicates a model bug")
        step = blow_up(ring, *center)
        ring = step.upper
        steps.append(step)
    return steps, ring, None


def principalize(r0: LevelRing, p0: MonomialPresentation,
                 cap: int = DEFAULT_CAP) -> TowerTrace:
    """Blow up at selected centers until the total transform of p0 is a
    divisor.

    p0 is over the base ring r0, and every level reads its generators'
    exponents through its rays.  Each level asks `scheme_is_divisor` first
    and stops there; otherwise `select_center` picks the center and
    `blow_up` subdivides the ring's complex.  After cap blow-ups without a
    divisor, the tower starts over from r0 under `select_relevant_center`,
    with one memo for the climb, which goes when principalize returns.
    That rule is mostly shallower (depth 38 against 90 on the deepest
    acceptance-corpus tower) but moves the centers of many towers, so it
    runs only where `select_center` ran out.  When it runs out too,
    TowerDivergenceError carries `select_center`'s partial trace (the CLI
    prints its centers)."""
    steps, ring, d = _climb(r0, p0, cap, select_center)
    if d is not None:
        return TowerTrace(tuple(steps), ring, d, CENTER_RULE)
    partial = TowerTrace(tuple(steps), ring, (0,) * ring.num_vars, CENTER_RULE)
    memo: dict = {}
    steps, ring, d = _climb(r0, p0, cap,
                            lambda r, p: select_relevant_center(r, p, memo))
    if d is not None:
        return TowerTrace(tuple(steps), ring, d, FALLBACK_RULE)
    raise TowerDivergenceError(
        f"no divisor reached within {cap} blow-ups", trace=partial)
