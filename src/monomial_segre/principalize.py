"""Drive a tower of codimension-2 blow-ups until the transformed monomial
scheme is a divisor.

The one center rule, `select_center`, reads the minimal generators of the
base presentation on the level's divisors.  For a pair of them with
delta = u - v, a slot is an edge (i, j) of a facet on which the pair is
co-minimal (both attain the least exponent somewhere in the facet's cone)
with delta_i > 0 > delta_j, scored delta_i - delta_j.  The rule works the
first pair that has a slot, and blows up its top-scoring slot (cf. Goward's
codimension-2 principalization of monomial ideals).

It terminates.  A blow-up at (i, j) cuts each facet f through i and j into
two, each with the exceptional divisor E in place of i or j; E's ray is
v_i + v_j, so its delta is delta_i + delta_j.  A piece's cone lies in f's,
so it is co-minimal for a pair only where f was.  A pair with no slot has no
two signs on a co-minimal facet, so the new ray takes the side of i and j
and the pair never gets a slot back: the worked pair never moves back.
While a pair is worked, its top slot goes, and each new slot is an edge
(E, k) of a piece of f, which scores below the old slot (i, k) or (k, j)
of f beside it, and so below the top.  So the multiset of the worked
pair's scores falls in the well-founded multiset order, the pair runs out
of slots, and the next pair is worked.  With no slot left, the scheme is a
divisor (see `select_center`).

The cap is a budget, not a divergence test: a tower can be finite and
still deeper than it.  The five-generator ideal
2,0,1,0;0,3,0,1;1,1,0,2;0,0,2,1;1,0,1,1 needs 411 blow-ups."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from operator import ge, mul, neg, sub
from typing import Sequence

from .chow import BlowupStep, LevelRing, blow_up, scheme_is_divisor
from .errors import NoAdmissibleCenterError, TowerDivergenceError
from .lattice import ExponentVector, MonomialPresentation
from .polytope import det

# the rule's name in job documents and in the `tower` trace.  The rule is the
# relevant-pair rule of `select_center`; the name "euclid" is kept only so
# that job documents and outputs stay stable.
CENTER_RULE = "euclid"

# a work bound, not the depth of the deepest tower: valid draws need 293
# levels (n = 3) and up to 1,245 (n = 4), and the five-generator ideal 411.
# It sits above the 230 levels of 2,4,1,0;3,0,0,3;4,0,3,0, the regression in
# test_deep_towers_reach_a_divisor
DEFAULT_CAP = 250


@dataclass(frozen=True)
class TowerTrace:
    """The blow-ups of a tower, lowest first, its top ring, and the divisor
    the base ideal's total transform is on that ring (zero on a partial
    trace).  The rings below the top are the steps' lower rings."""

    steps: tuple[BlowupStep, ...]
    top_ring: LevelRing
    terminal_divisor: ExponentVector


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


def select_center(r: LevelRing, p: MonomialPresentation,
                  memo: dict | None = None) -> tuple[int, int] | None:
    """The center the rule of the module docstring picks on r for the base
    presentation p: the top-scoring slot of the first pair of minimal
    generators that has one, or None.  Tied slots go to the i first in
    `LevelRing.listing` (the newest exceptional divisor first, then the base
    divisors in order), then to the j first there, and the pair comes back
    in that order.

    Whether a pair is co-minimal on a facet depends only on the generators'
    exponents over the facet's divisors (`co_minimal`).  Up one tower a
    position names one divisor with one ray, so those exponents are fixed
    by the facet, and the answer is kept in memo under the pair and the
    facet: a facet the blow-ups leave alone is not asked again.  A memo
    therefore serves one tower, of one p over one base ring, and a caller
    passes a fresh one for each tower.

    None means p is a divisor on r.  Start at an interior point of a facet,
    at a minimal generator attaining the least exponent there, and walk to
    any point of the facet: the least exponent can change hands only where
    it is tied between two minimal generators, a co-minimal pair, and each
    such pair is one-signed on the facet."""
    gens = p.generators
    minimal = [k for k, g in enumerate(gens)
               if not any(h != g and all(map(ge, g, h)) for h in gens)]
    rows = [r.exponents(g) for g in gens]
    rank = {k: m for m, k in enumerate(r.listing)}
    memo = {} if memo is None else memo
    for a, b in combinations(minimal, 2):
        delta = tuple(map(sub, rows[a], rows[b]))
        slots = set()
        for f in r.facets:
            above = [i for i in f if delta[i] > 0]
            below = [j for j in f if delta[j] < 0]
            if not (above and below):
                continue
            key = (a, b, f)
            if key not in memo:
                memo[key] = co_minimal(
                    [tuple(row[k] for k in f) for row in rows], a, b)
            if memo[key]:
                slots.update((delta[j] - delta[i], rank[i], rank[j])
                             for i in above for j in below)
        if slots:
            _, ri, rj = min(slots)  # the top score, then the least ranks
            return r.listing[min(ri, rj)], r.listing[max(ri, rj)]
    return None


def principalize(r0: LevelRing, p0: MonomialPresentation,
                 cap: int = DEFAULT_CAP) -> TowerTrace:
    """Blow up at `select_center` until the total transform of p0 is a
    divisor.

    p0 is over the base ring r0, and every level reads its generators'
    exponents through its rays.  Each level asks `scheme_is_divisor` first
    and stops there; otherwise `select_center`, with one memo for the
    tower, picks the center and `blow_up` subdivides the ring's complex.
    After cap blow-ups without a divisor, TowerDivergenceError carries the
    partial trace (the CLI prints its centers)."""
    ring = r0
    steps: list[BlowupStep] = []
    memo: dict = {}
    while (d := scheme_is_divisor(ring, p0)) is None:
        if len(steps) == cap:
            raise TowerDivergenceError(
                f"no divisor reached within {cap} blow-ups",
                trace=TowerTrace(tuple(steps), ring, (0,) * ring.num_vars))
        center = select_center(ring, p0, memo)
        if center is None:
            raise NoAdmissibleCenterError(
                "non-divisor presentation leaves select_center no slot of "
                "any minimal generator pair; this indicates a model bug")
        step = blow_up(ring, *center)
        ring = step.upper
        steps.append(step)
    return TowerTrace(tuple(steps), ring, d)
