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

The climb is incremental (`Climb`).  A position names one divisor with one
ray for the whole tower, so each generator's exponent on it, and the least
of them, never change: a blow-up only appends E's column, row[i] + row[j].
A facet's verdicts read those columns on the facet's positions and nothing
else: whether it is bad (every residual row is positive somewhere on it, so
the residual scheme meets its stratum), and each pair's best slot on it.  So
they are exact for as long as the facet lives, and each is computed at most
once.  A blow-up removes only the facets through both centers, and those
never come back, since no later facet holds that edge.  The scheme is
a divisor when no bad facet is left, on the base ring as on every level
above, so the climb decides a tower of depth 0 too; `scheme_is_divisor`
finds the same verdict from scratch, and runs once per tower, on the top,
to confirm it.  And by the argument above, a pair before the worked pair
has no slot and never gets one back, so the pair scan resumes at the
worked pair instead of the first.

The cap is a budget, not a divergence test: a tower can be finite and
still deeper than it.  The five-generator ideal
2,0,1,0;0,3,0,1;1,1,0,2;0,0,2,1;1,0,1,1 needs 411 blow-ups."""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from itertools import combinations
from operator import ge, mul, neg, sub
from typing import Sequence

from .chow import BlowupStep, LevelRing, blow_up, scheme_is_divisor
from .errors import (LevelMismatchError, MonomialSegreError,
                     NoAdmissibleCenterError, TowerDivergenceError)
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
    maximal minors w of those d - 1 rows (w_c is the determinant with the
    unit row e_c on top of them), up to sign: the ray is w or -w, whichever
    is >= 0, if either is."""
    d = len(rows[a])
    delta = tuple(map(sub, rows[a], rows[b]))
    others = [tuple(map(sub, g, rows[a]))
              for k, g in enumerate(rows) if k not in (a, b)]
    units = [tuple(int(k == m) for k in range(d)) for m in range(d)]
    for tight in combinations(units + others, d - 2):
        system = (delta,) + tight
        w = [det((e,) + system) for e in units]
        if min(w) < 0:
            w = list(map(neg, w))
        if min(w) >= 0 and any(w) and all(sum(map(mul, row, w)) >= 0
                                          for row in others):
            return True
    return False


class Climb:
    """The state of one tower's climb, for the base presentation p from the
    ring r up: the generators' exponent rows, the column minima d, the live
    facets, the facets that are bad (every residual row is positive
    somewhere on them), and the worked pair with its slots (see
    `select_center`).  The scheme is a divisor when no bad facet is left.

    A position names one divisor with one ray for the whole tower, so a
    facet's rows, its d, its verdict and its slots never change while it
    lives: `advance` adds one column per row (row[i] + row[j], since E's ray
    is v_i + v_j), drops the facets through both centers, and computes
    verdicts only for the facets it creates; their slots wait in `fresh`
    for the next `select_center`, so the last level computes none."""

    def __init__(self, r: LevelRing, p: MonomialPresentation):
        self.ring = r
        self.n = n = len(r.rays[0])
        # rank[k] orders the positions as `LevelRing.listing` does: the
        # exceptional ones newest first, then the base ones in order
        self.rank = [k if k < n else n - 1 - k for k in range(r.num_vars)]
        gens = p.generators
        self.rows = [list(r.exponents(g)) for g in gens]
        self.d = list(map(min, zip(*self.rows)))
        minimal = [k for k, g in enumerate(gens)
                   if not any(h != g and all(map(ge, g, h)) for h in gens)]
        self.pairs = list(combinations(minimal, 2))
        self.worked = 0
        self.slots: list | None = None  # the worked pair's heap, once built
        self.fresh: list[frozenset[int]] = []  # facets not yet in the heap
        self.live: set[frozenset[int]] = set()
        self.bad: set[frozenset[int]] = set()
        for f in r.facets:
            self._add(f)

    def slot(self, f: frozenset[int]) -> tuple | None:
        """The worked pair's top edge (i, j) of the facet f with delta_i > 0
        > delta_j, as (score, rank[i], rank[j], i, j, f) with score
        delta_j - delta_i, so that the least tuple is the slot
        `select_center` blows up; None when the pair has no two signs on f.
        It is a slot when the pair is co-minimal on f (`is_co_minimal`)."""
        a, b = self.pairs[self.worked]
        u, v, rank = self.rows[a], self.rows[b], self.rank
        hi, ri, i = min((v[k] - u[k], rank[k], k) for k in f)  # -delta_i
        lo, rj, j = min((u[k] - v[k], rank[k], k) for k in f)
        if hi >= 0 or lo >= 0:
            return None
        return lo + hi, ri, rj, i, j, f

    def is_co_minimal(self, f: frozenset[int]) -> bool:
        """True when the worked pair is co-minimal on f (`co_minimal`)."""
        return co_minimal([tuple(row[k] for k in f) for row in self.rows],
                          *self.pairs[self.worked])

    def _add(self, f: frozenset[int], maybe_bad: bool = True) -> None:
        self.live.add(f)
        d = self.d
        if maybe_bad and all(any(row[k] > d[k] for k in f)
                             for row in self.rows):
            self.bad.add(f)
        self.fresh.append(f)

    def divisor(self) -> ExponentVector | None:
        """d when no bad facet is left, so that the total transform is d plus
        an empty residual scheme, else None."""
        return None if self.bad else tuple(self.d)

    def advance(self, step: BlowupStep) -> None:
        """Follow the blow-up step up from the climb's ring: the facets
        through both centers (`BlowupStep.split`) go, and each leaves two
        pieces through E."""
        if step.lower is not self.ring:
            raise LevelMismatchError("the blow-up is not from this ring")
        i, j = step.center
        e = len(self.d)
        for row in self.rows:
            row.append(row[i] + row[j])
        self.d.append(min(row[e] for row in self.rows))
        self.rank.append(self.n - 1 - e)
        # a row least on all of f is least on E too, whose column is the sum
        # of i's and j's, so only the pieces of a bad facet can be bad
        for f in step.split:
            self.live.remove(f)
            bad = f in self.bad
            self.bad.discard(f)
            self._add(f - {i} | {e}, bad)
            self._add(f - {j} | {e}, bad)
        self.ring = step.upper


def select_center(climb: Climb) -> tuple[int, int] | None:
    """The center the rule of the module docstring picks on the climb's
    ring for its base presentation p: the top-scoring slot of the first
    pair of minimal generators that has one, or None.  Tied slots go to the
    i first in `LevelRing.listing` (the newest exceptional divisor first,
    then the base divisors in order), then to the j first there, and the
    pair comes back in that order.

    The climb is the tower's, so the rule is asked on any ring r for p as
    `select_center(Climb(r, p))`.  Pairs before the climb's worked pair
    have no slot and never get one back (the module docstring), so the
    scan resumes at the worked pair.  That pair's best edge of two signs on
    each facet sits in a heap, built when the pair is first worked and fed
    here with the edges of the facets each blow-up creates (`Climb.fresh`).
    An edge that comes to the top is dropped when its facet was removed or
    the pair is not co-minimal there, and is otherwise the slot to blow up,
    which removes its facet.  So along a tower `co_minimal` runs at most
    once per pair and facet, and never on a facet removed before its edge
    came to the top.

    None means p is a divisor on the ring.  Start at an interior point of a
    facet, at a minimal generator attaining the least exponent there, and
    walk to any point of the facet: the least exponent can change hands
    only where it is tied between two minimal generators, a co-minimal
    pair, and each such pair is one-signed on the facet."""
    while climb.worked < len(climb.pairs):
        if climb.slots is None:
            climb.slots = [s for f in climb.live if (s := climb.slot(f))]
            heapify(climb.slots)
        else:
            for f in climb.fresh:
                if s := climb.slot(f):
                    heappush(climb.slots, s)
        climb.fresh.clear()
        slots = climb.slots
        while slots:
            _, ki, kj, i, j, f = slots[0]
            if f in climb.live and climb.is_co_minimal(f):
                return (i, j) if ki < kj else (j, i)
            heappop(slots)
        climb.worked += 1
        climb.slots = None
    return None


def principalize(r0: LevelRing, p0: MonomialPresentation,
                 cap: int = DEFAULT_CAP) -> TowerTrace:
    """Blow up at `select_center` until the total transform of p0 is a
    divisor.

    p0 is over the base ring r0, and every level reads its generators'
    exponents through its rays.  One `Climb` follows the tower from r0 up,
    and decides depth 0 as it decides every level: each level asks it for
    the divisor first and stops there; otherwise `select_center` picks the
    center from the climb, `blow_up` subdivides the ring's complex, and the
    climb advances.  `scheme_is_divisor` then confirms the top from
    scratch, once per tower, and a disagreement raises.  After cap blow-ups
    without a divisor, TowerDivergenceError carries the partial trace (the
    CLI prints its centers)."""
    steps: list[BlowupStep] = []
    climb = Climb(r0, p0)
    while (d := climb.divisor()) is None:
        if len(steps) == cap:
            raise TowerDivergenceError(
                f"no divisor reached within {cap} blow-ups",
                trace=TowerTrace(tuple(steps), climb.ring,
                                 (0,) * climb.ring.num_vars))
        center = select_center(climb)
        if center is None:
            raise NoAdmissibleCenterError(
                "non-divisor presentation leaves select_center no slot of "
                "any minimal generator pair; this indicates a model bug")
        step = blow_up(climb.ring, *center)
        climb.advance(step)
        steps.append(step)
    if scheme_is_divisor(climb.ring, p0) != d:
        raise MonomialSegreError(
            f"the climb's divisor {d} is not the top's; this indicates a "
            "model bug")
    return TowerTrace(tuple(steps), climb.ring, d)
