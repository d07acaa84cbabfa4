"""Drive a tower of codimension-2 blow-ups until the transformed monomial
scheme is a divisor.

One center rule, `select_center`: take the first incomparable generator
pair, strip its gcd, and blow up at the largest-exponent slot of the two
leftover supports.  Termination is empirical (a cap turns runaway towers
into a reported error carrying the partial trace)."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .chow import (BlowupStep, LevelRing, blow_up, pullback_generators,
                   scheme_is_divisor)
from .errors import NoAdmissibleCenterError, TowerDivergenceError
from .lattice import ExponentVector, MonomialPresentation

CENTER_RULE = "euclid"

DEFAULT_CAP = 200


@dataclass(frozen=True)
class TowerTrace:
    levels: tuple[tuple[LevelRing, MonomialPresentation], ...]
    steps: tuple[BlowupStep, ...]
    terminal_divisor: ExponentVector

    @property
    def top_ring(self) -> LevelRing:
        return self.levels[-1][0]


def admissible_pairs(r: LevelRing, p: MonomialPresentation):
    """Non-nil variable pairs (i, j) in which two generators are
    incomparable."""
    gens = p.generators
    for i in range(r.num_vars):
        for j in range(i + 1, r.num_vars):
            if r.stratum_is_empty({r.variables[i], r.variables[j]}):
                continue
            for a in range(len(gens)):
                for b in range(a + 1, len(gens)):
                    u, v = gens[a], gens[b]
                    if (u[i] - v[i]) * (u[j] - v[j]) < 0:
                        yield i, j
                        break
                else:
                    continue
                break


def ring_edges(r: LevelRing) -> set[frozenset[str]]:
    """The variable pairs whose stratum is nonempty: the edges of the ring's
    complex, read off its facets in one pass."""
    return {frozenset(e) for f in r.facets for e in combinations(f, 2)}


def select_center(r: LevelRing, p: MonomialPresentation) -> tuple[int, int] | None:
    """Center from the first incomparable generator pair: strip the pairwise
    gcd, then blow up at the largest-exponent slot across the two leftover
    supports; None when no admissible pair exists.  A slot pair qualifies
    when it is an edge of the ring's complex (`ring_edges`, built once per
    call rather than asking every facet about every pair).

    Sticking with one generator pair matters.  The exceptional exponents of
    the attacked slot shrink like a run of the Euclidean algorithm, and a
    pair once comparable stays comparable under total transforms, so pairs
    get retired one by one.  Scanning all pairs greedily instead lets each
    new exceptional re-bridge the two supports and the driver orbits."""
    gens = p.generators
    edges = ring_edges(r)
    labels = r.variables
    for a in range(len(gens)):
        for b in range(a + 1, len(gens)):
            u, v = gens[a], gens[b]
            if all(x <= y for x, y in zip(u, v)) or \
               all(y <= x for x, y in zip(u, v)):
                continue
            w = [x - min(x, y) for x, y in zip(u, v)]
            z = [y - min(x, y) for x, y in zip(u, v)]
            slots = []
            for i in range(len(w)):
                if w[i] == 0:
                    continue
                for j in range(len(z)):
                    if z[j] == 0:
                        continue
                    if frozenset((labels[i], labels[j])) not in edges:
                        continue
                    slots.append((w[i] + z[j], i, j))
            if not slots:
                continue  # this pair's leftover scheme is already empty
            _, i, j = max(slots, key=lambda s: (s[0], -s[1], -s[2]))
            return (i, j) if i < j else (j, i)
    return None


def principalize(r0: LevelRing, p0: MonomialPresentation,
                 cap: int = DEFAULT_CAP) -> TowerTrace:
    """Blow up at selected centers until the total transform is a divisor.

    Each level asks `scheme_is_divisor` first and stops there; otherwise
    `select_center` picks the center, `blow_up` subdivides the ring's
    complex and `pullback_generators` takes the total transform.  After cap
    blow-ups without a divisor, TowerDivergenceError carries the partial
    trace (the CLI prints its centers)."""
    if p0.variable_labels != r0.variables:
        p0 = MonomialPresentation(p0.num_vars, p0.generators, r0.variables)
    ring, pres = r0, p0
    levels = [(ring, pres)]
    steps: list[BlowupStep] = []
    for iteration in range(cap + 1):
        d = scheme_is_divisor(ring, pres)
        if d is not None:
            return TowerTrace(tuple(levels), tuple(steps), d)
        if iteration == cap:
            break
        center = select_center(ring, pres)
        if center is None:
            raise NoAdmissibleCenterError(
                "non-divisor presentation admits no incomparability witness; "
                "this indicates a model bug")
        i, j = ring.variables[center[0]], ring.variables[center[1]]
        step = blow_up(ring, i, j)
        pres = pullback_generators(step, pres)
        ring = step.upper
        steps.append(step)
        levels.append((ring, pres))
    partial = TowerTrace(tuple(levels), tuple(steps), (0,) * ring.num_vars)
    raise TowerDivergenceError(
        f"no divisor reached within {cap} blow-ups", trace=partial)
