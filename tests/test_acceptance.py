"""Acceptance suite: nine end-to-end criteria, one printed verdict line each.

The verdict lines bypass pytest's capture, so they appear in a plain
`pytest -v` log."""

import random
import time

import pytest

from monomial_segre.chow import ChowClass, base_ring, blow_up, pushforward
from monomial_segre.errors import TowerDivergenceError
from monomial_segre.lattice import presentation
from monomial_segre.polytope import blowup_replay, complement_configuration
from monomial_segre.segre import (blowup_invariance_check,
                                  residual_identity_check, segre_integral,
                                  segre_tower, simplex_contribution, verify)
from monomial_segre.series import TruncatedSeries, reciprocal_one_plus

from oracles import (cell, expand_terms, hvol, random_presentation, symbols,
                     variable)

STAIRCASE = presentation(((3, 0), (1, 1), (0, 3)))

CORPUS_SIZE = 100
CORPUS_BUDGET_SECONDS = 120.0


def report(capsys, criterion, label, ok):
    verdict = "PASS" if ok else "FAIL"
    with capsys.disabled():
        print(f"\n[criterion {criterion}] {label}: {verdict}", flush=True)
    return ok


@pytest.fixture(scope="module")
def corpus():
    """100 seeded random presentations with both pipelines evaluated at
    D_max = n + 3; shared by criteria 4, 6 and 7."""
    rnd = random.Random("acceptance-corpus")
    instances = [random_presentation(rnd) for _ in range(CORPUS_SIZE)]
    start = time.perf_counter()
    rows = []
    diverged = 0
    for p in instances:
        bound = p.num_vars + 3
        integral = segre_integral(p, bound)
        try:
            tower = segre_tower(p, bound).series
        except TowerDivergenceError:
            diverged += 1
            tower = None
        rows.append((p, integral, tower))
    elapsed = time.perf_counter() - start
    return rows, diverged, elapsed


def test_criterion_1_golden_closed_form(capsys):
    X1, X2 = symbols(2)
    expr = 1 - (3 * X2 / ((1 + 3 * X1) * (1 + 3 * X2))
                + 1 / (1 + 3 * X2)
                + 3 * X1 * X2 / ((1 + 3 * X1) * (1 + X1 + X2) * (1 + 3 * X2)))
    want = expand_terms(expr, (X1, X2), 6)
    start = time.perf_counter()
    got = segre_integral(STAIRCASE, 6).series
    elapsed = time.perf_counter() - start
    ok = got.terms == want and elapsed < 1.0
    assert report(
        capsys, 1, f"staircase golden at D_max=6 in {elapsed:.3f}s", ok)


def test_criterion_2_column_simplex(capsys):
    s = cell(3, ((0, 0, 1), (1, 0, 2), (0, 2, 3)), frozenset({2}))
    X1, X2, X3 = symbols(3)
    want = expand_terms(
        2 * X1 * X2 / ((1 + X3) * (1 + X1 + 2 * X3) * (1 + 2 * X2 + 3 * X3)),
        (X1, X2, X3), 4)
    ok = hvol(s) == 2 and simplex_contribution(s, 4).terms == want
    assert report(
        capsys, 2, "column simplex hvol and contribution at D_max=4", ok)


def test_criterion_3_blowup_replay(capsys):
    replay = blowup_replay(complement_configuration(STAIRCASE), 0, 1)
    sizes = (len(replay.U0), len(replay.U1), len(replay.Uprime),
             len(replay.Udoubleprime))
    passed, _ = blowup_invariance_check(STAIRCASE, 0, 1,
                                        segre_integral(STAIRCASE, 6).series)
    ok = passed and sizes == (1, 1, 2, 1)
    assert report(
        capsys, 3, "blow-up cell classification and push-forward replay", ok)


def test_criterion_4_dual_pipeline_corpus(corpus, capsys):
    rows, diverged, elapsed = corpus
    mismatches = sum(1 for _, integral, tower in rows
                     if tower is None or integral.series != tower)
    ok = (len(rows) >= 100 and diverged == 0 and mismatches == 0
          and elapsed < CORPUS_BUDGET_SECONDS)
    assert report(
        capsys, 4, f"{len(rows)} instances, {mismatches} mismatches, "
                   f"{diverged} divergences, {elapsed:.1f}s", ok)


def test_criterion_5_residual_identity(capsys):
    rnd = random.Random("acceptance-residual")
    checked = 0
    failures = 0
    while checked < 20:
        base = random_presentation(rnd)
        d = tuple(rnd.randint(0, 2) for _ in range(base.num_vars))
        if not any(d):
            continue
        gens = tuple(tuple(a + b for a, b in zip(g, d))
                     for g in base.generators)
        p = presentation(gens)
        _, detail = residual_identity_check(p, segre_integral(p).series)
        if detail == "skipped":
            continue  # gcd collapsed; try another draw
        checked += 1
        if detail != "equal":
            failures += 1
    ok = failures == 0
    assert report(
        capsys, 5, f"residual identity on {checked} instances, "
                   f"{failures} failures", ok)


def test_criterion_6_normalization_and_order(corpus, capsys):
    rows, _, _ = corpus
    bad = 0
    for p, integral, _ in rows:
        total = TruncatedSeries.one(p.num_vars, integral.series.degree_bound)
        acc = TruncatedSeries.zero(p.num_vars, integral.series.degree_bound)
        for term in integral.per_simplex + integral.complement_terms:
            acc = acc + term.series
        if acc != total:
            bad += 1
    order_bad = 0
    for p, integral, _ in rows[:20]:
        bound = integral.series.degree_bound
        for preset in ("rays_first", "finite_reversed"):
            if segre_integral(p, bound, order_preset=preset).series \
                    != integral.series:
                order_bad += 1
    ok = bad == 0 and order_bad == 0
    assert report(
        capsys, 6, f"orthant normalization ({bad} bad) and order "
                   f"independence ({order_bad} bad)", ok)


def test_criterion_7_integer_coefficients(corpus, capsys):
    rows, _, _ = corpus
    bad = sum(1 for _, integral, tower in rows
              if not integral.series.is_integral()
              or (tower is not None and not tower.is_integral()))
    ok = bad == 0
    assert report(
        capsys, 7, f"integer coefficients across the corpus ({bad} bad)", ok)


def test_criterion_8_pushforward_identities(capsys):
    bound = 6
    step = blow_up(base_ring(3), 0, 1)
    up, low = step.upper, step.lower

    def v(ring, label):
        return variable(ring.variables.index(label), ring.num_vars, bound)

    def push(series):
        return pushforward(step, ChowClass(up, series)).series

    checks = [
        push(v(up, "E1") * v(up, "~X2")) == v(low, "X1") * v(low, "X2"),
        push(v(up, "~X1") * v(up, "~X2")).is_zero(),
        push(v(up, "E1") * v(up, "X3")).is_zero(),
        push(v(up, "~X1") * v(up, "X3")) == v(low, "X1") * v(low, "X3"),
    ]
    step2 = blow_up(base_ring(2), 0, 1)
    e_class = TruncatedSeries.one(3, bound) - \
        reciprocal_one_plus((0, 0, 1), bound)
    X1, X2 = symbols(2)
    want = expand_terms(X1 * X2 / ((1 + X1) * (1 + X2)), (X1, X2), bound)
    checks.append(
        pushforward(step2, ChowClass(step2.upper, e_class)).series.terms == want)
    ok = all(checks)
    assert report(
        capsys, 8, f"push-forward identities at D_max=6 "
                   f"({sum(checks)}/5)", ok)


def test_criterion_9_support_and_emptiness(capsys):
    rep = verify(STAIRCASE, 6)
    support_ok = next(c.passed for c in rep.checks
                      if c.name == "support_property")
    ring = base_ring(2, nil_pairs=[("X1", "X2")])
    p = presentation(((1, 0), (0, 1)))
    empty_ok = segre_integral(p, 5, ring=ring).series.is_zero() and \
        segre_tower(p, 5, ring=ring).series.is_zero()
    ok = support_ok and empty_ok
    assert report(
        capsys, 9, "support property and empty-scheme vanishing", ok)
