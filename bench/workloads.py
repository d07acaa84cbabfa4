"""The benchmark's three workloads: how each draws its presentations, what
one instance runs, and how its output is checked against the expected file.

Every workload runs a fixed instance set so that runs with different seeds
measure the same work; the seed only fixes the order the instances run in.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

# library calls go through module attributes, so a tracer that rebinds
# them sees these calls too
from monomial_segre import cli, segre
from monomial_segre.lattice import presentation

EXPECTED_DIR = Path(__file__).resolve().parent / "expected"

CORPUS_SIZE = 100

# Left out of `corpus`: the four deepest towers (depths 90, 50, 37 and 29).
# They take 2-50 s each, and the depth-90 one peaks near 1 GB RSS; with them
# one pass would take longer than a whole run.  The tower tail is still timed
# through the instances of depth 26 and 22.
CORPUS_EXCLUDED = (
    ((0, 1, 2), (1, 4, 1), (2, 3, 4), (4, 0, 0)),
    ((0, 0, 3), (0, 3, 1), (3, 0, 0), (3, 1, 2)),
    ((0, 4, 4), (1, 0, 3), (4, 0, 1)),
    ((0, 2, 4), (1, 1, 1), (2, 1, 2), (3, 0, 3)),
)


def acceptance_generators(rnd: random.Random) -> tuple[tuple[int, ...], ...]:
    """The draw rule of the acceptance corpus: n in {2, 3}, one to four
    distinct nonzero generators with exponents 0-4."""
    n = rnd.choice([2, 3])
    m = rnd.randint(1, 4)
    gens = set()
    while len(gens) < m:
        g = tuple(rnd.randint(0, 4) for _ in range(n))
        if any(g):
            gens.add(g)
    return tuple(sorted(gens))


def corpus_generators() -> list[tuple[tuple[int, ...], ...]]:
    rnd = random.Random("acceptance-corpus")
    return [acceptance_generators(rnd) for _ in range(CORPUS_SIZE)]


def compute_wide_generators() -> list[tuple[tuple[int, ...], ...]]:
    """n = 3, three to six distinct nonzero generators, exponents 0-5."""
    rnd = random.Random("compute-wide")
    out = []
    for _ in range(100):
        n = 3
        m = rnd.randint(3, 6)
        gens = set()
        while len(gens) < m:
            g = tuple(rnd.randint(0, 5) for _ in range(n))
            if any(g):
                gens.add(g)
        out.append(tuple(sorted(gens)))
    return out


def verify_batch_generators(seed: int = 0) -> list[tuple[tuple[int, ...], ...]]:
    """The presentations of `monomial-segre corpus --seed 0`; the unit ideal
    is allowed."""
    out = []
    for k in range(100):
        rnd = random.Random(f"{seed}:{k}")
        n = rnd.choice([2, 3])
        m = rnd.randint(1, 4)
        gens = set()
        while len(gens) < m:
            gens.add(tuple(rnd.randint(0, 4) for _ in range(n)))
        out.append(tuple(sorted(gens)))
    return out


def inline_gens(gens) -> str:
    return ";".join(",".join(str(a) for a in g) for g in gens)


def series_doc(series) -> list:
    """Terms in graded lex order as [exponents, coefficient]; a coefficient
    that is not an integer is written "p/q"."""
    return [[list(e), int(c) if c.denominator == 1 else str(c)]
            for e, c in series.sorted_terms()]


def series_terms(doc) -> dict[tuple[int, ...], Fraction]:
    return {tuple(e): Fraction(c) for e, c in doc}


# -- one instance ------------------------------------------------------------


@dataclass
class Instance:
    index: int
    generators: tuple[tuple[int, ...], ...]
    payload: Any      # what the library call takes
    expected: Any     # what the check compares against


@dataclass
class Outcome:
    ok: bool
    detail: str = ""
    depth: int | None = None
    keep: Any = None   # the result, freed by the caller after timing


def run_corpus(inst: Instance) -> Outcome:
    p = inst.payload
    bound = p.num_vars + 3
    integral = segre.segre_integral(p, bound).series
    tower = segre.segre_tower(p, bound)
    depth = len(tower.trace.steps)
    keep = (integral, tower)
    if integral != tower.series:
        return Outcome(False, "pipelines disagree", depth, keep)
    if integral.terms != inst.expected:
        return Outcome(False, "series differs from the expected output",
                       depth, keep)
    return Outcome(True, "", depth, keep)


def run_compute_wide(inst: Instance) -> Outcome:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(["compute", "--gens", inst.payload])
    if code != cli.EXIT_OK:
        return Outcome(False, f"exit code {code}")
    if stdout_digest(buf.getvalue()) != inst.expected:
        return Outcome(False, "stdout differs from the expected output")
    return Outcome(True)


def verify_bound(p) -> int:
    """The degree bound of `verify_batch`: two below the default n + 3, so
    that a run can time every instance several times."""
    return p.num_vars + 1


def run_verify_batch(inst: Instance) -> Outcome:
    report = segre.verify(inst.payload, verify_bound(inst.payload))
    if not report.ok:
        failed = [c.name for c in report.checks if not c.passed]
        return Outcome(False, f"checks failed: {failed}")
    names = [c.name for c in report.checks]
    if names != inst.expected:
        return Outcome(False, f"check names {names} != {inst.expected}")
    return Outcome(True, keep=report)


def stdout_digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@dataclass(frozen=True)
class Workload:
    name: str
    generators: Callable[[], list]
    payload: Callable[[tuple], Any]
    expected: Callable[[dict], Any]   # from one record of the expected file
    run: Callable[[Instance], Outcome]
    excluded: tuple = ()

    def expected_path(self) -> Path:
        return EXPECTED_DIR / f"{self.name}.json"

    def load(self, seed: int) -> list[Instance]:
        """Draw the instances, attach their expected outputs and put them in
        the seed's order."""
        with open(self.expected_path()) as fh:
            records = json.load(fh)["instances"]
        by_gens = {tuple(tuple(g) for g in r["generators"]): r for r in records}
        instances = []
        for k, gens in enumerate(self.generators()):
            if gens in self.excluded:
                continue
            record = by_gens.get(gens)
            if record is None:
                raise SystemExit(f"{self.expected_path().name} has no record "
                                 f"for instance {k} {gens}")
            instances.append(Instance(k, gens, self.payload(gens),
                                      self.expected(record)))
        random.Random(f"{self.name}:{seed}").shuffle(instances)
        return instances


WORKLOADS = {
    "corpus": Workload(
        "corpus", corpus_generators, presentation,
        lambda r: series_terms(r["series"]), run_corpus, CORPUS_EXCLUDED),
    "compute_wide": Workload(
        "compute_wide", compute_wide_generators, inline_gens,
        lambda r: r["stdout_sha256"], run_compute_wide),
    "verify_batch": Workload(
        "verify_batch", verify_batch_generators, presentation,
        lambda r: r["checks"], run_verify_batch),
}
