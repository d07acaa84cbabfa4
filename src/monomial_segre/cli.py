"""Command-line surface: parse presentations, run the pipelines and the
verifier, dump traces and triangulations, draw the n=2 picture.

Exit codes: 0 success / all checks pass, 1 verification failure, 2 usage
error, 3 tower divergence (stderr then also lists the partial tower's
centers, lowest first).  A failed write to stdout is exit 2 as well.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import random
import re
import sys

from .chow import base_ring
from .errors import MonomialSegreError, TowerDivergenceError
from .lattice import MonomialPresentation, presentation
from .polytope import ORDER_PRESETS, hvol
from .principalize import CENTER_RULE
from .segre import (default_degree_bound, orthant_triangulation, segre_integral,
                    segre_tower, simplex_contribution, split_cells, verify)
from .series import TruncatedSeries, check_term_budget

ENV_DMAX = "MONOMIAL_SEGRE_DMAX"

# the shape of the labels blow-ups generate: exceptional E<k>, proper ~X
GENERATED_LABEL = re.compile(r"E[0-9]+|~.*", re.DOTALL)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_DIVERGED = 3


class UsageError(Exception):
    pass


def parse_inline_generators(text: str):
    """Grammar: semicolon-separated vectors, comma-separated entries,
    e.g. "3,0;1,1;0,3"."""
    gens = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        try:
            gens.append(tuple(int(x) for x in chunk.split(",")))
        except ValueError:
            raise UsageError(f"cannot parse generator {chunk!r}")
    if not gens:
        raise UsageError("no generators given")
    return tuple(gens)


def _read_document(path: str):
    try:
        if path == "-":
            return json.load(sys.stdin)
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc.strerror}")
    except ValueError as exc:  # invalid JSON or undecodable bytes
        raise UsageError(f"{path} is not a JSON document: {exc}")


def load_job(args):
    """Build (presentation, dmax, nil_pairs, ring) from flags and/or an input
    document; ring is None unless nil pairs are declared.  Inline --gens and
    --input are mutually exclusive.  A document's optional "strategy" field
    must name CENTER_RULE, the one center rule a job can name (the fallback
    rule takes over only at the cap); its labels and
    nil_pairs must be JSON arrays, each nil pair an array of two labels, and
    its labels may not have the shape of the ones blow-ups generate
    (GENERATED_LABEL).  A series at dmax may have no more terms than
    series.TERM_BUDGET, in n variables, or in n + 1 for verify."""
    if (args.gens is None) == (getattr(args, "input", None) is None):
        raise UsageError("give exactly one of --gens or --input")
    nil_pairs = ()
    dmax = None
    if args.gens is not None:
        gens = parse_inline_generators(args.gens)
        n = len(gens[0])
        labels = None
    else:
        doc = _read_document(args.input)
        try:
            n = doc["n"]
            gens = tuple(tuple(g) for g in doc["generators"])
            labels = doc.get("labels", [])
            nil_pairs = doc.get("nil_pairs", [])
            dmax = doc.get("dmax")
        except KeyError as exc:
            raise UsageError(f"input document has no field {exc}")
        except TypeError:
            raise UsageError("input document must be an object whose "
                             "generators, labels and nil_pairs are lists")
        if type(labels) is not list or type(nil_pairs) is not list or \
                any(type(pr) is not list for pr in nil_pairs):
            raise UsageError("labels must be a list, and nil_pairs a list "
                             "of lists")
        labels = tuple(labels)
        nil_pairs = tuple(tuple(pr) for pr in nil_pairs)
        if type(n) is not int or (dmax is not None and type(dmax) is not int):
            raise UsageError("fields n and dmax must be integers")
        names = list(labels) + [lab for pr in nil_pairs for lab in pr]
        if any(type(lab) is not str for lab in names):
            raise UsageError("labels and nil_pairs entries must be strings")
        for lab in labels:
            if GENERATED_LABEL.fullmatch(lab):
                raise UsageError(f"label {lab!r} is reserved for blow-up "
                                 "divisors (E<k>, or a ~ prefix)")
        if doc.get("strategy", CENTER_RULE) != CENTER_RULE:
            raise UsageError(f"unknown strategy {doc['strategy']!r}")
    try:
        p = presentation(gens, num_vars=n, labels=labels)
        ring = base_ring(p.num_vars, p.variable_labels,
                         nil_pairs) if nil_pairs else None
    except MonomialSegreError as exc:
        raise UsageError(str(exc))
    if getattr(args, "dmax", None) is not None:
        dmax = args.dmax
    if dmax is None and os.environ.get(ENV_DMAX):
        try:
            dmax = int(os.environ[ENV_DMAX])
        except ValueError:
            raise UsageError(f"bad {ENV_DMAX} value {os.environ[ENV_DMAX]!r}")
    if dmax is None:
        dmax = default_degree_bound(p.num_vars)
    if dmax < 1:
        raise UsageError("dmax must be >= 1")
    # verify's blow-up checks lift the configuration to one more variable
    width = p.num_vars + (args.command == "verify")
    try:
        check_term_budget(width, dmax)
    except MonomialSegreError as exc:
        raise UsageError(str(exc))
    return p, dmax, nil_pairs, ring


def series_doc(series):
    return [{"coefficient": c, "exponents": list(e)}
            for e, c in series.sorted_terms()]


def presentation_doc(p: MonomialPresentation, dmax, nil_pairs=()):
    doc = {"n": p.num_vars, "generators": [list(g) for g in p.generators],
           "labels": list(p.variable_labels), "dmax": dmax}
    if nil_pairs:
        doc["nil_pairs"] = [list(pr) for pr in nil_pairs]
    return doc


@contextlib.contextmanager
def _output(out):
    """Yield out, the stream a command writes to, and flush it after.  A
    failed write is a UsageError, and out is closed, so that the flush at
    interpreter exit cannot fail on it again."""
    try:
        yield out
        out.flush()
    except OSError as exc:
        with contextlib.suppress(OSError):
            out.close()
        raise UsageError(f"cannot write output: {exc.strerror or exc}")


def emit(doc, out=None):
    """Write doc and a newline to out (default stdout), byte for byte as
    json.dumps(doc, indent=2) would, with each TruncatedSeries in it laid out
    as its series_doc.  A series is written term by term, so neither its
    list of terms nor the whole document is ever built.  The dicts that hold
    a series must have string keys."""
    with _output(sys.stdout if out is None else out) as out:
        _write(doc, out, "")
        out.write("\n")


def _holds_series(value) -> bool:
    if isinstance(value, TruncatedSeries):
        return True
    if isinstance(value, dict):
        value = value.values()
    elif not isinstance(value, (list, tuple)):
        return False
    return any(map(_holds_series, value))


def _write(value, out, pad):
    """Write value at indentation pad, as json.dumps(indent=2) lays it out."""
    if isinstance(value, TruncatedSeries):
        _write_series(value, out, pad)
    elif not _holds_series(value):
        out.write(json.dumps(value, indent=2).replace("\n", "\n" + pad))
    else:
        inner = pad + "  "
        if isinstance(value, dict):
            brackets = "{}"
            items = ((json.dumps(k) + ": ", v) for k, v in value.items())
        else:
            brackets, items = "[]", (("", v) for v in value)
        sep = brackets[0] + "\n" + inner
        for key, v in items:
            out.write(sep + key)
            _write(v, out, inner)
            sep = ",\n" + inner
        out.write("\n" + pad + brackets[1])


def _write_series(series, out, pad):
    """series_doc(series) at indentation pad, one write per term."""
    terms = series.terms
    if not terms:
        out.write("[]")
        return
    # lexicographic, then stably by degree: the order of sorted_terms,
    # without a key tuple per term
    exponents = sorted(terms)
    exponents.sort(key=sum)
    term_pad, key_pad, entry_pad = pad + "  ", pad + "    ", pad + "      "
    between = ",\n" + entry_pad
    sep = "[\n" + term_pad
    for e in exponents:
        entries = (f"[\n{entry_pad}{between.join(map(str, e))}\n{key_pad}]"
                   if e else "[]")
        out.write(f'{sep}{{\n{key_pad}"coefficient": {terms[e]},\n'
                  f'{key_pad}"exponents": {entries}\n{term_pad}}}')
        sep = ",\n" + term_pad
    out.write("\n" + pad + "]")


def cmd_compute(args) -> int:
    p, dmax, nil_pairs, ring = load_job(args)
    result = segre_integral(p, dmax, ring=ring)
    doc = presentation_doc(p, dmax, nil_pairs=nil_pairs)
    doc["pipeline"] = result.pipeline
    doc["series"] = result.series
    emit(doc)
    return EXIT_OK


def cmd_tower(args) -> int:
    p, dmax, nil_pairs, ring = load_job(args)
    result = segre_tower(p, dmax, ring=ring)
    trace = result.trace
    doc = presentation_doc(p, dmax, nil_pairs=nil_pairs)
    doc["strategy"] = CENTER_RULE
    doc["pipeline"] = result.pipeline
    doc["series"] = result.series
    doc["trace"] = {
        "strategy": trace.center_rule,
        "iterations": len(trace.steps),
        "terminal_divisor": list(trace.terminal_divisor),
        "steps": [{"center": [s.lower.variables[k] for k in s.center],
                   "exceptional": s.upper.variables[0],
                   "variables": list(s.upper.variables)}
                  for s in trace.steps],
    }
    emit(doc)
    return EXIT_OK


def cmd_verify(args) -> int:
    p, dmax, nil_pairs, ring = load_job(args)
    report = verify(p, dmax, nil_pairs=nil_pairs)
    doc = presentation_doc(p, dmax, nil_pairs=nil_pairs)
    doc["strategy"] = CENTER_RULE
    doc["checks"] = [{"name": c.name, "passed": c.passed, "detail": c.detail}
                     for c in report.checks]
    doc["ok"] = report.ok
    emit(doc)
    return EXIT_OK if report.ok else EXIT_FAIL


def cmd_triangulate(args) -> int:
    p, dmax, nil_pairs, ring = load_job(args)
    if nil_pairs:
        raise UsageError("triangulate takes no nil_pairs: its cell "
                         "contributions are not reduced by them")
    tri = orthant_triangulation(p, args.preset)
    complement, newton = split_cells(tri)

    def cell_doc(cell):
        return {"finite_vertices": [list(v) for v in cell.finite_vertices],
                "infinite_directions": sorted(d + 1 for d in
                                              cell.infinite_directions),
                "provenance": list(cell.provenance),
                "hvol": hvol(cell),
                "contribution": simplex_contribution(cell, dmax)}

    doc = presentation_doc(p, dmax)
    doc["placement_order"] = list(tri.placement_order)
    doc["complement_cells"] = [cell_doc(c) for c in complement]
    doc["newton_cells"] = [cell_doc(c) for c in newton]
    emit(doc)
    return EXIT_OK


def cmd_render(args) -> int:
    p, dmax, nil_pairs, ring = load_job(args)
    if p.num_vars != 2:
        raise UsageError("render only supports n = 2")
    svg = render_svg(p)
    if args.output:
        try:
            with open(args.output, "w") as fh:
                fh.write(svg)
        except OSError as exc:
            raise UsageError(f"cannot write {args.output}: {exc.strerror}")
    else:
        with _output(sys.stdout) as out:
            out.write(svg)
    return EXIT_OK


def render_svg(p: MonomialPresentation) -> str:
    """Staircase picture of the Newton region for n=2: shaded convex
    complement, generator points, triangulation overlay.  Lattice units."""
    tri = orthant_triangulation(p)
    complement, newton = split_cells(tri)
    gens = p.generators
    top = max([a for g in gens for a in g], default=1) + 2
    unit = 40
    size = top * unit + 2 * unit

    def xy(v):
        # lattice coords -> svg coords (flip the vertical axis)
        return (unit + v[0] * unit, size - unit - v[1] * unit)

    out = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" '
           f'height="{size}" viewBox="0 0 {size} {size}">',
           f'<rect width="{size}" height="{size}" fill="white"/>']
    # shaded convex complement: one polygon per cell, rays clipped at `top`
    for cell in complement:
        pts = [list(v) for v in cell.finite_vertices]
        for d in sorted(cell.infinite_directions):
            for v in cell.finite_vertices:
                w = list(v)
                w[d] = top
                pts.append(w)
        cx = sum(q[0] for q in pts) / len(pts)
        cy = sum(q[1] for q in pts) / len(pts)
        pts.sort(key=lambda q: math.atan2(q[1] - cy, q[0] - cx))
        path = " ".join("{},{}".format(*xy(q)) for q in pts)
        out.append(f'<polygon points="{path}" fill="#cccccc" stroke="none"/>')
    # lattice grid
    for k in range(top + 1):
        a0, a1 = xy((k, 0)), xy((k, top))
        out.append(f'<line x1="{a0[0]}" y1="{a0[1]}" x2="{a1[0]}" y2="{a1[1]}" '
                   'stroke="#eeeeee"/>')
        b0, b1 = xy((0, k)), xy((top, k))
        out.append(f'<line x1="{b0[0]}" y1="{b0[1]}" x2="{b1[0]}" y2="{b1[1]}" '
                   'stroke="#eeeeee"/>')
    # triangulation overlay
    for cell in complement + newton:
        vs = [list(v) for v in cell.finite_vertices]
        rays = [[v[0] + (top if d == 0 else 0), v[1] + (top if d == 1 else 0)]
                for d in sorted(cell.infinite_directions) for v in vs]
        corners = vs + rays
        for a in range(len(corners)):
            for b in range(a + 1, len(corners)):
                qa, qb = xy(corners[a]), xy(corners[b])
                out.append(f'<line x1="{qa[0]}" y1="{qa[1]}" x2="{qb[0]}" '
                           f'y2="{qb[1]}" stroke="#666666" stroke-width="1"/>')
    # axes
    o, ox, oy = xy((0, 0)), xy((top, 0)), xy((0, top))
    out.append(f'<line x1="{o[0]}" y1="{o[1]}" x2="{ox[0]}" y2="{ox[1]}" '
               'stroke="black" stroke-width="2"/>')
    out.append(f'<line x1="{o[0]}" y1="{o[1]}" x2="{oy[0]}" y2="{oy[1]}" '
               'stroke="black" stroke-width="2"/>')
    # generator points
    for g in gens:
        q = xy(g)
        out.append(f'<circle cx="{q[0]}" cy="{q[1]}" r="4" fill="black"/>')
        out.append(f'<text x="{q[0] + 6}" y="{q[1] - 6}" font-size="12">'
                   f'({g[0]},{g[1]})</text>')
    out.append("</svg>")
    return "\n".join(out) + "\n"


def _corpus_instance(seed_and_index):
    seed, k = seed_and_index
    rng = random.Random(f"{seed}:{k}")
    n = rng.choice([2, 3])
    m = rng.randint(1, 4)
    gens = set()
    while len(gens) < m:
        gens.add(tuple(rng.randint(0, 4) for _ in range(n)))
    return tuple(sorted(gens))


def _corpus_check(job):
    _, k = job
    gens = _corpus_instance(job)
    p = presentation(gens)
    try:
        report = verify(p)
        return {"index": k, "generators": [list(g) for g in gens],
                "status": "pass" if report.ok else "fail",
                "failed": [c.name for c in report.checks if not c.passed]}
    except TowerDivergenceError:
        return {"index": k, "generators": [list(g) for g in gens],
                "status": "diverged", "failed": []}


def corpus_workers(jobs: int, count: int) -> int:
    """Worker processes for a corpus run: no more than asked for, than there
    are instances, or than there are CPUs."""
    if jobs < 1:
        raise UsageError("--jobs must be >= 1")
    if count < 0:
        raise UsageError("--count must be >= 0")
    return min(jobs, count, os.cpu_count() or 1)


def cmd_corpus(args) -> int:
    workers = corpus_workers(args.jobs, args.count)
    jobs = [(args.seed, k) for k in range(args.count)]
    if workers > 1:
        # imported here, so that no other command pays for multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_corpus_check, jobs))
    else:
        results = [_corpus_check(job) for job in jobs]
    results.sort(key=lambda r: r["index"])
    n_fail = sum(r["status"] == "fail" for r in results)
    n_div = sum(r["status"] == "diverged" for r in results)
    doc = {"seed": args.seed, "count": args.count,
           "passed": args.count - n_fail - n_div,
           "failed": n_fail, "diverged": n_div, "results": results}
    emit(doc)
    if n_fail:
        return EXIT_FAIL
    if n_div:
        return EXIT_DIVERGED
    return EXIT_OK


def _add_input_flags(sp, with_dmax=True):
    sp.add_argument("--gens", help='inline generators, e.g. "3,0;1,1;0,3"')
    sp.add_argument("--input", help="path to a JSON job document, - for stdin")
    if with_dmax:
        sp.add_argument("--dmax", type=int, help="truncation degree "
                        f"(default n+3, or ${ENV_DMAX})")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of this process, built on first use: it holds no
    state between parse_args calls."""
    ap = argparse.ArgumentParser(
        prog="monomial-segre",
        description="Segre classes of monomial schemes, two ways.")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("compute", help="Newton-region integral pipeline")
    _add_input_flags(sp)
    sp.set_defaults(func=cmd_compute)

    sp = sub.add_parser("tower", help="blow-up tower pipeline with trace")
    _add_input_flags(sp)
    sp.set_defaults(func=cmd_tower)

    sp = sub.add_parser("verify", help="run the full identity report")
    _add_input_flags(sp)
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("triangulate", help="dump cells, hvol, contributions")
    _add_input_flags(sp)
    # the series does not depend on the placement order, the cells do
    sp.add_argument("--preset", choices=ORDER_PRESETS, default="default",
                    help="placement-order preset")
    sp.set_defaults(func=cmd_triangulate)

    sp = sub.add_parser("render", help="n=2 Newton-region figure (SVG)")
    _add_input_flags(sp, with_dmax=False)
    sp.add_argument("--output", "-o", help="output file (default stdout)")
    sp.set_defaults(func=cmd_render)

    sp = sub.add_parser("corpus", help="seeded random verification batch")
    sp.add_argument("--count", type=int, default=100)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--jobs", type=int, default=os.cpu_count() or 1)
    sp.set_defaults(func=cmd_corpus)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except TowerDivergenceError as exc:
        print(f"tower divergence: {exc}", file=sys.stderr)
        if exc.trace is not None:
            centers = " ".join(
                ",".join(s.lower.variables[k] for k in s.center)
                for s in exc.trace.steps)
            print(f"partial tower centers: {centers}", file=sys.stderr)
        return EXIT_DIVERGED
    except MonomialSegreError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
