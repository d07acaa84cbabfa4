"""Per-layer tracing from outside the library.

`Tracer.install` replaces public functions of `polytope`, `series`, `segre`,
`principalize`, `chow` and `cli` with wrappers that record spans (name,
start, end, parent) in memory.  The library imports names directly (for
example `segre` calls its own `pushforward`, and `principalize` its own
`blow_up`), so every module binding of a function is replaced, not just the
one in its home module.  `uninstall` puts the originals back.
"""

from __future__ import annotations

import gzip
import json
import sys
from collections import Counter
from importlib import import_module
from time import perf_counter

# import_module, because the package re-exports the function `principalize`
# under the name of its module
chow, cli, polytope, principalize, segre, series = (
    import_module(f"monomial_segre.{name}") for name in
    ("chow", "cli", "polytope", "principalize", "segre", "series"))
TruncatedSeries = series.TruncatedSeries

# (owner, attribute, metric prefix); every binding of the function is wrapped
SPANNED = (
    (polytope, "placing_triangulation", "polytope.placing_triangulation"),
    (TruncatedSeries, "__mul__", "series.mul"),
    (series, "reciprocal_one_plus", "series.reciprocal_one_plus"),
    (series, "tensor_line", "series.tensor_line"),
    (segre, "simplex_contribution", "segre.simplex_contribution"),
    (segre, "segre_integral", "segre.segre_integral"),
    (segre, "segre_tower", "segre.segre_tower"),
    (segre, "verify", "segre.verify"),
    (principalize, "principalize", "principalize.principalize"),
    (principalize, "select_center", "principalize.select_center"),
    (chow, "scheme_is_divisor", "chow.scheme_is_divisor"),
    (chow, "scheme_is_empty", "chow.scheme_is_empty"),
    (chow, "blow_up", "chow.blow_up"),
    (chow, "pushforward", "chow.pushforward"),
    (chow, "reduce_nils", "chow.reduce_nils"),
    (cli, "main", "cli.main"),
)

# hot helpers: counted, no span
COUNTED = (
    (polytope, "det", "polytope.det"),
    (chow.LevelRing, "stratum_is_empty", "chow.stratum_is_empty"),
    (chow._BlownUpRing, "stratum_is_empty", "chow.stratum_is_empty"),
)

# wrappers each workload must see fire; zero calls means a rename or a
# refactor has silently dropped a span
_INTEGRAL = {"polytope.placing_triangulation", "polytope.det", "series.mul",
             "series.reciprocal_one_plus", "segre.simplex_contribution",
             "segre.segre_integral"}
_TOWER = {"segre.segre_tower", "principalize.principalize",
          "principalize.select_center", "chow.scheme_is_divisor",
          "chow.scheme_is_empty", "chow.stratum_is_empty", "chow.blow_up",
          "chow.pushforward", "chow.reduce_nils"}
MUST_FIRE = {
    "corpus": _INTEGRAL | _TOWER,
    "compute_wide": _INTEGRAL | {"cli.main"},
    "verify_batch": _INTEGRAL | _TOWER | {"segre.verify", "series.tensor_line"},
}

VERIFY_GROUPS = ("pipeline_equality", "residual_identity",
                 "order_independence", "blowup_invariance")


def _library_namespaces():
    return [vars(m) for name, m in sorted(sys.modules.items())
            if name == "monomial_segre" or name.startswith("monomial_segre.")]


def _class_namespaces():
    return [chow.LevelRing, chow._BlownUpRing, TruncatedSeries]


class Tracer:
    def __init__(self):
        self.spans: list = []          # (name, start, end, parent index)
        self.stack: list[int] = []
        self.instance_of: dict[int, int] = {}   # instance span -> instance index
        self.counts: Counter = Counter()
        self.work: Counter = Counter()
        self.maxima: Counter = Counter()
        self.forms: set = set()
        self.tower_rows: list[dict] = []
        self._patches: list = []
        self._instance_start = 0.0

    # -- wrappers ------------------------------------------------------------

    def _spanned(self, fn, name, after=None):
        spans, stack, counts = self.spans, self.stack, self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent)
            if after is not None:
                after(args, result, end - start)
            return result
        return wrapper

    def _counted(self, fn, name):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _replace(self, original, wrapper) -> int:
        replaced = 0
        for ns in _library_namespaces():
            for attr, value in list(ns.items()):
                if value is original:
                    self._patches.append((ns, attr, original))
                    ns[attr] = wrapper
                    replaced += 1
        for cls in _class_namespaces():
            for attr, value in list(vars(cls).items()):
                if value is original:
                    self._patches.append((cls, attr, original))
                    setattr(cls, attr, wrapper)
                    replaced += 1
        if not replaced:
            raise RuntimeError(f"no binding of {original!r} found to wrap")
        return replaced

    def install(self) -> None:
        hooks = {
            "polytope.placing_triangulation": self._after_triangulation,
            "series.mul": self._after_mul,
            "series.reciprocal_one_plus": self._after_reciprocal,
            "segre.simplex_contribution": self._after_contribution,
            "segre.verify": self._after_verify,
            "principalize.principalize": self._after_principalize,
            "chow.pushforward": self._after_pushforward,
            "chow.reduce_nils": self._after_reduce_nils,
        }
        for owner, attr, name in SPANNED:
            original = vars(owner)[attr]
            self._replace(original, self._spanned(original, name, hooks.get(name)))
        for owner, attr, name in COUNTED:
            original = vars(owner)[attr]
            self._replace(original, self._counted(original, name))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._patches.clear()

    # -- work counters -------------------------------------------------------

    def _after_triangulation(self, args, result, _):
        self.work["polytope.cells"] += len(result.cells)

    def _after_mul(self, args, result, _):
        a, b = args
        if isinstance(b, TruncatedSeries):
            self.work["series.mul.term_pairs"] += len(a.terms) * len(b.terms)

    def _after_reciprocal(self, args, result, _):
        self.forms.add((args[0], args[1]))

    def _after_contribution(self, args, result, _):
        if segre.ORIGIN_LABEL in args[0].provenance:
            self.work["segre.simplex_contribution.newton"] += 1

    def _after_verify(self, args, report, _):
        for check in report.checks:
            group = next((g for g in VERIFY_GROUPS if check.name.startswith(g)),
                         "other")
            self.work[f"segre.verify.{group}.s"] += check.seconds

    def _after_principalize(self, args, trace, _):
        depth = len(trace.steps)
        self.work["principalize.depth.sum"] += depth
        self.maxima["principalize.depth.max"] = max(
            self.maxima["principalize.depth.max"], depth)
        self.maxima["principalize.top_vars.max"] = max(
            self.maxima["principalize.top_vars.max"], trace.top_ring.num_vars)

    def _after_pushforward(self, args, result, seconds):
        step, c = args
        terms_in, terms_out = len(c.series.terms), len(result.series.terms)
        self.work["chow.pushforward.terms_in"] += terms_in
        self.work["chow.pushforward.terms_out"] += terms_out
        self.tower_rows.append({
            "instance": self.current_instance(), "level": step.upper.depth,
            "variables": step.upper.num_vars, "terms_in": terms_in,
            "terms_out": terms_out, "pushforward_s": seconds})

    def _after_reduce_nils(self, args, result, _):
        c = args[1]
        before = c.series if isinstance(c, chow.ChowClass) else c
        after = result.series if isinstance(result, chow.ChowClass) else result
        self.work["chow.reduce_nils.terms_in"] += len(before.terms)
        self.work["chow.reduce_nils.terms_out"] += len(after.terms)

    # -- instances -----------------------------------------------------------

    def begin_instance(self, index: int) -> int:
        idx = len(self.spans)
        self.spans.append(None)
        self.stack.append(idx)
        self.instance_of[idx] = index
        self._instance_start = perf_counter()
        return idx

    def end_instance(self, idx: int) -> None:
        self.stack.pop()
        self.spans[idx] = ("bench.instance", self._instance_start,
                           perf_counter(), -1)

    def current_instance(self):
        return self.instance_of.get(self.stack[0]) if self.stack else None

    # -- summary -------------------------------------------------------------

    def outer_seconds(self) -> Counter:
        """Time inside each wrapped name, not counting a call nested in a
        call of the same name twice."""
        spans = self.spans
        total: Counter = Counter()
        for name, start, end, parent in spans:
            p = parent
            while p != -1 and spans[p][0] != name:
                p = spans[p][3]
            if p == -1:
                total[name] += end - start
        return total

    def _tower_phases(self) -> tuple[float, float]:
        """segre_tower split at the end of principalize (top expansion) and
        at the first push-forward (push-down)."""
        children: dict[int, list[int]] = {}
        for k, span in enumerate(self.spans):
            children.setdefault(span[3], []).append(k)
        top = down = 0.0
        for k, (name, start, end, _) in enumerate(self.spans):
            if name != "segre.segre_tower":
                continue
            kids = [self.spans[c] for c in children.get(k, ())]
            built = max(s[2] for s in kids if s[0] == "principalize.principalize")
            pushes = [s[1] for s in kids if s[0] == "chow.pushforward"]
            first_push = min(pushes) if pushes else end
            top += first_push - built
            down += end - first_push
        return top, down

    def _cli_overhead(self) -> float:
        spans = self.spans
        integral_under_cli = 0.0
        for name, start, end, parent in spans:
            if name != "segre.segre_integral":
                continue
            p = parent
            while p != -1 and spans[p][0] != "cli.main":
                p = spans[p][3]
            if p != -1:
                integral_under_cli += end - start
        main = sum(end - start for name, start, end, _ in spans
                   if name == "cli.main")
        return main - integral_under_cli

    def silent(self, workload: str) -> list[str]:
        return sorted(name for name in MUST_FIRE[workload]
                      if self.counts[name] == 0)

    def metrics(self) -> dict[str, float]:
        secs = self.outer_seconds()
        calls, work = self.counts, self.work
        top, down = self._tower_phases()

        def ratio(a, b):
            return a / b if b else 0.0

        m = {
            "polytope.placing_triangulation.s": secs["polytope.placing_triangulation"],
            "polytope.placing_triangulation.calls": calls["polytope.placing_triangulation"],
            "polytope.cells": work["polytope.cells"],
            "polytope.det.calls": calls["polytope.det"],
            "series.mul.s": secs["series.mul"],
            "series.mul.calls": calls["series.mul"],
            "series.mul.term_pairs": work["series.mul.term_pairs"],
            "series.reciprocal_one_plus.s": secs["series.reciprocal_one_plus"],
            "series.reciprocal_one_plus.calls": calls["series.reciprocal_one_plus"],
            "series.reciprocal_one_plus.distinct_ratio": ratio(
                len(self.forms), calls["series.reciprocal_one_plus"]),
            "series.tensor_line.s": secs["series.tensor_line"],
            "segre.simplex_contribution.s": secs["segre.simplex_contribution"],
            "segre.simplex_contribution.calls": calls["segre.simplex_contribution"],
            "segre.simplex_contribution.newton_share": ratio(
                work["segre.simplex_contribution.newton"],
                calls["segre.simplex_contribution"]),
            "segre.segre_integral.s": secs["segre.segre_integral"],
            "segre.segre_integral.calls": calls["segre.segre_integral"],
        }
        for group in VERIFY_GROUPS + ("other",):
            m[f"segre.verify.{group}.s"] = work[f"segre.verify.{group}.s"]
        m.update({
            "segre.segre_tower.s": secs["segre.segre_tower"],
            "segre.top_expansion.s": top,
            "segre.pushdown.s": down,
            "principalize.principalize.s": secs["principalize.principalize"],
            "principalize.select_center.s": secs["principalize.select_center"],
            "principalize.select_center.calls": calls["principalize.select_center"],
            "principalize.depth.sum": work["principalize.depth.sum"],
            "principalize.depth.max": self.maxima["principalize.depth.max"],
            "principalize.top_vars.max": self.maxima["principalize.top_vars.max"],
            "chow.scheme_is_empty.s": secs["chow.scheme_is_empty"],
            "chow.scheme_is_empty.calls": calls["chow.scheme_is_empty"],
            "chow.stratum_is_empty.calls": calls["chow.stratum_is_empty"],
            "chow.blow_up.s": secs["chow.blow_up"],
            "chow.pushforward.s": secs["chow.pushforward"],
            "chow.pushforward.calls": calls["chow.pushforward"],
            "chow.pushforward.terms_in": work["chow.pushforward.terms_in"],
            "chow.pushforward.terms_out": work["chow.pushforward.terms_out"],
            "chow.reduce_nils.s": secs["chow.reduce_nils"],
            "chow.reduce_nils.calls": calls["chow.reduce_nils"],
            "chow.reduce_nils.kept_ratio": ratio(
                work["chow.reduce_nils.terms_out"],
                work["chow.reduce_nils.terms_in"]),
            "cli.overhead.s": self._cli_overhead(),
        })
        return m

    def dump(self, path, header: dict) -> None:
        """Write spans and per-level tower rows as gzipped JSON."""
        names = sorted({s[0] for s in self.spans})
        code = {n: k for k, n in enumerate(names)}
        doc = dict(header)
        doc.update({
            "span_names": names,
            "spans": [[code[n], round(s, 7), round(e, 7), p]
                      for n, s, e, p in self.spans],
            "instance_spans": {str(k): v for k, v in self.instance_of.items()},
            "tower_rows": self.tower_rows,
        })
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as fh:
            json.dump(doc, fh, separators=(",", ":"))
