"""Self-tests of the benchmark harness.

    python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import json
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src"), str(ROOT / "tests")]

import run  # noqa: E402
import workloads  # noqa: E402
from monomial_segre import cli, segre  # noqa: E402
from stats import percentile  # noqa: E402


def test_corpus_generator_matches_acceptance_suite():
    from test_acceptance import random_presentation
    rnd = random.Random("acceptance-corpus")
    want = [random_presentation(rnd).generators for _ in range(100)]
    assert workloads.corpus_generators() == want


def test_verify_batch_generator_matches_cli_corpus():
    want = [cli._corpus_instance((0, k)) for k in range(100)]
    assert workloads.verify_batch_generators() == want


def test_percentile_keeps_ten_samples_beyond():
    assert percentile(range(1, 101), 0.9) == 90
    assert percentile(range(1, 100), 0.9) == 89   # rank 90 would leave nine
    assert percentile(range(1, 101), 0.5) == 50
    with pytest.raises(ValueError):
        percentile(range(10), 0.9)
    for n in (11, 37, 99, 100, 250):
        xs = list(range(n))
        p = percentile(xs, 0.9)
        assert sum(x > p for x in xs) >= 10


def small_instances(name, count=2):
    """The cheapest instances of a workload, with their expected outputs."""
    spec = workloads.WORKLOADS[name]
    instances = spec.load(seed=0)
    cheap = sorted(instances, key=lambda i: (len(i.generators),
                                             sum(map(sum, i.generators))))
    return spec, cheap[:count]


def error_rate(spec, instances) -> float:
    return 1 - run.correct_rate(run.run_pass(instances, spec.run))


def test_expected_outputs_pass_as_written():
    for name in workloads.WORKLOADS:
        spec, instances = small_instances(name)
        assert error_rate(spec, instances) == 0, name


def test_corrupted_expected_series_raises_error_rate():
    spec, instances = small_instances("corpus")
    inst = instances[0]
    terms = dict(inst.expected)
    e = next(iter(terms))
    terms[e] += Fraction(1)
    inst.expected = terms
    assert error_rate(spec, instances) == 0.5


def test_corrupted_stdout_digest_raises_error_rate():
    spec, instances = small_instances("compute_wide")
    instances[1].expected = "0" * 64
    assert error_rate(spec, instances) == 0.5


def test_missing_check_name_raises_error_rate():
    spec, instances = small_instances("verify_batch")
    inst = instances[0]
    inst.expected = [n for n in inst.expected if n != "order_independence"]
    assert error_rate(spec, instances) == 0.5


def test_disagreeing_pipelines_raise_error_rate(monkeypatch):
    spec, instances = small_instances("corpus", count=1)
    real = segre.segre_integral

    def off_by_one(p, bound, *args, **kwargs):
        result = real(p, bound, *args, **kwargs)
        series = result.series + 1
        return segre.SegreResult(series, (), (), "integral")
    monkeypatch.setattr(segre, "segre_integral", off_by_one)
    assert error_rate(spec, instances) == 1


def test_raising_instance_is_a_failure(monkeypatch):
    spec, instances = small_instances("verify_batch", count=1)

    def boom(p, *args):
        raise segre.MonomialSegreError("boom")
    monkeypatch.setattr(segre, "verify", boom)
    assert error_rate(spec, instances) == 1


def test_measure_runs_whole_passes_and_keeps_the_median_run(monkeypatch):
    spec, instances = small_instances("verify_batch", count=3)
    clock = [0.0]
    monkeypatch.setattr(run, "perf_counter", lambda: clock[0])
    monkeypatch.setattr(run, "reference_seconds", lambda: run.REFERENCE_S)
    seen = []

    def counted(inst):
        seen.append(inst.index)
        clock[0] += 3.0 if len(seen) <= 3 else 1.0  # the first pass is slow
        if len(seen) == 5:  # one run in the second pass fails
            return workloads.Outcome(False, "wrong")
        return workloads.Outcome(True)
    # passes take 9 s, then 3 s each: after 9 + 3 + 3 + 3 = 18 s, one more
    # pass would not fit in 20 s
    rows = run.measure(instances, counted, seconds=20, seed=0)
    assert sorted(seen) == sorted([i.index for i in instances] * 4)
    assert seen[:3] == [i.index for i in instances]
    assert [r.seconds for r in rows] == [[3.0, 1.0, 1.0, 1.0]] * 3
    assert [r.time for r in rows] == [1.0] * 3
    assert run.counts(rows) == (12, 1)
    assert [r.detail for r in rows if not r.ok] == ["wrong"]


def test_seed_orders_a_fixed_instance_set():
    spec = workloads.WORKLOADS["verify_batch"]
    a, b, a2 = spec.load(1), spec.load(2), spec.load(1)
    assert [i.index for i in a] == [i.index for i in a2]
    assert [i.index for i in a] != [i.index for i in b]
    assert sorted(i.index for i in a) == sorted(i.index for i in b)


def test_tracer_wraps_every_binding_and_restores_it():
    from tracing import Tracer, chow, principalize
    originals = (segre.pushforward, principalize.blow_up, cli.segre_integral,
                 chow.LevelRing.stratum_is_empty)
    tracer = Tracer()
    tracer.install()
    try:
        assert segre.pushforward is not originals[0]
        assert principalize.blow_up is not originals[1]
        assert cli.segre_integral is not originals[2]
        spec, instances = small_instances("corpus", count=3)
        rows = run.run_pass(instances, spec.run, tracer)
    finally:
        tracer.uninstall()
    assert (segre.pushforward, principalize.blow_up, cli.segre_integral,
            chow.LevelRing.stratum_is_empty) == originals
    assert all(r.ok for r in rows)
    m = tracer.metrics()
    assert m["segre.segre_integral.calls"] == 3
    assert m["series.mul.calls"] > 0
    assert m["cli.overhead.s"] == 0


def test_instance_time_follows_the_reference_probes(monkeypatch):
    spec, instances = small_instances("corpus", count=2)
    clock = [0.0]
    probes = iter([run.REFERENCE_S, 3 * run.REFERENCE_S, 2 * run.REFERENCE_S])

    def timed(inst):
        clock[0] += 4.0
        return spec.run(inst)
    monkeypatch.setattr(run, "perf_counter", lambda: clock[0])
    monkeypatch.setattr(run, "reference_seconds", lambda: next(probes))
    rows = run.run_pass(instances, timed)
    # a machine at half and then at 0.4 of the reference speed
    assert [r.seconds for r in rows] == [[4.0], [4.0]]
    assert [r.time for r in rows] == pytest.approx([2.0, 1.6])


def test_tracer_reports_silent_wrappers():
    from tracing import Tracer
    tracer = Tracer()
    assert "cli.main" in tracer.silent("compute_wide")


def test_metric_names_and_units_match_benchmark_json():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    from tracing import Tracer
    names = set(Tracer().metrics()) | set(run.TRACE_EXTRAS)
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == \
        {n: run.per_layer_unit(n) for n in names}
