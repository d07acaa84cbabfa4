"""Benchmark runner: one workload, one process, a closed loop of one client.

    python3 bench/run.py --workload corpus --seed 1 --seconds 35 --trace 0

Run from the repository root.  Instances run one at a time, each output is
checked against bench/expected/, and the last line of stdout is one JSON
object {"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics; instance times in them are at the
reference speed (see run_pass).  --trace 1 runs one untraced pass and one
traced pass, and reports the per-layer metrics with the tracing overhead
(traced minus untraced wall time).  A record of every run, with
per-instance rows, is written under bench/out/.
"""

from __future__ import annotations

import argparse
import gc
import json
import random
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from stats import (REFERENCE_S, calib_seconds, cpu_times, percentile,
                   reference_seconds, steal_share)

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"
SETUP_REPEATS = 9

END_TO_END = {
    "setup_s": "s", "wall_norm_s": "s", "instance_p50_norm_s": "s",
    "instance_p90_norm_s": "s", "instance_max_norm_s": "s",
    "peak_rss_mb": "MiB", "correct_rate": "ratio",
}

# per-layer metrics that come from the harness rather than the tracer
TRACE_EXTRAS = ("trace.wall_s", "trace.untraced_wall_s", "trace.overhead_s",
                "host.calib_before_s", "host.calib_after_s", "host.steal_share")


def per_layer_unit(name: str) -> str:
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith(("_ratio", "_share")):
        return "ratio"
    return "count"


@dataclass
class Row:
    index: int
    seconds: list[float]   # each run's time
    norm: list[float]      # each run's time at the reference speed
    failed: int            # runs whose output did not check out
    detail: str            # why the first failing run failed
    depth: int | None

    @property
    def runs(self) -> int:
        return len(self.seconds)

    @property
    def ok(self) -> bool:
        return self.failed == 0

    @property
    def time(self) -> float:
        """The instance's time at the reference speed: the median run."""
        return statistics.median(self.norm)


def load_instances(workload: str, seed: int):
    """Set-up proper: import the library, draw the inputs, load the expected
    outputs."""
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS
    spec = WORKLOADS[workload]
    return spec, spec.load(seed)


def measure_setup(args) -> float:
    """Median time from starting a fresh interpreter to its instances being
    ready, over several child processes."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    times = []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT) as child:
            line = child.stdout.readline()
            ready = perf_counter()
            child.stdout.read()
            code = child.wait(timeout=60)
        if line.strip() != b"ready" or code != 0:
            raise SystemExit(f"set-up probe failed with exit code {code}")
        times.append(ready - start)
    return statistics.median(times)


def run_pass(instances, run, tracer=None) -> list[Row]:
    """Run each instance once, in the given order.

    A reference probe (stats.reference_seconds) runs before the first
    instance and after each one, outside the timing.  An instance's time at
    the reference speed is its time scaled by REFERENCE_S over the mean of
    the probes on either side of it."""
    from workloads import Outcome
    rows = []
    gc.collect()
    probe = reference_seconds()
    for inst in instances:
        span = tracer.begin_instance(inst.index) if tracer else None
        start = perf_counter()
        try:
            outcome = run(inst)
        except Exception as exc:  # a raising instance is a counted failure
            outcome = Outcome(False, f"{type(exc).__name__}: {exc}")
        seconds = perf_counter() - start
        if tracer:
            tracer.end_instance(span)
        outcome.keep = None  # the result is freed here, outside any timing
        gc.collect()  # and so is its garbage
        after = reference_seconds()
        norm = seconds * REFERENCE_S / ((probe + after) / 2)
        probe = after
        rows.append(Row(inst.index, [seconds], [norm], int(not outcome.ok),
                        outcome.detail, outcome.depth))
    return rows


def measure(instances, run, seconds: float, seed: int) -> list[Row]:
    """Run the whole instance set in passes, each pass in another order,
    while one more pass is expected to fit in `seconds`.

    On a machine that shares its cores, the same code runs up to 1.7 times
    as slow for stretches from seconds to minutes, so raw times of the same
    work differ by that much between runs.  The reference probes around
    each run follow the machine's speed, and an instance's time at the
    reference speed varies by a few percent (bench/README.md has the
    measurement).  Each instance's median over the passes is kept."""
    order = random.Random(f"passes:{seed}")
    merged: dict[int, Row] = {}
    started = perf_counter()
    batch = list(instances)
    while True:
        start = perf_counter()
        for r in run_pass(batch, run):
            first = merged.get(r.index)
            if first is not None:
                r = Row(r.index, first.seconds + r.seconds, first.norm + r.norm,
                        first.failed + r.failed, first.detail or r.detail,
                        first.depth)
            merged[r.index] = r
        took = perf_counter() - start
        if perf_counter() - started + took > seconds:
            break
        order.shuffle(batch)
    return [merged[inst.index] for inst in instances]


def counts(rows: list[Row]) -> tuple[int, int]:
    """(attempted, failed), counting every run of every instance."""
    return sum(r.runs for r in rows), sum(r.failed for r in rows)


def correct_rate(rows: list[Row]) -> float:
    attempted, failed = counts(rows)
    return 1 - failed / attempted


def end_to_end(rows: list[Row], setup_s: float) -> dict[str, float]:
    per_instance = [r.time for r in rows]
    return {
        "setup_s": setup_s,
        "wall_norm_s": sum(per_instance),
        "instance_p50_norm_s": statistics.median(per_instance),
        "instance_p90_norm_s": percentile(per_instance, 0.9),
        "instance_max_norm_s": max(per_instance),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "correct_rate": correct_rate(rows),
    }


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("corpus", "compute_wide", "verify_batch"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=35.0,
                    help="time budget: a run times the instance set in "
                         "passes while one more is expected to fit")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "monomial_segre").is_dir():
        print(f"error: no library sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.setup_probe:
        load_instances(args.workload, args.seed)
        print("ready", flush=True)
        return 0

    calib_before, cpu_before = calib_seconds(), cpu_times()
    spec, instances = load_instances(args.workload, args.seed)
    setup_s = measure_setup(args)
    record = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace}

    if args.trace:
        from tracing import Tracer
        untraced = run_pass(instances, spec.run)
        tracer = Tracer()
        tracer.install()
        try:
            traced = run_pass(instances, spec.run, tracer)
        finally:
            tracer.uninstall()
        silent = tracer.silent(args.workload)
        if silent:
            print(f"error: wrappers recorded no calls on {args.workload}: "
                  f"{', '.join(silent)}", file=sys.stderr)
            return 3
        rows = untraced + traced
        metrics = tracer.metrics()
        metrics["trace.wall_s"] = sum(r.time for r in traced)
        metrics["trace.untraced_wall_s"] = sum(r.time for r in untraced)
        metrics["trace.overhead_s"] = \
            metrics["trace.wall_s"] - metrics["trace.untraced_wall_s"]
        tracer.dump(OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json.gz",
                    record)
    else:
        rows = measure(instances, spec.run, args.seconds, args.seed)
        metrics = end_to_end(rows, setup_s)

    host = {"host.calib_before_s": calib_before,
            "host.calib_after_s": calib_seconds(),
            "host.steal_share": steal_share(cpu_before, cpu_times())}
    if args.trace:
        metrics.update(host)
        units = {name: per_layer_unit(name) for name in metrics}
    else:
        units = END_TO_END

    attempted, failed = counts(rows)
    record.update(host)
    record["metrics"] = metrics
    record["raw_wall_s"] = sum(statistics.median(r.seconds) for r in rows)
    record["rows"] = [[r.index, r.seconds, r.norm, r.failed, r.detail, r.depth]
                      for r in rows]
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json",
              "w") as fh:
        json.dump(record, fh)
    for r in (r for r in rows if not r.ok):
        print(f"FAIL {args.workload} instance {r.index}: {r.detail}",
              file=sys.stderr)
    print(" ".join(f"{k}={v:.4g}" for k, v in host.items()),
          f"raw_wall_s={record['raw_wall_s']:.4g}", file=sys.stderr)

    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
