"""Write the expected output of every benchmark instance to bench/expected/.

Run from the repository root:

    python3 bench/gen_expected.py [corpus|compute_wide|verify_batch ...]

Each record is cross-checked as it is written, so a file never stores an
answer that the library's own checks reject:

- corpus: the integral and tower pipelines agree;
- compute_wide: the integral series agrees under the default, rays_first and
  finite_reversed placement presets;
- verify_batch: every identity check passes.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from monomial_segre import cli  # noqa: E402
from monomial_segre.lattice import presentation  # noqa: E402
from monomial_segre.segre import segre_integral, segre_tower, verify  # noqa: E402

from workloads import (EXPECTED_DIR, WORKLOADS, inline_gens,  # noqa: E402
                       series_doc, stdout_digest, verify_bound)


def corpus_record(gens) -> dict:
    p = presentation(gens)
    bound = p.num_vars + 3
    integral = segre_integral(p, bound).series
    tower = segre_tower(p, bound)
    if integral != tower.series:
        raise SystemExit(f"corpus {gens}: the pipelines disagree")
    return {"series": series_doc(integral), "depth": len(tower.trace.steps)}


def compute_wide_record(gens) -> dict:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(["compute", "--gens", inline_gens(gens)])
    if code != cli.EXIT_OK:
        raise SystemExit(f"compute_wide {gens}: exit code {code}")
    p = presentation(gens)
    series = [segre_integral(p, order_preset=preset).series
              for preset in ("default", "rays_first", "finite_reversed")]
    if any(s != series[0] for s in series[1:]):
        raise SystemExit(f"compute_wide {gens}: placement presets disagree")
    if json.loads(buf.getvalue())["series"] != \
            json.loads(json.dumps(cli.series_doc(series[0]))):
        raise SystemExit(f"compute_wide {gens}: stdout is not the series")
    return {"stdout_sha256": stdout_digest(buf.getvalue()),
            "stdout_bytes": len(buf.getvalue().encode()),
            "terms": len(series[0].terms)}


def verify_batch_record(gens) -> dict:
    p = presentation(gens)
    report = verify(p, verify_bound(p))
    if not report.ok:
        failed = [c.name for c in report.checks if not c.passed]
        raise SystemExit(f"verify_batch {gens}: checks failed {failed}")
    return {"checks": [c.name for c in report.checks]}


RECORDS = {"corpus": corpus_record, "compute_wide": compute_wide_record,
           "verify_batch": verify_batch_record}


def write(name: str) -> None:
    workload = WORKLOADS[name]
    records = []
    for k, gens in enumerate(workload.generators()):
        if gens in workload.excluded:
            continue
        record = {"index": k, "generators": [list(g) for g in gens]}
        record.update(RECORDS[name](gens))
        records.append(record)
        print(f"{name} {k}", file=sys.stderr)
    EXPECTED_DIR.mkdir(exist_ok=True)
    with open(workload.expected_path(), "w") as fh:
        json.dump({"workload": workload.name, "instances": records}, fh,
                  separators=(",", ":"))
        fh.write("\n")


if __name__ == "__main__":
    for name in sys.argv[1:] or list(RECORDS):
        write(name)
