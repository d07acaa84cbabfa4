import contextlib
import errno
import functools
import hashlib
import io
import json
import os
import subprocess
import sys
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from monomial_segre import cli
from monomial_segre.cli import (EXIT_DIVERGED, EXIT_FAIL, EXIT_OK, EXIT_USAGE,
                                UsageError, main, parse_inline_generators,
                                render_svg)
from monomial_segre.lattice import presentation
from monomial_segre.series import TruncatedSeries

STAIRCASE_ARGS = ["--gens", "3,0;1,1;0,3"]


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, argv):
    code, out, err = run(capsys, argv)
    return code, json.loads(out), err


def test_parse_inline_generators():
    assert parse_inline_generators("3,0;1,1;0,3") == ((3, 0), (1, 1), (0, 3))
    assert parse_inline_generators(" 1,2 ; 3,4 ;") == ((1, 2), (3, 4))
    with pytest.raises(UsageError):
        parse_inline_generators("1,a")
    with pytest.raises(UsageError):
        parse_inline_generators(";;")


def test_compute_golden(capsys):
    code, doc, _ = run_json(capsys, ["compute"] + STAIRCASE_ARGS +
                            ["--dmax", "3"])
    assert code == EXIT_OK
    assert doc["n"] == 2
    assert doc["generators"] == [[3, 0], [1, 1], [0, 3]]
    assert doc["dmax"] == 3
    terms = {tuple(t["exponents"]): t["coefficient"] for t in doc["series"]}
    # the scheme has codimension 2, so the class starts in degree 2
    assert terms == {(1, 1): 6, (1, 2): -15, (2, 1): -15}


def test_compute_output_round_trips(capsys, tmp_path):
    code, out, _ = run(capsys, ["compute"] + STAIRCASE_ARGS)
    assert code == EXIT_OK
    job = tmp_path / "job.json"
    job.write_text(out)
    code2, doc2, _ = run_json(capsys, ["compute", "--input", str(job)])
    assert code2 == EXIT_OK
    assert doc2 == json.loads(out)


def test_compute_byte_stable(capsys):
    _, out1, _ = run(capsys, ["compute"] + STAIRCASE_ARGS)
    _, out2, _ = run(capsys, ["compute"] + STAIRCASE_ARGS)
    assert out1 == out2


def test_tower_trace_and_agreement(capsys):
    code, doc, _ = run_json(capsys, ["tower"] + STAIRCASE_ARGS)
    assert code == EXIT_OK
    assert doc["trace"]["iterations"] == len(doc["trace"]["steps"])
    code2, doc2, _ = run_json(capsys, ["compute"] + STAIRCASE_ARGS)
    assert doc2["series"] == doc["series"]


def test_tower_names_the_center_rule(capsys):
    code, doc, _ = run_json(capsys, ["tower", "--gens",
                                     "0,0,3;0,2,4;1,4,0;4,2,1"])
    assert code == EXIT_OK
    assert doc["strategy"] == "euclid"
    assert doc["trace"]["strategy"] == "euclid"
    assert doc["trace"]["iterations"] == 26


def test_verify_ok(capsys):
    code, doc, _ = run_json(capsys, ["verify"] + STAIRCASE_ARGS +
                            ["--dmax", "4"])
    assert code == EXIT_OK
    assert doc["ok"] is True
    assert all(c["passed"] for c in doc["checks"])


# SHA-256 of the stdout of `compute`, `triangulate`, `tower` and `verify` on
# these inputs: the JSON these commands print is part of the interface and must
# stay byte-identical.  depth90, depth50, depth37 and depth29 are the deepest
# towers of the acceptance corpus, named by the depths they once took; under
# the one center rule they are 38, 21, 25 and 25 levels deep, deep enough to
# exercise the stratum model and the push-down far above the base.  five is a
# five-generator ideal in four variables, whose tower needs 411 levels, more
# than the cap; `triangulate` prints every cell's contribution, and on five
# it runs under each placement-order preset.  labelled_job is nil_pair_job
# under its own labels, so its trace shows the names blow-ups derive from them.
NIL_PAIR_JOB = {"n": 3, "generators": [[2, 0, 1], [0, 2, 0], [1, 1, 2]],
                "nil_pairs": [["X1", "X3"]], "dmax": 4}
JOB_DOCUMENTS = {
    "nil_pair_job": NIL_PAIR_JOB,
    "labelled_job": {"n": 3, "generators": [[2, 0, 1], [0, 2, 0], [1, 1, 2]],
                     "labels": ["a", "b", "c"], "nil_pairs": [["a", "c"]],
                     "dmax": 4},
}
GOLDEN_DIGESTS = {
    ("compute", "staircase", None):
        "5dd43b6aaa082fd5c67ac28c83ec0ce98e7a2bb41dd686a5808b56bea49a33cf",
    ("compute", "nil_pair_job", None):
        "67810534857286ef094ab1086077f0fa49ed0988d850ae1548167665efd84af9",
    ("compute", "five", None):
        "dd0b37a89773a5a343b86088014d79b401c8e38a9ada1a7ff45cb7f67cdab336",
    ("triangulate", "staircase", None):
        "42ac758f5c3ea4dfa4a5a898201f3166d8cb96dc5474057b0f27eb594a3e00d2",
    ("tower", "staircase", None):
        "191d804cbc7fd60d4a1f7b38dfd2e85c9dab3f2435eeb427e6d5d409258135df",
    ("verify", "staircase", None):
        "5fb390ce464465240276228587208ed819c67932ced7b33cd8b72a75309cccb9",
    ("tower", "nil_pair_job", None):
        "d281c415eea2f1e00993c3be00543aa7d21175e9c37ed4cfdb5732bf9b1c2449",
    ("tower", "labelled_job", None):
        "fac92a4ff9f57f44bcff900fd303d5aa517c9beeab4e363fb86d45029f017c77",
    ("verify", "nil_pair_job", None):
        "08d4278533547d33493bb52f9ef5672657b3ac0eeb88a56b2ecc3ab0ce25e9c3",
    ("tower", "depth50", None):
        "71017b5ac7f64136892c63189ce15a53fe6feb68e0d621d72d8db46c067c69cc",
    ("tower", "depth90", None):
        "853910b54820830ffb7d9e4dcd3619deef3eb7486e671a448b6ef17927009932",
    ("tower", "depth37", None):
        "1b2988ed29aec40c3516b82aa3df0f9004fc2002a970156a1ff626f91f48dd38",
    ("tower", "depth29", None):
        "cb2e3d5ca744abc629dca13fbe28d4d3193b87a3ebb8bf8ddf656ed8e5dc5342",
    ("verify", "five", None):
        "73db81b7165fa8e793f741de72e8067d97da766403dcdb14e2e7d5f03cbe5ca8",
    ("triangulate", "five", "default"):
        "de3db94ecaddf04318dc8d60eb9821eaaecc430b93a914be27a5fee3de9bf365",
    ("triangulate", "five", "rays_first"):
        "70f95681f235ea6681e802a4b0a5e5e5db2fb604b19de0a274cecb4859a84cdc",
    ("triangulate", "five", "finite_reversed"):
        "3edbbbb413dc4440bcc01e80c166b906b5f52008bd0cdfdcef1e8184f9cb5727",
}
DEEP_TOWERS = {"depth90": "0,1,2;1,4,1;2,3,4;4,0,0",
               "depth50": "0,0,3;0,3,1;3,0,0;3,1,2",
               "depth37": "0,4,4;1,0,3;4,0,1",
               "depth29": "0,2,4;1,1,1;2,1,2;3,0,3"}


GOLDEN_RUNS = sorted(GOLDEN_DIGESTS, key=str)


@pytest.mark.parametrize("command, job, preset", GOLDEN_RUNS,
                         ids=["-".join(filter(None, k)) for k in GOLDEN_RUNS])
def test_tower_and_verify_golden_bytes(capsys, tmp_path, command, job, preset):
    if job == "staircase":
        argv = [command] + STAIRCASE_ARGS + ["--dmax", "4"]
    elif job in DEEP_TOWERS:
        argv = [command, "--gens", DEEP_TOWERS[job]]
    elif job == "five":
        argv = [command, "--gens", "2,0,1,0;0,3,0,1;1,1,0,2;0,0,2,1;1,0,1,1"]
    else:
        path = tmp_path / "job.json"
        path.write_text(json.dumps(JOB_DOCUMENTS[job]))
        argv = [command, "--input", str(path)]
    if preset is not None:
        argv += ["--preset", preset]
    code, out, _ = run(capsys, argv)
    # the tower on five reaches no divisor within its cap of blow-ups, so
    # verify reports pipeline_equality as failed there, and exits diverged
    assert code == (EXIT_DIVERGED if (command, job) == ("verify", "five")
                    else EXIT_OK)
    assert hashlib.sha256(out.encode()).hexdigest() == \
        GOLDEN_DIGESTS[command, job, preset]
    if job == "nil_pair_job":
        # naming the one center rule in the document changes nothing
        path.write_text(json.dumps({**NIL_PAIR_JOB, "strategy": "euclid"}))
        assert run(capsys, argv) == (code, out, "")


def test_triangulate_document(capsys):
    code, doc, _ = run_json(capsys, ["triangulate"] + STAIRCASE_ARGS +
                            ["--dmax", "3"])
    assert code == EXIT_OK
    assert len(doc["complement_cells"]) == 3
    assert doc["placement_order"][-1] == "O"
    rayed = [c for c in doc["complement_cells"] if c["infinite_directions"]]
    assert rayed, "complement must contain unbounded cells"
    for c in doc["complement_cells"]:
        assert c["hvol"] >= 1


def test_triangulate_rejects_nil_pairs(capsys, monkeypatch):
    # its cell contributions are not reduced, so they would keep terms on
    # the strata the document declares empty
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(
        {"n": 2, "generators": [[2, 0], [1, 1], [0, 2]],
         "nil_pairs": [["X1", "X2"]], "dmax": 3})))
    code, out, err = run(capsys, ["triangulate", "--input", "-"])
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1, err


def test_render_svg_sanity(capsys, tmp_path):
    out_file = tmp_path / "fig.svg"
    code, out, _ = run(capsys, ["render"] + STAIRCASE_ARGS +
                       ["-o", str(out_file)])
    assert code == EXIT_OK
    svg = out_file.read_text()
    assert svg.startswith("<svg")
    assert svg.count("<circle") == 3  # one dot per generator
    assert "<polygon" in svg
    code2, out2, _ = run(capsys, ["render"] + STAIRCASE_ARGS)
    assert out2 == svg


def test_render_to_an_unwritable_path(capsys, tmp_path):
    for target in (tmp_path / "missing" / "fig.svg", tmp_path):
        code, out, err = run(capsys, ["render"] + STAIRCASE_ARGS +
                             ["-o", str(target)])
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith(f"error: cannot write {target}: ")
        assert err.count("\n") == 1, err


def test_render_rejects_n3(capsys):
    code, _, err = run(capsys, ["render", "--gens", "1,0,0;0,1,0"])
    assert code == EXIT_USAGE
    assert "n = 2" in err


def test_render_is_not_refused_for_the_series_budget(capsys, monkeypatch):
    # render builds no series, so a document's dmax puts no budget on it
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(
        {"n": 2, "generators": [[3, 0], [1, 1], [0, 3]], "dmax": 400})))
    code, out, err = run(capsys, ["render", "--input", "-"])
    assert code == EXIT_OK and err == ""
    assert out == run(capsys, ["render"] + STAIRCASE_ARGS)[1]


def test_render_of_many_variables_names_its_own_limit(capsys):
    # 20 variables at the default dmax 23 would be over the series budget
    gens = ";".join(",".join(str(int(k == d)) for k in range(20))
                    for d in range(20))
    code, out, err = run(capsys, ["render", "--gens", gens])
    assert code == EXIT_USAGE and out == ""
    assert err == "error: render only supports n = 2\n"


def test_render_refuses_a_picture_too_wide(capsys):
    # the picture is RENDER_MAX_UNITS = 500 lattice units across at 498
    code, out, _ = run(capsys, ["render", "--gens", "498,0;0,1"])
    assert code == EXIT_OK and out.startswith("<svg")
    for gens in ("499,0;0,1", "100000000,0;0,1"):
        start = time.perf_counter()
        code, out, err = run(capsys, ["render", "--gens", gens])
        assert time.perf_counter() - start < 5
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("error: render draws at most 500 ")
        assert err.count("\n") == 1, err


def test_usage_errors(capsys, monkeypatch, tmp_path):
    # neither --gens nor --input
    assert run(capsys, ["compute"])[0] == EXIT_USAGE
    # unknown subcommand
    assert run(capsys, ["frobnicate"])[0] == EXIT_USAGE
    # malformed generators
    assert run(capsys, ["compute", "--gens", "x,y"])[0] == EXIT_USAGE
    # there is one center rule and no flag to choose it
    assert run(capsys, ["tower", "--gens", "1,0;0,1",
                        "--strategy", "euclid"])[0] == EXIT_USAGE
    # bad dmax
    assert run(capsys, ["compute"] + STAIRCASE_ARGS +
               ["--dmax", "0"])[0] == EXIT_USAGE
    # the number of variables is the generators' length; there is no flag
    assert run(capsys, ["compute", "--gens", "1,0;0,1",
                        "--n", "2"])[0] == EXIT_USAGE
    # a lifted configuration has its own order, and no preset names it
    for command in ("compute", "triangulate"):
        assert run(capsys, [command, "--gens", "1,0;0,1",
                            "--preset", "blowup"])[0] == EXIT_USAGE
    # the series does not depend on the placement order, so compute has no
    # preset to choose
    assert run(capsys, ["compute", "--gens", "1,0;0,1",
                        "--preset", "rays_first"])[0] == EXIT_USAGE
    # over the term budget, C(3 + 65, 3) > TERM_BUDGET, whichever way dmax
    # comes; verify's blow-up checks, at C(4 + 31, 4), count one more
    # variable where the job has an admissible pair, as X1^3, X2^3 do
    budget_runs = [["compute", "--gens", "1,1,1", "--dmax", "65"],
                   ["verify", "--gens", "3,0,0;0,3,0", "--dmax", "31"],
                   ["compute", "--input", "-"]]
    for argv in budget_runs:
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(
            {"n": 3, "generators": [[1, 1, 1]], "dmax": 65})))
        code, out, err = run(capsys, argv)
        assert code == EXIT_USAGE, argv
        assert out == "" and err.count("\n") == 1, err
        assert err.startswith("error: ") and "budget" in err, err
    # no workers, negative count
    assert run(capsys, ["corpus", "--count", "2", "--jobs", "0"])[0] == EXIT_USAGE
    assert run(capsys, ["corpus", "--count", "-2", "--jobs", "1"])[0] == EXIT_USAGE
    # bad input documents: each is a one-line error, never a traceback
    good = {"n": 2, "generators": [[1, 0], [0, 1]]}
    bad_docs = [
        "{not json",
        json.dumps({**good, "generators": [[1.5, 0], [0, 1]]}),
        json.dumps({**good, "generators": [[True, 0], [0, 1]]}),
        json.dumps({**good, "n": "2"}),
        json.dumps({**good, "dmax": "x"}),
        json.dumps({**good, "nil_pairs": [["X1", "X9"]]}),
        json.dumps({**good, "nil_pairs": [["X1", "X1"]]}),
        json.dumps({**good, "nil_pairs": [[["X1"], "X2"]]}),
        json.dumps({**good, "labels": ["a", 3]}),
        json.dumps({**good, "labels": 5}),
        # labels and nil pairs are arrays, not strings read letter by letter
        json.dumps({**good, "labels": "AB"}),
        json.dumps({**good, "nil_pairs": "X1"}),
        json.dumps({**good, "labels": ["A", "B"], "nil_pairs": ["AB"]}),
        json.dumps({**good, "nil_pairs": [["X1", "X2", "X1"]]}),
        json.dumps({"generators": [[1, 0]]}),
        "[1, 2]",
        json.dumps({**good, "strategy": "zonk"}),
        json.dumps({**good, "strategy": "lex"}),
        # labels of the shape of the names tower gives blow-up divisors
        # would collide with them
        json.dumps({"n": 2, "generators": [[3, 0], [1, 1], [0, 3]],
                    "labels": ["E1", "X2"]}),
        json.dumps({"n": 2, "generators": [[3, 0], [1, 1], [0, 3]],
                    "labels": ["~X1", "X1"]}),
        # too deep for the JSON parser's recursion
        "[" * 200000 + "]" * 200000,
        # 16 disjoint nil pairs split the strata into 65,536 facets
        json.dumps({"n": 32, "generators": [[1] * 32],
                    "nil_pairs": [[f"X{k}", f"X{k + 1}"]
                                  for k in range(1, 32, 2)]}),
    ]
    for text in bad_docs:
        for command in ("compute", "tower", "verify"):
            monkeypatch.setattr("sys.stdin", io.StringIO(text))
            code, _, err = run(capsys, [command, "--input", "-"])
            assert code == EXIT_USAGE, (command, text)
            assert err.startswith("error: ") and err.count("\n") == 1, err
    code, _, err = run(capsys, ["compute", "--input",
                                str(tmp_path / "missing.json")])
    assert code == EXIT_USAGE
    assert err.startswith("error: ") and err.count("\n") == 1, err


def test_verify_without_a_pair_is_budgeted_in_its_own_width(capsys):
    # X1 X2 X3 has no admissible pair, so no check lifts a variable: every
    # series is C(3 + 31, 3) = 5,984 terms wide, within the budget, though
    # C(4 + 31, 4) is not
    code, out, err = run(capsys, ["verify", "--gens", "1,1,1",
                                  "--dmax", "31"])
    assert code == 0, err
    assert json.loads(out)["ok"] is True


def test_generators_must_be_a_list_of_lists(capsys, monkeypatch):
    # a string is not read letter by letter, nor an object by its keys
    for generators in ("ab", {"a": [1, 0], "b": [0, 1]}, [[1, 0], "ab"]):
        text = json.dumps({"n": 2, "generators": generators})
        for command in ("compute", "tower", "verify"):
            monkeypatch.setattr("sys.stdin", io.StringIO(text))
            code, out, err = run(capsys, [command, "--input", "-"])
            assert code == EXIT_USAGE and out == "", (command, text)
            assert err == ("error: labels must be a list, and generators "
                           "and nil_pairs lists of lists\n"), err


def test_tower_refuses_a_top_expansion_over_the_budget(capsys):
    # the depth-38 tower's base series at dmax 20 is within the budget, but
    # its top expansion, counted after principalizing, has 71,000 terms
    code, out, err = run(capsys, ["tower", "--gens", "0,1,2;1,4,1;2,3,4;4,0,0",
                                  "--dmax", "20"])
    assert code == EXIT_USAGE
    assert out == ""
    assert err == ("error: the top expansion of a 41-variable tower at "
                   "degree bound 20 has 71000 terms, more than the budget "
                   "of 50000\n")


@pytest.mark.parametrize("command, n, dmax", [("tower", 22, 2),
                                              ("verify", 22, 2),
                                              ("tower", 200, 1)])
def test_a_wide_principal_ideal_costs_its_faces_within_dmax(capsys, command,
                                                             n, dmax):
    # x1...x22 is a divisor on the one 22-position facet, which has 2^22
    # faces; the top expansion lists only the 22 + 231 faces of at most
    # dmax = 2 positions, which carry all its terms (at n = 200 the full list
    # would not fit in memory).  The class is D - D^2 + ..., D = X1 + ... + Xn
    start = time.perf_counter()
    code, doc, err = run_json(capsys, [command, "--gens", ",".join(["1"] * n),
                                       "--dmax", str(dmax)])
    assert time.perf_counter() - start < 1
    assert code == EXIT_OK and err == ""
    if command == "verify":
        assert all(check["passed"] for check in doc["checks"])
        return
    want = {}
    for k in range(n):
        want[tuple(int(m == k) for m in range(n))] = 1
        if dmax == 2:
            for l in range(k, n):
                want[tuple((m == k) + (m == l) for m in range(n))] = \
                    -1 if k == l else -2
    assert {tuple(t["exponents"]): t["coefficient"]
            for t in doc["series"]} == want


def test_nil_pair_error_does_not_depend_on_the_hash_seed():
    # the pairs are checked in the order given: the first bad one is named
    doc = json.dumps({"n": 2, "generators": [[1, 0], [0, 1]],
                      "nil_pairs": [["X1", "X9"], ["X2", "X8"]]})
    src = os.path.dirname(os.path.dirname(cli.__file__))
    for seed in ("0", "5"):
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src}
        done = subprocess.run(
            [sys.executable, "-m", "monomial_segre.cli", "tower", "--input",
             "-"], input=doc, capture_output=True, text=True, env=env,
            timeout=60)
        assert done.returncode == EXIT_USAGE
        assert done.stdout == ""
        assert done.stderr == ("error: nil pair ['X1', 'X9'] uses a label "
                               "outside ['X1', 'X2']\n")


def test_the_environment_does_not_set_dmax(capsys, monkeypatch):
    # dmax comes from --dmax or the input document alone
    monkeypatch.setenv("MONOMIAL_SEGRE_DMAX", "2")
    code, doc, _ = run_json(capsys, ["compute"] + STAIRCASE_ARGS)
    assert code == EXIT_OK
    assert doc["dmax"] == 5
    assert max(sum(t["exponents"]) for t in doc["series"]) == 5


def test_input_document_with_nil_pairs(capsys, tmp_path):
    job = tmp_path / "job.json"
    job.write_text(json.dumps({
        "n": 2, "generators": [[1, 0], [0, 1]],
        "nil_pairs": [["X1", "X2"]], "dmax": 4}))
    code, doc, _ = run_json(capsys, ["compute", "--input", str(job)])
    assert code == EXIT_OK
    assert doc["series"] == []  # empty scheme: zero class


def test_stdin_input(capsys, monkeypatch, tmp_path):
    doc = {"n": 2, "generators": [[1, 1]], "dmax": 2}
    import io
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
    code, out_doc, _ = run_json(capsys, ["compute", "--input", "-"])
    assert code == EXIT_OK
    assert out_doc["dmax"] == 2


def test_verify_failure_exit_code(capsys, monkeypatch):
    # force one check to fail to observe exit code 1
    from monomial_segre import segre

    real_verify = segre.verify

    def broken(p, *a, **k):
        report = real_verify(p, *a, **k)
        bad = report.checks[0].__class__("forced", False, "")
        return report.__class__(report.checks + (bad,), report.diverged)
    monkeypatch.setattr(cli, "verify", broken)
    code, doc, _ = run_json(capsys, ["verify"] + STAIRCASE_ARGS +
                            ["--dmax", "3"])
    assert code == EXIT_FAIL
    assert doc["ok"] is False


def test_tower_names_stay_unique_on_every_level(capsys, monkeypatch):
    # the names are derived from the centers: the k-th exceptional divisor
    # is E<k>, and labels near that shape, but not of it, keep every
    # level's names unique
    doc = {"n": 3, "generators": [[0, 2, 0], [0, 0, 2], [0, 1, 1]],
           "labels": ["E", "E1x", "X~"], "dmax": 5}
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
    code, doc, _ = run_json(capsys, ["tower", "--input", "-"])
    steps = doc["trace"]["steps"]
    assert code == EXIT_OK and steps
    for k, step in enumerate(steps, 1):
        assert step["exceptional"] == f"E{k}"
        assert len(set(step["variables"])) == len(step["variables"]) == 3 + k


def test_divergence_names_the_partial_centers(capsys, monkeypatch):
    # a cap of two stops the depth-50 tower after its first two centers
    from monomial_segre import segre
    from monomial_segre.principalize import principalize

    monkeypatch.setattr(segre, "run_principalize",
                        functools.partial(principalize, cap=2))
    code, out, err = run(capsys, ["tower", "--gens", DEEP_TOWERS["depth50"]])
    assert code == EXIT_DIVERGED
    assert out == ""
    assert err.splitlines() == [
        "tower divergence: no divisor reached within 2 blow-ups",
        "partial tower centers: X2,X3 E1,~X3"]


def test_corpus_small_run(capsys):
    code, doc, _ = run_json(capsys, ["corpus", "--count", "6", "--seed", "1",
                                     "--jobs", "1"])
    assert code in (EXIT_OK, EXIT_DIVERGED)
    assert doc["count"] == 6
    assert len(doc["results"]) == 6
    assert doc["passed"] + doc["failed"] + doc["diverged"] == 6
    # determinism: the same seed regenerates the same instances
    _, doc2, _ = run_json(capsys, ["corpus", "--count", "6", "--seed", "1",
                                   "--jobs", "1"])
    assert [r["generators"] for r in doc2["results"]] == \
        [r["generators"] for r in doc["results"]]


def test_corpus_counts_a_tower_at_the_cap_as_diverged(capsys, monkeypatch):
    # with a cap of one, every instance needing two or more blow-ups
    # diverges; none of them is a verification failure
    from monomial_segre import segre
    from monomial_segre.principalize import principalize

    monkeypatch.setattr(segre, "run_principalize",
                        functools.partial(principalize, cap=1))
    code, doc, _ = run_json(capsys, ["corpus", "--count", "8", "--seed", "1",
                                     "--jobs", "1"])
    assert code == EXIT_DIVERGED
    assert doc["failed"] == 0 and doc["diverged"] == 4
    assert doc["passed"] == 4
    for r in doc["results"]:
        if r["status"] == "diverged":
            assert r["failed"] == ["pipeline_equality"]
        else:
            assert r["status"] == "pass" and r["failed"] == []


def test_verify_exits_diverged_at_the_cap(capsys, monkeypatch):
    from monomial_segre import segre
    from monomial_segre.principalize import principalize

    monkeypatch.setattr(segre, "run_principalize",
                        functools.partial(principalize, cap=2))
    code, doc, _ = run_json(capsys, ["verify", "--gens",
                                     DEEP_TOWERS["depth50"]])
    assert code == EXIT_DIVERGED
    assert doc["ok"] is False
    failed = [c for c in doc["checks"] if not c["passed"]]
    assert [c["name"] for c in failed] == ["pipeline_equality"]
    assert failed[0]["detail"] == ("tower divergence: no divisor reached "
                                   "within 2 blow-ups")


def _fail_the_residual_check(monkeypatch, cap):
    from monomial_segre import segre
    from monomial_segre.principalize import principalize

    monkeypatch.setattr(segre, "run_principalize",
                        functools.partial(principalize, cap=cap))
    monkeypatch.setattr(segre, "residual_identity_check",
                        lambda p, integral: (False, "forced"))


def test_verify_fails_a_failed_identity_next_to_a_capped_tower(capsys,
                                                              monkeypatch):
    # the capped tower is not the one failure, so the run is a failure
    _fail_the_residual_check(monkeypatch, cap=1)
    code, doc, _ = run_json(capsys, ["verify"] + STAIRCASE_ARGS)
    assert code == EXIT_FAIL
    assert doc["ok"] is False
    failed = [c for c in doc["checks"] if not c["passed"]]
    assert [c["name"] for c in failed] == ["pipeline_equality",
                                           "residual_identity"]
    assert failed[0]["detail"].startswith("tower divergence: ")


def test_corpus_fails_a_failed_identity_next_to_a_capped_tower(capsys,
                                                              monkeypatch):
    # the four instances whose tower hits the cap of one fail, as the other
    # four do, on their residual check
    _fail_the_residual_check(monkeypatch, cap=1)
    code, doc, _ = run_json(capsys, ["corpus", "--count", "8", "--seed", "1",
                                     "--jobs", "1"])
    assert code == EXIT_FAIL
    assert (doc["passed"], doc["failed"], doc["diverged"]) == (0, 8, 0)
    assert sorted(len(r["failed"]) for r in doc["results"]) == [1] * 4 + [2] * 4
    for r in doc["results"]:
        assert r["status"] == "fail"
        assert r["failed"][-1] == "residual_identity"


def test_corpus_worker_count():
    cpus = os.cpu_count() or 1
    assert cli.corpus_workers(1, 100) == 1
    assert cli.corpus_workers(10 ** 6, 3) == min(3, cpus)
    assert cli.corpus_workers(10 ** 6, 10 ** 6) == cpus
    with pytest.raises(UsageError):
        cli.corpus_workers(0, 10)


def test_render_svg_direct():
    svg = render_svg(presentation(((2, 0), (0, 2))))
    assert svg.count("<circle") == 2
    assert svg.rstrip().endswith("</svg>")


# -- output ------------------------------------------------------------------

SRC = os.path.dirname(os.path.dirname(cli.__file__))


def as_plain(value):
    """The document emit writes, with each series replaced by its
    series_doc: what json.dumps(indent=2) must print for it."""
    if isinstance(value, TruncatedSeries):
        return cli.series_doc(value)
    if isinstance(value, dict):
        return {k: as_plain(v) for k, v in value.items()}
    if isinstance(value, list):
        return [as_plain(v) for v in value]
    return value


def emitted(doc) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        cli.emit(doc)
    return buf.getvalue()


@st.composite
def series(draw):
    n = draw(st.integers(0, 3))
    bound = draw(st.integers(0, 4))
    exponents = st.tuples(*[st.integers(0, bound)] * n)
    coefficients = st.integers(-3, 3) | st.integers(-10 ** 40, 10 ** 40)
    return TruncatedSeries(n, bound, draw(st.dictionaries(
        exponents, coefficients, max_size=6)))


scalars = (st.none() | st.booleans() | st.integers() |
           st.integers(-10 ** 30, 10 ** 30) | st.text() |
           st.sampled_from(['"', "\\", "a\"b\\c", "\x00\x1f\n\t\r",
                            "\u00e9\u20ac\U0001f600", ""]))
documents = st.recursive(
    scalars | series(),
    lambda inner: st.lists(inner, max_size=4) |
    st.dictionaries(st.text() | st.sampled_from(["series", 'k"\\']), inner,
                    max_size=4),
    max_leaves=20)


@given(documents)
@example(TruncatedSeries.zero(3, 4))
@example({"series": TruncatedSeries.zero(3, 4)})
@example([TruncatedSeries(2, 3, {(0, 1): -10 ** 50, (2, 1): -7, (1, 0): 3})])
@example({"constant": TruncatedSeries(0, 2, {(): -(10 ** 60)})})
# keys and strings that are, or hold, emit's placeholders for a series
# ("\x00series<k>\x00", k = 0, 1, ...) or their JSON encodings
@example({"\x00series\x00": None})
@example({"\x00series0\x00": None})
@example({"\x00series0\x00": TruncatedSeries(1, 2, {(1,): 4})})
@example({"s": TruncatedSeries(1, 2, {(1,): 4}), "t": "\x00series0\x00"})
@example(["\x00series0\x00", TruncatedSeries(2, 2, {(1, 1): -1})])
@example([TruncatedSeries.zero(1, 1), 'x"\x00series0\x00'])
@example({'"\\u0000series0\\u0000"': TruncatedSeries.zero(1, 1),
          "x": ['"\\u0000series0\\u0000"']})
@example({"\x00series0\x00": ["\x00series1\x00",
                               TruncatedSeries(1, 3, {(2,): 5})]})
@settings(max_examples=300, deadline=None)
def test_emit_lays_out_documents_as_json_dumps(doc):
    assert emitted(doc) == json.dumps(as_plain(doc), indent=2) + "\n"


@pytest.mark.parametrize("argv", [
    ["compute"] + STAIRCASE_ARGS,
    ["tower"] + STAIRCASE_ARGS,
    ["verify"] + STAIRCASE_ARGS,
    ["triangulate"] + STAIRCASE_ARGS,
    ["corpus", "--count", "2", "--jobs", "1"],
], ids=["compute", "tower", "verify", "triangulate", "corpus"])
def test_a_command_lays_out_its_document_in_one_json_dumps(
        capsys, monkeypatch, argv):
    calls = []
    real = json.dumps

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)
    monkeypatch.setattr(json, "dumps", counting)
    assert main(argv) == EXIT_OK
    assert len(calls) == 1
    assert json.loads(capsys.readouterr().out)


class RecordingStream(io.StringIO):
    def __init__(self):
        super().__init__()
        self.sizes = []

    def write(self, text):
        self.sizes.append(len(text))
        return super().write(text)


def test_compute_writes_its_series_term_by_term(monkeypatch):
    # no write carries more than one term, so the document is never built
    stream = RecordingStream()
    monkeypatch.setattr("sys.stdout", stream)
    assert main(["compute", "--gens", "1,1,1", "--dmax", "20"]) == EXIT_OK
    doc = json.loads(stream.getvalue())
    assert len(doc["series"]) >= 1000
    assert max(stream.sizes) <= 300


class FailingStream(io.StringIO):
    """Takes `room` characters, then raises exc on every write."""

    def __init__(self, exc, room):
        super().__init__()
        self.exc, self.room = exc, room

    def write(self, text):
        if self.tell() + len(text) > self.room:
            raise self.exc
        return super().write(text)


@pytest.mark.parametrize("argv", [
    ["compute", "--gens", "1,1,1", "--dmax", "8"],
    ["corpus", "--count", "3", "--jobs", "1"],
], ids=["compute", "corpus"])
@pytest.mark.parametrize("exc_type, code", [
    (OSError, errno.ENOSPC), (BrokenPipeError, errno.EPIPE)],
    ids=["ENOSPC", "EPIPE"])
def test_a_failed_write_is_a_usage_error(capsys, monkeypatch, argv, exc_type,
                                         code):
    stream = FailingStream(exc_type(code, os.strerror(code)), room=100)
    monkeypatch.setattr("sys.stdout", stream)
    assert main(argv) == EXIT_USAGE
    assert capsys.readouterr().err == \
        f"error: cannot write output: {os.strerror(code)}\n"
    # closed, so that the flush at interpreter exit has nothing to retry
    assert stream.closed


@pytest.mark.parametrize("gens, dmax", [("3,0;1,1;0,3", "4"), ("1,1,1", "20")],
                         ids=["within-one-buffer", "many-buffers"])
def test_a_closed_pipe_ends_with_one_line(gens, dmax):
    # the reader is gone before the first byte: every write fails with EPIPE;
    # stdout is buffered, so output can be left over for the flush at exit
    env = {**os.environ, "PYTHONPATH": SRC}
    env.pop("PYTHONUNBUFFERED", None)
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "monomial_segre.cli", "compute", "--gens",
             gens, "--dmax", dmax], stdout=write_end, stderr=subprocess.PIPE,
            text=True, env=env, timeout=60)
    finally:
        os.close(write_end)
    assert done.returncode == EXIT_USAGE
    # and no "Exception ignored ... BrokenPipeError" at interpreter exit
    assert done.stderr == "error: cannot write output: Broken pipe\n"


def test_one_parser_serves_every_call(capsys, monkeypatch):
    assert cli.build_parser() is cli.build_parser()
    # the help text wraps at the terminal width
    monkeypatch.setenv("COLUMNS", "80")
    env = {**os.environ, "PYTHONPATH": SRC}
    calls = [["compute"] + STAIRCASE_ARGS,
             ["compute", "--gens", "1,0;0,1", "--dmax", "zero"],
             ["--help"],
             ["triangulate", "--preset", "rays_first"] + STAIRCASE_ARGS,
             ["corpus", "--count", "2", "--jobs", "1"],
             ["compute"] + STAIRCASE_ARGS]
    for argv in calls:
        code, out, _ = run(capsys, argv)
        done = subprocess.run(
            [sys.executable, "-m", "monomial_segre.cli"] + argv,
            capture_output=True, env=env, timeout=60)
        assert (code, out.encode()) == (done.returncode, done.stdout), argv
