import errno
import functools
import hashlib
import io
import json
import os
import subprocess
import sys

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


def test_tower_names_the_fallback_rule(capsys):
    # the euclid rule reaches no divisor on this ideal within the cap
    code, doc, _ = run_json(capsys, ["tower", "--gens",
                                     "0,0,3;0,2,4;1,4,0;4,2,1"])
    assert code == EXIT_OK
    assert doc["strategy"] == "euclid"
    assert doc["trace"]["strategy"] == "euclid_relevant"
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
# towers of the acceptance corpus, deep enough to exercise the stratum model
# and the push-down far above the base; five is a five-generator ideal in four
# variables; `triangulate` prints every cell's contribution, and on five it
# runs under each placement-order preset.  labelled_job is nil_pair_job under
# its own labels, so its trace shows the names blow-ups derive from them.
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
        "b73e66070b0aed65b248805c42fd57a156d2237ef3ac9eda555f47192b12bcc0",
    ("tower", "depth90", None):
        "4402524798ab4ddb3a001c4658dd0763504f5f4754f110a314f34fcaa74f12f9",
    ("tower", "depth37", None):
        "c8f4b5874a719ec84706cfac79287e0c9a16f49363396086c1b946117376ee45",
    ("tower", "depth29", None):
        "a82a18f02f2aa1c50a3f557f6d117d5933c2bf086f9b6a727f49d89b64b41d71",
    ("verify", "five", None):
        "e104a97c9f0938a0a204b517861dd9fac536b3f21b1d8e0e5dcc0bcb56e937c1",
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
    # verify reports pipeline_equality as failed there
    assert code == (EXIT_FAIL if (command, job) == ("verify", "five")
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
    # comes; verify's blow-up checks, at C(4 + 31, 4), count one more variable
    budget_runs = [(["compute", "--gens", "1,1,1", "--dmax", "65"], None),
                   (["verify", "--gens", "1,1,1", "--dmax", "31"], None),
                   (["compute", "--input", "-"], None),
                   (["compute", "--gens", "1,1,1"], "65")]
    for argv, env_dmax in budget_runs:
        if env_dmax is not None:
            monkeypatch.setenv(cli.ENV_DMAX, env_dmax)
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(
            {"n": 3, "generators": [[1, 1, 1]], "dmax": 65})))
        code, out, err = run(capsys, argv)
        assert code == EXIT_USAGE, argv
        assert out == "" and err.count("\n") == 1, err
        assert err.startswith("error: ") and "budget" in err, err
    monkeypatch.delenv(cli.ENV_DMAX)
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
        # labels of the shape blow-ups generate would collide up the tower
        json.dumps({"n": 2, "generators": [[3, 0], [1, 1], [0, 3]],
                    "labels": ["E1", "X2"]}),
        json.dumps({"n": 2, "generators": [[3, 0], [1, 1], [0, 3]],
                    "labels": ["~X1", "X1"]}),
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


def test_env_var_dmax(capsys, monkeypatch):
    monkeypatch.setenv(cli.ENV_DMAX, "2")
    code, doc, _ = run_json(capsys, ["compute"] + STAIRCASE_ARGS)
    assert doc["dmax"] == 2
    assert max(sum(t["exponents"]) for t in doc["series"]) <= 2
    # an explicit flag wins over the environment
    _, doc2, _ = run_json(capsys, ["compute"] + STAIRCASE_ARGS +
                          ["--dmax", "3"])
    assert doc2["dmax"] == 3
    monkeypatch.setenv(cli.ENV_DMAX, "zonk")
    assert run(capsys, ["compute"] + STAIRCASE_ARGS)[0] == EXIT_USAGE


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
        return report.__class__(report.presentation,
                                report.checks + (bad,), report.diverged)
    monkeypatch.setattr(cli, "verify", broken)
    code, doc, _ = run_json(capsys, ["verify"] + STAIRCASE_ARGS +
                            ["--dmax", "3"])
    assert code == EXIT_FAIL
    assert doc["ok"] is False


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
    cli.emit(doc, buf)
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
@settings(max_examples=300, deadline=None)
def test_emit_lays_out_documents_as_json_dumps(doc):
    assert emitted(doc) == json.dumps(as_plain(doc), indent=2) + "\n"


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
