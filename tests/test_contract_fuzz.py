"""Seeded fuzz of the CLI's exit-code contract.

On any input every command exits 0 with a report that passes
`docs/report-schema-v1.json` (or, for `print` and help, a document or usage
text), or exits 1 (parse error) or 2 (semantic error or refused argument)
with one line on stderr and no traceback.  The documents grow in rank
(O(k) x O(k) up to k = 40, up to nine distinct labels), mix SL(2)
dimensions and self-duality types, carry -1 root numbers and up to two
places, and some are corrupted; three more documents put 9 to 40 labels at
2 to 4 inert places.  Each request returns within five seconds.  The argv
lists are the forms only argparse reads, mutated.  Every printed document
parses back to itself.
"""

import json
import random
import time

import pytest

from test_cli import FIXTURES, argv_corpus
from uendo import cli

DOCUMENT_COMMANDS = ("classify", "centralizer", "arthur", "endoscopy", "epsilon",
                     "multiplicity")
DOCUMENTS = 120
REQUEST_TIME_LIMIT_S = 5.0
# --n and --k values up to 10; `tadic` refuses n > 8 and answers n <= 4
# with reports small enough to validate quickly
SMALL_INTS = ("-5", "+3", " 4", "٣", "x", "", "0", "2", "1_0", "2.0", "04")


def fuzz_document(rng, labels=None, places=None):
    """The text of one seeded document; `labels` distinct labels and the
    place kinds `places` when given, drawn otherwise."""
    if places is None:
        places = tuple(rng.choice(("inert", "split")) for _ in range(rng.choice((0, 0, 1, 2))))
    parity = rng.choice((1, -1))
    if labels is None and rng.random() < 0.25:
        k = rng.choice((rng.randint(1, 39), 40))  # O(k) x O(k)
        decls = [("a", 1, "+"), ("b", 1, "+")]
        terms = [(k, "a", 1), (k, "b", 1)]
    else:
        if labels is None:
            # the packet of `multiplicity` grows as 2^(labels x places)
            labels = rng.randint(1, 5 if places else 9)
        # square-integrable: self-dual labels of the datum's parity, each
        # once, the only parameters whose members `multiplicity` lists at
        # places
        discrete = rng.random() < 0.35
        decls, terms = [], []
        for j in range(labels):
            nu = rng.randint(1, 4)
            if discrete:
                sd = "+" if parity * (-1) ** (nu - 1) == 1 else "-"
            else:
                sd = rng.choice(("+", "-", "none"))
            decls.append(("m%d" % j, rng.randint(1, 2), sd))
            terms.append((1 if discrete else rng.randint(1, 2), "m%d" % j, nu))
    sds = {label: sd for label, _, sd in decls}
    degs = {label: deg for label, deg, _ in decls}
    n = sum(mult * degs[label] * nu * (2 if sds[label] == "none" else 1)
            for mult, label, nu in terms)
    if rng.random() < 0.1:
        n += rng.choice((-1, 1))
    lines = ["group U(%d) parity %s" % (n, "+" if parity == 1 else "-")]
    lines += ["mu %s: deg=%d, sd=%s" % decl for decl in decls]
    lines.append("psi = " + " + ".join(
        "%s%s (x) nu(%d)" % ("%d*" % mult if mult > 1 else "", label, nu)
        for mult, label, nu in terms))
    pairs = [(a, b) for i, (a, _, _) in enumerate(decls) for b, _, _ in decls[i + 1:]
             if {sds[a], sds[b]} == {"+", "-"} or rng.random() < 0.05]
    roots = ["%s, %s : %s" % (a, b, rng.choice(("+1", "-1"))) for a, b in pairs
             if rng.random() < 0.5]
    if roots:
        lines.append("roots { %s }" % " ".join(roots))
    if places:
        lines.append("places [ %s ]" % " ".join(
            "v%d : %s" % (j, kind) for j, kind in enumerate(places)))
    text = "\n".join(lines) + "\n"
    if rng.random() < 0.1:  # a corrupted document
        cut = rng.randrange(len(text))
        text = text[:cut] + rng.choice(("", "?", "(", "²", " 7", "\r")) + text[cut + 1:]
    return text


def check_outcome(argv, report_validator, capsys):
    """Run `argv` and check it against the exit-code contract."""
    try:
        code = cli.main(argv)
    except SystemExit as stop:  # argparse's help or refusal
        code = stop.code
    captured = capsys.readouterr()
    out, err = captured.out, captured.err
    if code != 0:
        assert code in (1, 2), (argv, code, err)
        assert out == "" and err.count("\n") == 1 and err.endswith("\n"), (argv, err)
        assert "Traceback" not in err, argv
        return code
    assert err == "", argv
    if out.startswith("usage: uendo"):
        return code
    if out.startswith("{"):
        errors = [e.message for e in report_validator.iter_errors(json.loads(out))]
        assert errors == [], (argv, errors)
    else:
        assert cli.print_document(cli.parse(out)) == out, argv
    return code


def _cases():
    cases = [pytest.param(seed, None, None, id="seed%d" % seed) for seed in range(DOCUMENTS)]
    # packets of 2^18 members and far more, which `multiplicity` counts by rank
    for labels, inert in ((10, 2), (9, 3), (40, 4)):
        cases.append(pytest.param(0, labels, ("inert",) * inert,
                                  id="%d labels at %d inert places" % (labels, inert)))
    return cases


@pytest.mark.parametrize("seed, labels, places", _cases())
def test_documents_keep_the_exit_code_contract(seed, labels, places, report_validator,
                                               tmp_path, capsys):
    text = fuzz_document(random.Random("fuzz:%d" % seed), labels, places)
    path = tmp_path / "doc.txt"
    path.write_text(text, encoding="utf-8")
    try:
        doc = cli.parse(text)
    except cli.ParseError:
        doc = None
    if doc is not None:
        assert cli.parse(cli.print_document(doc)) == doc, text
    codes = set()
    for command in DOCUMENT_COMMANDS + ("print",):
        # measured after the request returns: nothing in-process can stop C code
        start = time.perf_counter()
        codes.add(check_outcome([command, "--input", str(path)], report_validator, capsys))
        assert time.perf_counter() - start < REQUEST_TIME_LIMIT_S, (command, text)
    assert (1 in codes) == (doc is None), text


def test_fuzzed_documents_cover_every_outcome():
    """The generator reaches parse errors, semantic errors and documents
    that elaborate, and draws sd=none labels, -1 roots, places and
    O(40) x O(40)."""
    outcomes = set()
    for seed in range(DOCUMENTS):
        text = fuzz_document(random.Random("fuzz:%d" % seed))
        try:
            cli.elaborate(cli.parse(text))
            outcomes.add("elaborates")
        except cli.ParseError:
            outcomes.add("parse error")
        except cli.SemanticError:
            outcomes.add("semantic error")
        outcomes.update(word for word in ("none", "-1", "places", "40*")
                        if word in text)
    assert outcomes == {"elaborates", "parse error", "semantic error", "none", "-1",
                        "places", "40*"}


def test_argv_mutations_keep_the_exit_code_contract(report_validator, tmp_path, capsys):
    paths = [str(FIXTURES[0])]
    for seed in range(12):  # seed 11 is corrupted
        path = tmp_path / ("doc%d.txt" % seed)
        path.write_text(fuzz_document(random.Random("fuzz:%d" % seed)), encoding="utf-8")
        paths.append(str(path))
    codes = set()
    for argv in argv_corpus(random.Random(41), 300, paths, SMALL_INTS):
        codes.add(check_outcome(argv, report_validator, capsys))
    assert codes == {0, 1, 2}
