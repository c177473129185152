"""Oversized documents keep the CLI's exit-code contract, and fast.

A separately seeded companion of `test_contract_fuzz.py`: huge
multiplicities, 15,000 distinct labels, many rank-32 blocks and an INT
longer than `int()` reads go through the six JSON commands.  Each command
answers or refuses with one line, as `check_outcome` checks, in under a
second; the size budgets refuse none of the documents that the fixtures,
the benchmark's ladder and seeded documents, and the fuzz answer.
"""

import random
import time

import pytest

from test_cli import FIXTURES, run_cli
from test_contract_fuzz import DOCUMENT_COMMANDS, DOCUMENTS, check_outcome, fuzz_document
from uendo import cli, multiplicity

TIME_LIMIT_S = 1.0


def document(terms, parity="+", n=None):
    """U(n) with one term mult*label (x) nu(1) of degree 1 per (label, sd,
    mult) in `terms`; n is their total degree unless given."""
    if n is None:
        n = sum(mult * (2 if sd == "none" else 1) for _, sd, mult in terms)
    lines = ["group U(%s) parity %s" % (n, parity)]
    lines += ["mu %s: deg=1, sd=%s" % (label, sd) for label, sd, _ in terms]
    lines.append("psi = " + " + ".join("%s*%s (x) nu(1)" % (mult, label)
                                       for label, _, mult in terms))
    return "\n".join(lines) + "\n"


HUGE_MULTIPLICITY = document([("a", "+", 20_000_000)])
MANY_LABELS = document([("m%d" % i, "+", 1) for i in range(15_000)])


def oversized_documents(rng):
    sds = ("+", "-", "none")
    return [
        HUGE_MULTIPLICITY,
        MANY_LABELS,
        document([("a", rng.choice(sds), rng.randint(10 ** 6, 10 ** 12))],
                 rng.choice("+-")),
        # O(64), O(65), Sp(64) and GL(32) blocks all have rank 32; nine of
        # them are over the budget
        document([("b%d" % i, rng.choice(sds), rng.choice((32, 64, 65)))
                  for i in range(rng.randint(9, 40))], rng.choice("+-")),
        document([("a", "+", "9" * 5000)], n="9" * 5000),
    ]


@pytest.mark.parametrize("index", range(5))
def test_oversized_documents_keep_the_contract_quickly(index, report_validator, tmp_path,
                                                       capsys):
    text = oversized_documents(random.Random("oversized"))[index]
    path = tmp_path / "doc.txt"
    path.write_text(text, encoding="utf-8")
    for command in DOCUMENT_COMMANDS:
        start = time.perf_counter()
        check_outcome([command, "--input", str(path)], report_validator, capsys)
        assert time.perf_counter() - start < TIME_LIMIT_S, (index, command)


def test_reports_of_oversized_parameters_are_refused_by_the_budget(tmp_path, capsys):
    path = tmp_path / "doc.txt"
    for text in (HUGE_MULTIPLICITY, MANY_LABELS):
        path.write_text(text, encoding="utf-8")
        for command in ("centralizer", "arthur", "epsilon", "multiplicity"):
            code, out, err = run_cli([command, "--input", str(path)], capsys)
            assert (code, out) == (2, ""), command
            assert err == ("error: parameter is over the size budget of %d constituents "
                           "counted with multiplicity\n" % multiplicity.PARAMETER_MAX_SIZE), command


def test_budget_refuses_no_document_the_corpora_answer(perfbench_workloads):
    texts = [path.read_text() for path in FIXTURES]
    texts += perfbench_workloads.ladder_documents().values()
    for seed in (1, 2):
        texts += perfbench_workloads.interactive(seed, 0)[0].values()
    texts += [fuzz_document(random.Random("fuzz:%d" % seed)) for seed in range(DOCUMENTS)]
    assert len(texts) > 1000
    for text in texts:
        try:
            cli.elaborate(cli.parse(text)).shape  # the size and factoring checks
        except (cli.ParseError, cli.SemanticError, ValueError) as exc:
            assert "size budget" not in str(exc), text
