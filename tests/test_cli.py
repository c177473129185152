import argparse
import collections
import functools
import io
import itertools
import json
import pathlib
import random
import subprocess
import sys
import time
import types
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Tuple

import pytest

from oracles import su2_tensor_dims
from test_tadic import coeffs
from uendo import centralizer, cli, endoscopy, multiplicity, signs, tadic, weylnum
from uendo.centralizer import centralizer_shape, component_group

FIXTURES = sorted(pathlib.Path(__file__).with_name("fixtures").glob("doc*.txt"))
JSON_DOCUMENT_COMMANDS = ("classify", "centralizer", "arthur", "endoscopy", "epsilon",
                          "multiplicity")


def run_cli(args, capsys):
    code = cli.main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# Parsing


def test_fixture_corpus_is_large_enough():
    assert len(FIXTURES) >= 20


@pytest.mark.parametrize("path", FIXTURES, ids=lambda p: p.name)
def test_round_trip(path):
    text = path.read_text()
    doc = cli.parse(text)
    printed = cli.print_document(doc)
    assert cli.parse(printed) == doc
    # printing is idempotent
    assert cli.print_document(cli.parse(printed)) == printed


@pytest.mark.parametrize("path", FIXTURES, ids=lambda p: p.name)
def test_fixture_elaborates(path):
    doc = cli.parse(path.read_text())
    sem = cli.elaborate(doc)
    assert sem.psi.total_degree == doc.N


def test_parse_error_positions():
    with pytest.raises(cli.ParseError) as err:
        cli.parse("group U(3) parity -\nmu m1: deg=1, sd=+\npsi = m1 (x) nu()\n")
    assert err.value.line == 3


def test_parse_rejects_garbage():
    with pytest.raises(cli.ParseError):
        cli.parse("group U(x) parity -")
    with pytest.raises(cli.ParseError):
        cli.parse("")


# The character-by-character lexer and the token-object parser that
# `cli.parse` replaced, kept as the reference front end.


@dataclass(frozen=True)
class Token:
    kind: str  # IDENT | INT | PUNCT
    text: str
    line: int
    column: int


_PUNCT = set("(){}[]:,=+-*")


def tokenize(text: str) -> List[Token]:
    tokens = []
    line, col = 1, 1
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < len(text) and text[i] != "\n":
                i += 1
            continue
        if ch in _PUNCT:
            tokens.append(Token("PUNCT", ch, line, col))
            i += 1
            col += 1
            continue
        if ch.isdigit():
            start = i
            while i < len(text) and text[i].isdigit():
                i += 1
            tokens.append(Token("INT", text[start:i], line, col))
            col += i - start
            continue
        if ch.isalpha() or ch == "_":
            start = i
            while i < len(text) and (text[i].isalnum() or text[i] == "_"):
                i += 1
            tokens.append(Token("IDENT", text[start:i], line, col))
            col += i - start
            continue
        raise cli.ParseError("unexpected character %r" % ch, line, col)
    return tokens


class _ReferenceParser:
    def __init__(self, tokens: List[Token]):
        self.tokens = tokens
        self.pos = 0

    def _peek(self) -> Optional[Token]:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def _fail(self, message: str):
        tok = self._peek()
        if tok is None:
            last = self.tokens[-1] if self.tokens else Token("PUNCT", "", 1, 1)
            raise cli.ParseError(message + " (at end of input)", last.line, last.column)
        raise cli.ParseError(message + ", got %r" % tok.text, tok.line, tok.column)

    def _take(self, kind: str, text: Optional[str] = None) -> Token:
        tok = self._peek()
        if tok is None or tok.kind != kind or (text is not None and tok.text != text):
            want = text if text is not None else kind
            self._fail("expected %r" % want)
        self.pos += 1
        return tok

    def _at(self, kind: str, text: Optional[str] = None) -> bool:
        tok = self._peek()
        return tok is not None and tok.kind == kind and (text is None or tok.text == text)

    def _int(self) -> int:
        return int(self._take("INT").text)

    def _sign(self) -> int:
        tok = self._peek()
        if tok is None or tok.text not in ("+", "-"):
            self._fail("expected a sign")
        self.pos += 1
        return 1 if tok.text == "+" else -1

    def _signed_one(self) -> int:
        sign = self._sign()
        if self._at("INT", "1"):
            self.pos += 1
        return sign

    def document(self) -> cli.ParameterDocument:
        self._take("IDENT", "group")
        self._take("IDENT", "U")
        self._take("PUNCT", "(")
        n = self._int()
        self._take("PUNCT", ")")
        self._take("IDENT", "parity")
        parity = self._sign()
        decls = []
        while self._at("IDENT", "mu"):
            decls.append(self._decl())
        self._take("IDENT", "psi")
        self._take("PUNCT", "=")
        terms = [self._term()]
        while self._at("PUNCT", "+"):
            self.pos += 1
            terms.append(self._term())
        roots: List[Tuple[str, str, int]] = []
        if self._at("IDENT", "roots"):
            roots = self._roots()
        places: List[Tuple[str, str]] = []
        if self._at("IDENT", "places"):
            places = self._places()
        if self._peek() is not None:
            self._fail("unexpected trailing input")
        return cli.ParameterDocument(n, parity, tuple(decls), tuple(terms), tuple(roots),
                                     tuple(places))

    def _decl(self) -> cli.Decl:
        self._take("IDENT", "mu")
        label = self._take("IDENT").text
        self._take("PUNCT", ":")
        self._take("IDENT", "deg")
        self._take("PUNCT", "=")
        deg = self._int()
        self._take("PUNCT", ",")
        self._take("IDENT", "sd")
        self._take("PUNCT", "=")
        tok = self._peek()
        if tok is not None and tok.text in ("+", "-"):
            self.pos += 1
            sd = tok.text
        elif self._at("IDENT", "none"):
            self.pos += 1
            sd = "none"
        else:
            self._fail("expected '+', '-' or 'none'")
        return cli.Decl(label, deg, sd)

    def _term(self) -> cli.Term:
        mult = 1
        if self._at("INT"):
            mult = self._int()
            self._take("PUNCT", "*")
        label = self._take("IDENT").text
        self._take("PUNCT", "(")
        self._take("IDENT", "x")
        self._take("PUNCT", ")")
        self._take("IDENT", "nu")
        self._take("PUNCT", "(")
        nu = self._int()
        self._take("PUNCT", ")")
        return cli.Term(mult, label, nu)

    def _roots(self) -> List[Tuple[str, str, int]]:
        self._take("IDENT", "roots")
        self._take("PUNCT", "{")
        out = []
        while not self._at("PUNCT", "}"):
            a = self._take("IDENT").text
            self._take("PUNCT", ",")
            b = self._take("IDENT").text
            self._take("PUNCT", ":")
            out.append((a, b, self._signed_one()))
        self._take("PUNCT", "}")
        return out

    def _places(self) -> List[Tuple[str, str]]:
        self._take("IDENT", "places")
        self._take("PUNCT", "[")
        out = []
        while not self._at("PUNCT", "]"):
            name = self._take("IDENT").text
            self._take("PUNCT", ":")
            if self._at("IDENT", "inert") or self._at("IDENT", "split"):
                kind = self._take("IDENT").text
            else:
                self._fail("expected 'inert' or 'split'")
            out.append((name, kind))
        self._take("PUNCT", "]")
        return out


def _outcome(parse, text):
    """The document `parse` reads from `text`, or its error and position."""
    try:
        return parse(text)
    except cli.ParseError as exc:
        return str(exc), exc.line, exc.column


def _reference_parse(text):
    return _ReferenceParser(tokenize(text)).document()


# Characters of the grammar, with comments and every whitespace the lexer
# skips, plus stray ones it refuses.
_GRAMMAR_CHARS = "groupUaitymdesnxvlck_0123456789(){}[]:,=+-*  \n\t\r#"
_STRAY_CHARS = "@!.;~\x0b\f"


def _mutations(rng, text, count):
    out = []
    alphabet = _GRAMMAR_CHARS + _STRAY_CHARS
    for _ in range(count):
        chars = list(text)
        for _ in range(rng.randint(1, 3)):
            i = rng.randrange(len(chars) + 1)
            op = rng.randrange(3)
            if op == 0 and i < len(chars):
                del chars[i]
            elif op == 1:
                chars.insert(i, rng.choice(alphabet))
            elif i < len(chars):
                chars[i] = rng.choice(alphabet)
        out.append("".join(chars))
    return out


def test_parse_matches_reference_front_end():
    rng = random.Random(20261018)
    texts = [path.read_text() for path in FIXTURES]
    # errors at the end of input, in and after comments, and after CR and tab
    inputs = texts + ["", "\n\n", "# only a comment\n", "group U(3) parity",
                      "group U(3) parity # -\n", "group U(3) parity +\n  psi = a (x) nu(1) @ # @\n",
                      "group\tU(3)\r parity - ?"]
    for text in texts:
        inputs += _mutations(rng, text, 60)
    alphabet = _GRAMMAR_CHARS + _STRAY_CHARS
    inputs += ["".join(rng.choice(alphabet) for _ in range(rng.randint(0, 40)))
               for _ in range(1500)]
    parsed = 0
    for text in inputs:
        want = _outcome(_reference_parse, text)
        assert _outcome(cli.parse, text) == want, repr(text)
        parsed += isinstance(want, cli.ParameterDocument)
    # the mutations keep enough documents whole to compare parses, not only errors
    assert parsed > 100


# One line per production, one token per item: the optional INT "*" of the
# first term, both block openers, a root with and without its "1", and both
# place kinds.
_PRODUCTION_LINES = (
    ("group", "U", "(", "3", ")", "parity", "-"),
    ("mu", "a", ":", "deg", "=", "1", ",", "sd", "=", "+"),
    ("mu", "b", ":", "deg", "=", "2", ",", "sd", "=", "none"),
    ("psi", "=", "2", "*", "a", "(", "x", ")", "nu", "(", "1", ")",
     "+", "b", "(", "x", ")", "nu", "(", "1", ")"),
    ("roots", "{", "a", ",", "b", ":", "-", "1", "b", ",", "a", ":", "+", "}"),
    ("places", "[", "v", ":", "inert", "w", ":", "split", "]"),
)


def _broken_at_each_item():
    """Each document of `_PRODUCTION_LINES` with one item replaced by a
    token of the wrong kind, and each cut off just before that item."""
    for row, line in enumerate(_PRODUCTION_LINES):
        for col, tok in enumerate(line):
            for wrong in ("z" if tok.isdecimal() else "9", None):
                cut = line[:col] if wrong is None else line[:col] + (wrong,) + line[col + 1:]
                lines = _PRODUCTION_LINES[:row] + (cut,)
                if wrong is not None:
                    lines += _PRODUCTION_LINES[row + 1:]
                yield "\n".join(" ".join(words) for words in lines)


def test_parse_errors_at_every_item_match_reference_front_end():
    messages = set()
    for text in _broken_at_each_item():
        want = _outcome(_reference_parse, text)
        assert _outcome(cli.parse, text) == want, repr(text)
        if not isinstance(want, cli.ParameterDocument):
            messages.add(want[0].split(" (at end")[0].split(", got")[0])
    # every literal token but those only looked ahead for ("mu", "+",
    # "roots", "places") and the closers, which end a loop of entries
    expected = {"expected %r" % tok for tok in ("group", "U", "(", ")", "parity", ":", "deg",
                                                "=", ",", "sd", "psi", "*", "x", "nu", "{", "[")}
    expected |= {"expected 'INT'", "expected 'IDENT'", "expected a sign",
                 "expected '+', '-' or 'none'", "expected 'inert' or 'split'",
                 "unexpected trailing input"}
    assert expected <= messages, sorted(expected - messages)


NON_DECIMAL_DIGIT_DOCS = {
    "int": "group U(%s) parity +\nmu a: deg=1, sd=+\npsi = a (x) nu(1)\n",
    "label": "group U(1) parity +\nmu %s: deg=1, sd=+\npsi = a (x) nu(1)\n",
}


@pytest.mark.parametrize("char", ["²", "½"], ids=["superscript-two", "one-half"])
@pytest.mark.parametrize("where", sorted(NON_DECIMAL_DIGIT_DOCS))
def test_non_decimal_digit_is_parse_error(where, char, tmp_path, capsys):
    doc = tmp_path / "doc.txt"
    doc.write_text(NON_DECIMAL_DIGIT_DOCS[where] % char, encoding="utf-8")
    code, out, err = run_cli(["classify", "--input", str(doc)], capsys)
    _assert_one_line_error(code, out, err, 1)
    assert err.startswith("parse error: unexpected character %r" % char)


LONG_TOKEN_DOCS = {
    "5,000-digit INT": ("group U(%s) parity +\nmu a: deg=1, sd=+\npsi = a (x) nu(1)\n"
                        % ("9" * 5000), "expected an INT of at most", 1, 9),
    "3,000-character trailing IDENT": (
        "group U(1) parity +\nmu a: deg=1, sd=+\npsi = a (x) nu(1)\n" + "x" * 3000 + "\n",
        "unexpected trailing input", 4, 1),
}


@pytest.mark.parametrize("name", sorted(LONG_TOKEN_DOCS))
def test_parse_error_cuts_a_long_token(name, tmp_path, capsys):
    text, message, line, column = LONG_TOKEN_DOCS[name]
    doc = tmp_path / "doc.txt"
    doc.write_text(text)
    code, out, err = run_cli(["classify", "--input", str(doc)], capsys)
    _assert_one_line_error(code, out, err, 1)
    assert len(err.encode()) < 200, err
    assert err.startswith("parse error: " + message)
    assert err.endswith(" at line %d, column %d\n" % (line, column)), err


def test_degree_sum_too_long_to_print_keeps_the_refusal(tmp_path, capsys):
    digits = "9" * 4000
    doc = tmp_path / "doc.txt"
    doc.write_text("group U(1) parity +\nmu a: deg=%s, sd=+\npsi = %s*a (x) nu(1)\n"
                   % (digits, digits))
    code, out, err = run_cli(["classify", "--input", str(doc)], capsys)
    _assert_one_line_error(code, out, err, 2)
    assert err.startswith("error: declared degree 1 but constituents sum to"), err
    assert "set_int_max_str_digits" not in err


def test_unicode_decimal_digits_are_ints():
    doc = cli.parse("group U(٣) parity +\nmu a: deg=1, sd=+\npsi = ٣*a (x) nu(1)\n")
    assert doc.N == 3 and doc.terms[0].mult == 3


SEMANTIC_ERROR_DOCS = {
    "undeclared label": ("group U(1) parity +\npsi = a (x) nu(1)",
                         "label 'a' used but not declared"),
    "degree mismatch": ("group U(2) parity +\nmu a: deg=1, sd=+\npsi = a (x) nu(1)",
                        "declared degree 2 but constituents sum to 1"),
    "label reused with another nu": (
        "group U(3) parity -\nmu a: deg=1, sd=+\npsi = a (x) nu(2) + a (x) nu(1)",
        "label 'a' reused with a different nu; declare a second label"),
    "same-parity root number -1": (
        "group U(2) parity -\nmu a: deg=1, sd=+\nmu b: deg=1, sd=+\n"
        "psi = a (x) nu(1) + b (x) nu(1)\nroots { a, b : -1 }",
        "same-parity pair (a, b) cannot carry root number -1"),
    "label declared twice": (
        "group U(1) parity +\nmu a: deg=1, sd=+\nmu a: deg=1, sd=+\npsi = a (x) nu(1)",
        "label 'a' declared twice"),
    "duplicate term": ("group U(2) parity +\nmu a: deg=1, sd=+\npsi = a (x) nu(1) + a (x) nu(1)",
                       "duplicate term a (x) nu(1)"),
    # the CLI's own check, which runs before the table is validated
    "undeclared root-number label": (
        "group U(1) parity +\nmu a: deg=1, sd=+\npsi = a (x) nu(1)\nroots { a, z : +1 }",
        "root-number label 'z' not declared"),
    "root number on one label": (
        "group U(1) parity +\nmu a: deg=1, sd=+\npsi = a (x) nu(1)\nroots { a, a : +1 }",
        "root-number entries pair distinct labels"),
    "place declared twice": (
        "group U(1) parity +\nmu a: deg=1, sd=+\npsi = a (x) nu(1)\nplaces [ v : inert v : split ]",
        "place 'v' declared twice"),
}


@pytest.mark.parametrize("name", sorted(SEMANTIC_ERROR_DOCS))
def test_elaborate_semantic_errors(name, tmp_path, capsys):
    text, message = SEMANTIC_ERROR_DOCS[name]
    doc = tmp_path / "doc.txt"
    doc.write_text(text)
    code, out, err = run_cli(["classify", "--input", str(doc)], capsys)
    assert (code, out, err) == (2, "", "error: %s\n" % message)


def test_unknown_command_is_semantic_error():
    with pytest.raises(cli.SemanticError) as caught:
        cli.run("bogus", None, None)
    assert str(caught.value) == "unknown command 'bogus'"


def test_elaborate_u3_document():
    doc = cli.parse(FIXTURES[0].read_text())
    sem = cli.elaborate(doc)
    assert sem.tag.N == 3 and sem.tag.parity == -1
    labels = [sp.label for sp, _ in sem.psi.constituents]
    assert set(labels) == {"m1", "m2"}


def test_not_self_dual_declaration_materializes_partner():
    doc = cli.parse("group U(4) parity +\nmu a: deg=2, sd=none\npsi = a (x) nu(1)")
    sem = cli.elaborate(doc)
    labels = sorted(sp.label for sp, _ in sem.psi.constituents)
    assert labels == ["a", "a*"]


# ---------------------------------------------------------------------------
# Commands


def test_centralizer_command_u3(tmp_path, capsys):
    target = tmp_path / "doc.txt"
    target.write_text(FIXTURES[0].read_text())
    code, out, _ = run_cli(["centralizer", "--input", str(target)], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["component_group_order"] == 2
    assert sorted(tuple(x) for x in report["orthogonal"]) == [("m1", 1), ("m2", 1)]


def test_epsilon_command_u3(tmp_path, capsys):
    target = tmp_path / "doc.txt"
    target.write_text(FIXTURES[0].read_text())
    code, out, _ = run_cli(["epsilon", "--input", str(target)], capsys)
    assert code == 0
    report = json.loads(out)
    assert not report["trivial"]
    assert report["value_at_s_psi"] == -1


def test_endoscopy_command_table(capsys):
    code, out, _ = run_cli(["endoscopy", "--n", "2"], capsys)
    assert code == 0
    report = json.loads(out)
    iotas = {tuple(r["split"]): (r["iota"]["num"], r["iota"]["den"]) for r in report["standard"]}
    assert iotas == {(2, 0): (1, 1), (1, 1): (1, 4)}
    assert sum(1 for r in report["twisted"] if r["simple"]) == 2


def test_tadic_command(capsys):
    code, out, _ = run_cli(["tadic", "--n", "2", "--k", "0", "--field", "nonarch"], capsys)
    assert code == 0
    report = json.loads(out)
    assert len(report["terms"]) == 2
    assert report["tempered"]["coefficient"] == -1
    assert report["tempered"]["symbols"] == [{"k": 1, "lambda": {"num": 0, "den": 1}}]


def test_classify_command(tmp_path, capsys):
    target = tmp_path / "doc.txt"
    target.write_text(FIXTURES[1].read_text())  # 2*a on U(2)
    code, out, _ = run_cli(["classify", "--input", str(target)], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["twisted"]["ell"] is False
    assert report["group"]["disc"] is True


def test_multiplicity_command(tmp_path, capsys):
    target = tmp_path / "doc.txt"
    target.write_text(FIXTURES[10].read_text())  # doc11: two constituents, two places
    code, out, _ = run_cli(["multiplicity", "--input", str(target)], capsys)
    assert code == 0
    report = json.loads(out)
    assert "packet" in report
    assert report["packet"]["members"] == 4
    assert report["packet"]["selected"] == 2


def _count_parameter_builds(monkeypatch, capsys, command):
    """The report of `command` on doc11 and how often it built the
    centralizer shape, the component group and eps_psi."""
    calls = collections.Counter()
    for module, name in ((centralizer, "centralizer_shape"), (centralizer, "component_group"),
                         (signs, "epsilon_character"), (signs, "_epsilon_character")):
        original = getattr(module, name)

        def counted(*args, original=original, name=name):
            calls[name] += 1
            return original(*args)

        for bound in (cli, centralizer, signs, cli.multiplicity):
            if getattr(bound, name, None) is original:
                monkeypatch.setattr(bound, name, counted)
    code, out, _ = run_cli([command, "--input", str(FIXTURES[10])], capsys)
    assert code == 0
    return json.loads(out), calls


def test_multiplicity_report_builds_each_parameter_datum_once(monkeypatch, capsys):
    # doc11 has two inert places: the report once built the centralizer
    # shape 5 times, the component group 4 times and eps_psi twice
    report, calls = _count_parameter_builds(monkeypatch, capsys, "multiplicity")
    assert report["packet"] == {"members": 4, "selected": 2}
    assert calls == {"centralizer_shape": 1, "component_group": 1, "_epsilon_character": 1}


@pytest.mark.parametrize("command, want", [
    # eps_psi needs no component group: it is trivial on sigma_bar by construction
    ("epsilon", {"centralizer_shape": 1, "epsilon_character": 1, "_epsilon_character": 1}),
    # the diagram is read off the shape the report already built
    ("centralizer", {"centralizer_shape": 1, "component_group": 1}),
])
def test_sign_and_diagram_reports_build_the_shape_once(monkeypatch, capsys, command, want):
    report, calls = _count_parameter_builds(monkeypatch, capsys, command)
    assert report["command"] == command
    assert calls == want


def test_multiplicity_reports_defaulted_pairs(tmp_path, capsys):
    # doc01 declares the root number of its one opposite-parity pair; without
    # the roots line that pair defaults to +1, and both sign reports say so
    text = FIXTURES[0].read_text()
    target = tmp_path / "doc.txt"
    for doc, want in ((text, []), (text.replace("roots { m1, m2 : -1 }\n", ""), [["m1", "m2"]])):
        target.write_text(doc)
        for command in ("epsilon", "multiplicity"):
            code, out, _ = run_cli([command, "--input", str(target)], capsys)
            assert code == 0
            assert json.loads(out)["defaulted_pairs"] == want, (command, want)


def test_deterministic_reports(tmp_path, capsys):
    target = tmp_path / "doc.txt"
    target.write_text(FIXTURES[0].read_text())
    outputs = set()
    for _ in range(2):
        code, out, _ = run_cli(["arthur", "--input", str(target)], capsys)
        assert code == 0
        outputs.add(out)
    assert len(outputs) == 1


def test_exit_codes(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("group U(3 parity -")
    code, _, err = run_cli(["classify", "--input", str(bad)], capsys)
    assert code == 1
    wrong = tmp_path / "wrong.txt"
    wrong.write_text("group U(2) parity +\nmu a: deg=1, sd=+\npsi = a (x) nu(1)")
    code, _, err = run_cli(["classify", "--input", str(wrong)], capsys)
    assert code == 2
    code, _, _ = run_cli(["classify"], capsys)
    assert code == 2


def _assert_one_line_error(code, out, err, want):
    assert code == want
    assert out == ""
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("command", ["centralizer", "arthur", "epsilon", "multiplicity"])
def test_non_factoring_parameter_is_refused_by_the_cli_check(command, tmp_path, capsys):
    # an sd=+ constituent nu(2) lands on Sp(1) in U(3) parity +; the CLI's own
    # refusal runs before `centralizer_shape`, whose message differs
    target = tmp_path / "doc.txt"
    target.write_text("group U(3) parity +\nmu a: deg=1, sd=+\nmu b: deg=1, sd=+\n"
                      "psi = a (x) nu(1) + b (x) nu(2)\n")
    sem = cli.elaborate(cli.parse(target.read_text()))
    assert not cli.factors_through(sem.psi, sem.tag)
    with pytest.raises(ValueError, match="through the datum$"):
        centralizer_shape(sem.psi, sem.tag)
    assert run_cli([command, "--input", str(target)], capsys) == (
        2, "", "error: parameter does not factor through the declared datum\n")


def test_endoscopy_nonpositive_n_is_semantic_error(capsys):
    _assert_one_line_error(*run_cli(["endoscopy", "--n", "0"], capsys), 2)


def test_tadic_negative_k_is_semantic_error(capsys):
    _assert_one_line_error(*run_cli(["tadic", "--n", "2", "--k", "-5"], capsys), 2)


def test_tadic_error_comes_before_any_piece_of_the_report(monkeypatch, capsys):
    # the expansion and its tempered part run inside `run`; only the text
    # is written piece by piece, so a refused --k writes nothing to stdout
    _assert_one_line_error(
        *run_cli(["tadic", "--n", "3", "--k", "-1", "--field", "nonarch"], capsys), 2)
    calls = []
    for name in ("expand", "tempered_part"):
        def counted(*args, original=getattr(tadic, name), name=name):
            calls.append(name)
            return original(*args)

        monkeypatch.setattr(tadic, name, counted)
    flags = argparse.Namespace(n=4, k=1, field="arch")
    pieces = cli.run("tadic", None, flags)
    assert calls == ["expand", "tempered_part"]
    text = "".join(pieces)
    assert text.count('"coefficient"') == 25
    assert text == _json_reference(_tadic_oracle(4, 1, "arch"))


def test_tadic_over_size_budget_is_refused_before_expanding(monkeypatch, capsys):
    def expand(*args):
        raise AssertionError("expanded over the size budget")

    monkeypatch.setattr(cli.tadic, "expand", expand)
    for n in (cli.TADIC_MAX_N + 1, 12):
        code, out, err = run_cli(["tadic", "--n", str(n), "--k", "2"], capsys)
        _assert_one_line_error(code, out, err, 2)
        assert "size budget of n <= %d" % cli.TADIC_MAX_N in err


def test_nu_zero_document_is_semantic_error(tmp_path, capsys):
    doc = tmp_path / "nu0.txt"
    doc.write_text("group U(1) parity +\nmu a: deg=1, sd=+\npsi = a (x) nu(0)\n")
    _assert_one_line_error(*run_cli(["classify", "--input", str(doc)], capsys), 2)


def test_degree_zero_document_is_semantic_error(tmp_path, capsys):
    doc = tmp_path / "deg0.txt"
    doc.write_text("group U(0) parity +\nmu a: deg=0, sd=+\npsi = a (x) nu(1)\n")
    _assert_one_line_error(*run_cli(["arthur", "--input", str(doc)], capsys), 2)


def test_non_utf8_input_is_parse_error(tmp_path, capsys):
    doc = tmp_path / "latin1.txt"
    doc.write_bytes(b"group U(1) parity +\nmu \xe9: deg=1, sd=+\npsi = \xe9 (x) nu(1)\n")
    code, out, err = run_cli(["classify", "--input", str(doc)], capsys)
    _assert_one_line_error(code, out, err, 1)
    assert err == ("parse error: input is not UTF-8 text: 'utf-8' codec can't decode byte 0xe9"
                   " in position 23: invalid continuation byte\n")


def _text_mode_outcome(path, command):
    """(code, stdout, stderr) of `command` on the document as text mode
    reads it (universal newlines), the way `main` once read documents."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            doc = cli.parse(handle.read())
    except cli.ParseError as exc:
        return 1, "", "parse error: %s\n" % exc
    except UnicodeDecodeError as exc:
        return 1, "", "parse error: input is not UTF-8 text: %s\n" % exc
    if command == "print":
        return 0, cli.print_document(doc), ""
    return 0, "".join(cli.run(command, doc, None)), ""


BYTES_READ_DOCUMENTS = {
    "crlf": b"group U(3) parity +\r\nmu a: deg=1, sd=+\r\nmu b: deg=1, sd=-\r\n"
            b"psi = a (x) nu(1) + b (x) nu(2)\r\nroots { a, b : -1 }\r\n",
    "lone cr, error on line 3": b"group U(2) parity +\rmu a: deg=1, sd=+\rpsi = a (x) nu()\r",
    "lone cr and crlf mixed": b"# comment\r\rgroup U(1) parity -\r\nmu a: deg=1, sd=+\r"
                              b"psi = a (x) nu(1)  # end\r\n\r",
    "bom": b"\xef\xbb\xbfgroup U(1) parity +\nmu a: deg=1, sd=+\npsi = a (x) nu(1)\n",
    "latin-1, crlf": b"group U(1) parity +\r\nmu \xe9: deg=1, sd=+\r\npsi = \xe9 (x) nu(1)\r\n",
    "truncated utf-8": b"group U(1) parity +\nmu a\xc3",
}


@pytest.mark.parametrize("name", sorted(BYTES_READ_DOCUMENTS))
def test_bytes_read_matches_text_mode_read(name, tmp_path, capsys):
    doc = tmp_path / "doc.txt"
    doc.write_bytes(BYTES_READ_DOCUMENTS[name])
    for command in ("print", "classify"):
        want = _text_mode_outcome(doc, command)
        assert run_cli([command, "--input", str(doc)], capsys) == want, command
    if name == "lone cr, error on line 3":
        assert want[2] == "parse error: expected 'INT', got ')' at line 3, column 16\n"


def _open_read_document(path):
    """The document as `open(path, "rb")` reads it, the reader that `main`
    used before `os.read`."""
    with open(path, "rb") as handle:
        text = handle.read().decode("utf-8")
    return text.replace("\r\n", "\n").replace("\r", "\n")


# Inputs for the read path: None is a directory, and a missing name is not created.
READ_PATH_INPUTS = {
    "directory": None,
    "non-utf-8": b"group U(1) parity +\nmu \xe9: deg=1, sd=+\npsi = \xe9 (x) nu(1)\n",
    "empty": b"",
    "crlf": BYTES_READ_DOCUMENTS["crlf"],
    "lone cr": b"group U(1) parity +\rmu a: deg=1, sd=+\rpsi = a (x) nu(1)\r",
    "over 64 KiB": b"# padding\r\n" * 7000 + b"group U(2) parity +\nmu a: deg=1, sd=+\n"
                   b"psi = 2*a (x) nu(1)\n" + b"# padding\n" * 7000,
}


@pytest.mark.parametrize("name", sorted(READ_PATH_INPUTS) + ["missing"])
def test_os_read_matches_open_read(name, tmp_path, monkeypatch, capsys):
    path = tmp_path / "doc.txt"
    if name == "directory":
        path.mkdir()
    elif name != "missing":
        path.write_bytes(READ_PATH_INPUTS[name])
    reads = []

    def counted(fd, size, read=cli.os.read):
        reads.append(size)
        return read(fd, size)

    for command in ("print", "classify", "arthur"):
        argv = [command, "--input", str(path)]
        with monkeypatch.context() as patched:
            patched.setattr(cli, "_read_document", _open_read_document)
            want = run_cli(argv, capsys)
        cli.parse.cache_clear()
        with monkeypatch.context() as patched:
            patched.setattr(cli.os, "read", counted)
            assert run_cli(argv, capsys) == want, (name, command)
    if name in ("directory", "missing"):
        assert want[0] == 2 and want[2].startswith("cannot read input: [Errno ")
        assert want[2].endswith(": %r\n" % str(path)) and reads == []
    else:
        chunks = -(-len(READ_PATH_INPUTS[name]) // (1 << 16))
        assert len(reads) == 3 * (chunks + 1)  # each command reads the chunks, then the end
        assert (chunks > 1) == (name == "over 64 KiB")
        assert want[0] == (1 if name in ("empty", "non-utf-8") else 0), want


def test_nul_byte_in_input_path_is_refused_in_one_line(tmp_path, capsys):
    # the path reaches os.open, which refuses a NUL byte with a ValueError
    # rather than an OSError; the '=' form goes through argparse
    for path in ("a\x00b", str(tmp_path / "doc\x00.txt")):
        for argv in (["classify", "--input", path], ["print", "--input", path],
                     ["epsilon", "--input=" + path]):
            code, out, err = run_cli(argv, capsys)
            assert (code, out, err) == (2, "", "cannot read input: embedded null byte\n"), argv


def run_cli_rejected(args, capsys):
    """Run arguments argparse refuses: `main` exits through `SystemExit`."""
    with pytest.raises(SystemExit) as stop:
        cli.main(args)
    captured = capsys.readouterr()
    return stop.value.code, captured.out, captured.err


def test_non_integer_flag_is_one_line_rejection(capsys):
    _assert_one_line_error(*run_cli_rejected(["tadic", "--n", "x", "--k", "1"], capsys), 2)


def test_unknown_flag_is_one_line_rejection(capsys):
    _assert_one_line_error(*run_cli_rejected(["check", "--json"], capsys), 2)


def test_unknown_command_is_one_line_rejection(capsys):
    _assert_one_line_error(*run_cli_rejected(["bogus"], capsys), 2)


def test_help_still_prints_usage(capsys):
    code, out, err = run_cli_rejected(["-h"], capsys)
    assert code == 0 and out.startswith("usage: uendo") and err == ""


def test_argument_parser_is_built_once(monkeypatch, tmp_path, capsys):
    builds = []
    build = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        builds.append(args)
        build(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    cli._argument_parser.cache_clear()
    target = tmp_path / "doc.txt"
    target.write_text(FIXTURES[0].read_text())
    for args in (["classify", "--input", str(target)], ["print", "--input", str(target)],
                 ["endoscopy", "--n", "2"], ["tadic", "--n", "2", "--k", "1", "--field", "arch"]):
        code, out, _ = run_cli(args, capsys)
        assert code == 0 and out, args
    assert builds == []
    # back-to-back calls share no state
    code, out, err = run_cli(["tadic"], capsys)
    _assert_one_line_error(code, out, err, 2)
    assert err == "error: tadic needs --n and --k\n"
    code, out, _ = run_cli(["tadic", "--n", "2", "--k", "1"], capsys)
    assert code == 0 and json.loads(out)["field"] == "nonarch"
    # two fallbacks to argparse build it once
    code, out, _ = run_cli(["tadic", "--n=2", "--k", "1"], capsys)
    assert code == 0 and json.loads(out)["field"] == "nonarch"
    code, out, err = run_cli_rejected(["-h"], capsys)
    assert code == 0 and out.startswith("usage: uendo") and err == ""
    assert len(builds) == 1


ARGV_FLAGS = ("--input", "--n", "--k", "--field")
ARGV_INTS = ("-5", "+3", "07", " 4", "\u0663", "x", "", "0", "2", "3", "1_0", "2.0")
ARGV_FIELDS = ("arch", "nonarch", "ARCH", "", "-arch")


def argv_corpus(rng, count, paths, ints=ARGV_INTS):
    """`count` argv lists: the canonical shape (a command, then flags with
    values) and the forms only argparse reads, namely abbreviations, '='
    forms, options before the command, repeated flags, help and unknown
    words.  --n and --k take their values from `ints`."""
    values = {"--input": tuple(paths) + ("", "-", "--n", " missing.txt "),
              "--n": ints, "--k": ints, "--field": ARGV_FIELDS}
    corpus = []
    for _ in range(count):
        argv = [rng.choice(cli._COMMANDS)]
        for flag in rng.sample(ARGV_FLAGS, rng.randint(0, 4)):
            argv += [flag, rng.choice(values[flag])]
        for _ in range(rng.choice((0, 0, 1, 2))):
            where = rng.randrange(len(argv) + 1)
            form = rng.randrange(7)
            if form == 0:  # abbreviation
                flag = rng.choice(("--input", "--field"))
                argv += [flag[:rng.randint(3, len(flag) - 1)], rng.choice(values[flag])]
            elif form == 1:  # '=' form
                flag = rng.choice(ARGV_FLAGS)
                argv.insert(where, "%s=%s" % (flag, rng.choice(values[flag])))
            elif form == 2:  # options before the command
                argv.append(argv.pop(0))
            elif form == 3 and set(argv) & set(ARGV_FLAGS):  # repeated flag
                flag = rng.choice(sorted(set(argv) & set(ARGV_FLAGS)))
                argv += [flag, rng.choice(values[flag])]
            elif form == 4:
                argv.insert(where, rng.choice(("-h", "--help")))
            elif form == 5:  # an unknown word or flag
                argv.insert(where, rng.choice(("bogus", "--json", "-n", "3", "classify")))
            elif len(argv) > 1:  # a flag without its value
                del argv[rng.randrange(1, len(argv))]
        corpus.append(argv)
    return corpus


def test_fast_path_agrees_with_argparse_on_every_argv_it_reads():
    corpus = argv_corpus(random.Random(13), 2500, [str(p) for p in FIXTURES[:3]])
    read = 0
    for argv in corpus:
        fast = cli._fast_args(argv)
        if fast is not None:
            assert vars(fast) == vars(cli._argument_parser().parse_args(argv)), argv
            read += 1
    assert 500 < read < len(corpus) - 500
    refused = [argv for argv in corpus if cli._fast_args(argv) is None]
    for form in ("-h", "--n=", "--inp", "--k -5"):
        assert any(form in " ".join(argv) for argv in refused), form


def _perfbench_argvs(perfbench_workloads, path):
    """The distinct argv lists of the benchmark's CLI workloads (one
    interactive and one ladder pass), with `path` as every document."""
    requests = (perfbench_workloads.interactive(1, 0)[1]
                + perfbench_workloads.ladder(1, 0)[1])
    return {tuple(r["argv"] + ([path] if "doc" in r else [])) for r in requests}


def test_benchmark_argvs_never_build_the_argument_parser(monkeypatch, perfbench_workloads,
                                                         tmp_path, capsys):
    def refuse():
        raise AssertionError("argument parser built on the fast path")

    monkeypatch.setattr(cli, "_argument_parser", refuse)
    target = tmp_path / "doc.txt"
    target.write_text(FIXTURES[0].read_text())
    argvs = _perfbench_argvs(perfbench_workloads, str(target))
    assert len(argvs) > 100 and all(cli._fast_args(list(argv)) for argv in argvs)
    shapes = {}
    for argv in sorted(argvs):
        shapes.setdefault((argv[0],) + argv[1::2], argv)
    assert len(shapes) == 9
    for argv in shapes.values():
        if argv[0] == "tadic":
            argv = ("tadic", "--n", "2", "--k", "1", "--field", "arch")
        code, out, err = run_cli(list(argv), capsys)
        assert (code, err) == (0, "") and out, argv


def test_module_entry_point_matches_in_process_call(capsys):
    argv = ["classify", "--input", str(FIXTURES[0])]
    src = pathlib.Path(cli.__file__).parents[1]
    done = subprocess.run([sys.executable, "-m", "uendo.cli"] + argv, capture_output=True,
                          text=True, timeout=60,
                          env={"PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"})
    assert (done.returncode, done.stdout, done.stderr) == run_cli(argv, capsys)


def test_module_entry_point_check_imports_the_cli_once(capsys):
    src = pathlib.Path(cli.__file__).parents[1]
    done = subprocess.run([sys.executable, "-X", "importtime", "-m", "uendo.cli", "check"],
                          capture_output=True, text=True, timeout=60,
                          env={"PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"})
    assert (done.returncode, json.loads(done.stdout)["status"]) == (0, "ok")
    assert (done.returncode, done.stdout) == run_cli(["check"], capsys)[:2]
    imported = [line.rsplit("|", 1)[-1].strip() for line in done.stderr.splitlines()]
    assert "uendo.checks" in imported and "uendo.cli" not in imported


def test_closed_output_pipe_is_one_line_and_exit_2():
    # the reader goes away after 100 bytes of a 4.4 MB report, as with
    # `uendo tadic --n 7 --k 2 --field arch | head`: no traceback, nothing
    # from the interpreter's exit flush, and the exit code of an input
    # that cannot be read
    src = pathlib.Path(cli.__file__).parents[1]
    proc = subprocess.Popen(
        [sys.executable, "-m", "uendo.cli", "tadic", "--n", "7", "--k", "2", "--field", "arch"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env={"PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"})
    try:
        assert len(proc.stdout.read(100)) == 100
        proc.stdout.close()
        code = proc.wait(timeout=60)
        err = proc.stderr.read().decode()
    finally:
        proc.kill()
        proc.stderr.close()
    assert "Traceback" not in err and "Exception ignored" not in err
    assert (code, err) == (2, "cannot write output: [Errno 32] Broken pipe\n")


class _BrokenStdout:
    """A stdout whose reader has gone, with no file descriptor."""

    def writelines(self, pieces):
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        pass

    def fileno(self):
        raise io.UnsupportedOperation("fileno")


@pytest.mark.parametrize("argv", [["print", "--input", str(FIXTURES[0])],
                                  ["classify", "--input", str(FIXTURES[0])],
                                  ["tadic", "--n", "3", "--k", "1", "--field", "arch"]])
def test_unwritable_output_is_one_line_and_exit_2(argv, monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdout", _BrokenStdout())
    code = cli.main(argv)
    monkeypatch.undo()
    assert (code, capsys.readouterr().err) == (2, "cannot write output: [Errno 32] Broken pipe\n")


def test_check_command_green(capsys):
    code, out, _ = run_cli(["check"], capsys)
    assert code == 0
    assert json.loads(out)["status"] == "ok"


def test_check_failures_exit_3_with_one_line(monkeypatch, capsys):
    # one check reports a failure and another raises: `check` names both
    from uendo import checks

    def fails():
        return "planted failure"

    def raises():
        raise ValueError("planted error")

    patched = list(checks._CHECKS)
    patched[0], patched[-1] = fails, raises
    monkeypatch.setattr(checks, "_CHECKS", patched)
    code, out, err = run_cli(["check"], capsys)
    _assert_one_line_error(code, out, err, 3)
    assert err == ("invariant failure: planted failure; "
                   "raises raised ValueError('planted error')\n")


def test_check_compares_the_diagram_with_the_enumerated_normalizer(monkeypatch, capsys):
    # a closed form off by one is caught by the enumeration in `check`
    from uendo import checks

    original = centralizer.levi_diagram

    def wrong_n(shape):
        d = original(shape)
        return centralizer.LeviDiagram(d.w0_order, d.w_order, d.n_order + 1, d.s_order,
                                       d.s1_order, d.r_labels)

    monkeypatch.setattr(checks.central, "levi_diagram", wrong_n)
    code, out, err = run_cli(["check"], capsys)
    _assert_one_line_error(code, out, err, 3)
    assert err == "invariant failure: normalizer diagram order mismatch at (1, 1)\n"


def test_print_command(tmp_path, capsys):
    target = tmp_path / "doc.txt"
    target.write_text(FIXTURES[0].read_text())
    code, out, _ = run_cli(["print", "--input", str(target)], capsys)
    assert code == 0
    assert cli.parse(out) == cli.parse(FIXTURES[0].read_text())


# ---------------------------------------------------------------------------
# Document memos


def clear_document_memos():
    cli.parse.cache_clear()
    cli._elaborate.cache_clear()


def test_memo_hits_report_each_request_defaulted_pairs(tmp_path, capsys):
    # doc01 with and without the roots line that declares its one
    # opposite-parity pair
    text = FIXTURES[0].read_text()
    target = tmp_path / "doc.txt"
    for doc, want in ((text.replace("roots { m1, m2 : -1 }\n", ""), [["m1", "m2"]]), (text, [])):
        target.write_text(doc)
        runs = []
        for cold in (True, False):
            clear_document_memos()
            rows = []
            for command in ("epsilon", "multiplicity", "epsilon"):
                if cold:
                    clear_document_memos()
                rows.append(run_cli([command, "--input", str(target)], capsys))
            runs.append(rows)
        assert runs[0] == runs[1]
        for code, out, _ in runs[1]:
            assert code == 0 and json.loads(out)["defaulted_pairs"] == want
        # a memo hit returns the one Semantics of the document
        sem = cli.elaborate(cli.parse(doc))
        assert cli.elaborate(cli.parse(doc)) is sem


def test_memos_key_on_the_text_not_the_path(tmp_path, capsys):
    target = tmp_path / "doc.txt"
    first, second = FIXTURES[0].read_text(), FIXTURES[10].read_text()
    cold = {}
    for text in (first, second):
        clear_document_memos()
        target.write_text(text)
        cold[text] = run_cli(["classify", "--input", str(target)], capsys)
    assert cold[first] != cold[second]
    clear_document_memos()
    for text in (first, second, first):
        target.write_text(text)
        assert run_cli(["classify", "--input", str(target)], capsys) == cold[text]


def test_refusals_are_never_memoized(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("group U(3 parity -")
    wrong = tmp_path / "wrong.txt"
    wrong.write_text("group U(2) parity +\nmu a: deg=1, sd=+\npsi = a (x) nu(1)")
    errors = {}
    for path, want in ((bad, 1), (wrong, 2), (bad, 1), (wrong, 2)):
        code, out, err = run_cli(["epsilon", "--input", str(path)], capsys)
        _assert_one_line_error(code, out, err, want)
        errors.setdefault(path.name, set()).add(err)
    assert errors == {
        "bad.txt": {"parse error: expected ')', got 'parity' at line 1, column 11\n"},
        "wrong.txt": {"error: declared degree 2 but constituents sum to 1\n"},
    }
    # only the document that parsed is kept, and no elaboration
    assert cli.parse.cache_info().currsize == 1
    assert cli._elaborate.cache_info().currsize == 0


def test_memo_hit_parses_and_elaborates_nothing(monkeypatch, tmp_path, capsys):
    text = FIXTURES[10].read_text()  # doc11: two constituents, two places
    first, second = tmp_path / "first.txt", tmp_path / "second.txt"
    first.write_text(text)
    second.write_text(text)
    want = {command: run_cli([command, "--input", str(first)], capsys)
            for command in ("classify", "multiplicity", "print")}
    clear_document_memos()
    assert run_cli(["epsilon", "--input", str(first)], capsys)[0] == 0

    def refuse(*args, **kwargs):
        raise AssertionError("document parsed or elaborated on a memo hit")

    for name in ("_Parser", "SimpleParameter", "GlobalParameter"):
        monkeypatch.setattr(cli, name, refuse)
    for command, outcome in want.items():
        assert run_cli([command, "--input", str(second)], capsys) == outcome


def test_warm_memos_match_cold_requests(perfbench_workloads, tmp_path, capsys):
    """Every document command on the fixtures, the ladder documents and 320
    seeded documents gives the same bytes and exit code with the memos warm
    as with both cleared before each request; the warm run parses each
    distinct text once."""
    rng = random.Random(2026)
    texts = [path.read_text() for path in FIXTURES]
    texts += perfbench_workloads.ladder_documents().values()
    texts += [perfbench_workloads.generate_document(rng) for _ in range(320)]
    paths = []
    for index, text in enumerate(texts):
        paths.append(tmp_path / ("doc%03d.txt" % index))
        paths[-1].write_text(text)
    requests = [[command, "--input", str(path)]
                for path in paths for command in JSON_DOCUMENT_COMMANDS + ("print",)]
    rng.shuffle(requests)
    clear_document_memos()
    warm = [run_cli(argv, capsys) for argv in requests]
    assert cli.parse.cache_info().misses == len(set(texts))
    cold = []
    for argv in requests:
        clear_document_memos()
        cold.append(run_cli(argv, capsys))
    assert warm == cold
    assert sum(code == 0 for code, _, _ in warm) > len(requests) // 2


# ---------------------------------------------------------------------------
# Report schema


@pytest.mark.parametrize("path", FIXTURES, ids=lambda p: p.name)
def test_fixture_reports_match_schema(path, report_validator, capsys):
    for command in JSON_DOCUMENT_COMMANDS:
        code, out, _ = run_cli([command, "--input", str(path)], capsys)
        assert code in (0, 2), command
        if code == 0:
            errors = [e.message for e in report_validator.iter_errors(json.loads(out))]
            assert errors == [], (command, errors)


# Normalizers whose Weyl blocks are far too large to enumerate (2^20 20! signed
# permutations per O(40) block), and O(12) x O(13) with two 46,080-element blocks.
LARGE_CENTRALIZERS = {
    "O(40) x O(40)": "group U(80) parity +\nmu a: deg=1, sd=+\nmu b: deg=1, sd=+\n"
                     "psi = 40*a (x) nu(1) + 40*b (x) nu(1)\n",
    "Sp(48) x O(1)": "group U(49) parity +\nmu a: deg=1, sd=-\nmu b: deg=1, sd=+\n"
                     "psi = 48*a (x) nu(1) + b (x) nu(1)\n",
    "GL(30) x O(1)": "group U(61) parity +\nmu c: deg=1, sd=none\nmu b: deg=1, sd=+\n"
                     "psi = 30*c (x) nu(1) + b (x) nu(1)\n",
    "O(12) x O(13)": "group U(25) parity +\nmu a: deg=1, sd=+\nmu b: deg=1, sd=+\n"
                     "psi = 12*a (x) nu(1) + 13*b (x) nu(1)\n",
}


def test_centralizer_answers_large_shapes_from_closed_forms(monkeypatch, tmp_path,
                                                           report_validator, capsys):
    def refuse(*args):
        raise AssertionError("Weyl block enumerated")

    monkeypatch.setattr(cli.central, "signed_perms", refuse)
    monkeypatch.setattr(weylnum, "signed_perms", refuse)
    for name, text in LARGE_CENTRALIZERS.items():
        doc = tmp_path / "doc.txt"
        doc.write_text(text)
        code, out, err = run_cli(["centralizer", "--input", str(doc)], capsys)
        assert (code, err) == (0, ""), name
        report = json.loads(out)
        assert [e.message for e in report_validator.iter_errors(report)] == [], name
        diagram = report["diagram"]
        assert diagram["n"] == diagram["s"] * diagram["w0"] == diagram["s1"] * diagram["w"], name


def distinct_labels_document(count, mult, places=""):
    """U(count * mult) with `count` distinct `sd=+` labels of multiplicity `mult`."""
    labels = ["l%d" % i for i in range(count)]
    lines = ["group U(%d) parity +" % (count * mult)]
    lines += ["mu %s: deg=1, sd=+" % lab for lab in labels]
    prefix = "%d*" % mult if mult > 1 else ""
    lines.append("psi = " + " + ".join("%s%s (x) nu(1)" % (prefix, lab) for lab in labels))
    if places:
        lines.append(places)
    return "\n".join(lines) + "\n"


def refuse_sign_vector_enumeration(monkeypatch):
    """Make every enumeration of sign vectors in the component 2-group raise."""
    def refuse(*args, **kwargs):
        raise AssertionError("sign vectors enumerated")

    monkeypatch.setattr(cli.central, "itertools", types.SimpleNamespace(product=refuse))
    monkeypatch.setattr(cli.central.FiniteTwoGroup, "elements", refuse)
    monkeypatch.setattr(cli.central.LocalizationMap, "apply", refuse)
    monkeypatch.setattr(cli.central, "signed_perms", refuse)


def test_centralizer_answers_many_labels_from_closed_forms(monkeypatch, tmp_path,
                                                           report_validator, capsys):
    refuse_sign_vector_enumeration(monkeypatch)
    doc = tmp_path / "doc.txt"
    for mult, s1, r in ((1, 2 ** 23, 1), (2, 1, 2 ** 24)):
        doc.write_text(distinct_labels_document(24, mult))
        code, out, err = run_cli(["centralizer", "--input", str(doc)], capsys)
        assert (code, err) == (0, ""), mult
        report = json.loads(out)
        assert [e.message for e in report_validator.iter_errors(report)] == [], mult
        diagram = report["diagram"]
        assert (diagram["s1"], diagram["r"]) == (s1, r), mult
        assert diagram["n"] == diagram["s"] * diagram["w0"] == diagram["s1"] * diagram["w"]


def test_multiplicity_compares_exponents_without_the_character_sum(monkeypatch, tmp_path,
                                                                  report_validator, capsys):
    refuse_sign_vector_enumeration(monkeypatch)
    doc = tmp_path / "doc.txt"
    doc.write_text(distinct_labels_document(8, 1, "places [ v0 : inert v1 : inert ]"))
    code, out, err = run_cli(["multiplicity", "--input", str(doc)], capsys)
    assert (code, err) == (0, "")
    report = json.loads(out)
    assert [e.message for e in report_validator.iter_errors(report)] == []
    assert report["packet"] == {"members": 16384, "selected": 128}


def test_multiplicity_counts_packets_by_rank_without_listing_members(monkeypatch, tmp_path,
                                                                     report_validator, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("packet members listed")

    monkeypatch.setattr(cli.multiplicity, "enumerate_members", refuse)
    monkeypatch.setattr(cli.multiplicity, "_member_global_character", refuse)
    doc = tmp_path / "doc.txt"
    places = " ".join("v%d : inert" % j for j in range(4))
    doc.write_text(distinct_labels_document(40, 1, "places [ %s ]" % places))
    start = time.perf_counter()
    code, out, err = run_cli(["multiplicity", "--input", str(doc)], capsys)
    assert time.perf_counter() - start < 1.0
    assert (code, err) == (0, "")
    report = json.loads(out)
    assert [e.message for e in report_validator.iter_errors(report)] == []
    # each place gives 39 basis characters; together they span the 39
    # dimensions of the global group's characters, eps among them
    assert report["packet"] == {"members": 2 ** 156, "selected": 2 ** 117}


def test_centralizer_budget_admits_fixtures_and_ladder(tmp_path, capsys):
    # O(7) x O(7), Sp(8) x O(1) and GL(7) x O(1) are the largest benchmark
    # ladder rungs; O(12) x O(13) and GL(8) x O(1) sat just under the Weyl-block
    # budget that the closed-form diagram made unnecessary
    ladder = [
        "group U(14) parity +\nmu a: deg=1, sd=+\nmu b: deg=1, sd=+\n"
        "psi = 7*a (x) nu(1) + 7*b (x) nu(1)\n",
        "group U(9) parity +\nmu a: deg=1, sd=-\nmu b: deg=1, sd=+\n"
        "psi = 8*a (x) nu(1) + b (x) nu(1)\n",
        "group U(15) parity +\nmu c: deg=1, sd=none\nmu b: deg=1, sd=+\n"
        "psi = 7*c (x) nu(1) + b (x) nu(1)\n",
        "group U(25) parity +\nmu a: deg=1, sd=+\nmu b: deg=1, sd=+\n"
        "psi = 12*a (x) nu(1) + 13*b (x) nu(1)\n",
        "group U(17) parity +\nmu c: deg=1, sd=none\nmu b: deg=1, sd=+\n"
        "psi = 8*c (x) nu(1) + b (x) nu(1)\n",
    ]
    for index, text in enumerate(ladder):
        doc = tmp_path / ("rung%d.txt" % index)
        doc.write_text(text)
        code, out, _ = run_cli(["centralizer", "--input", str(doc)], capsys)
        assert code == 0 and json.loads(out)["diagram"]["w"] > 1, text
    for path in FIXTURES:
        code, _, err = run_cli(["centralizer", "--input", str(path)], capsys)
        assert "size budget" not in err, path.name


def test_arthur_over_row_budget_is_refused_before_any_row(monkeypatch, tmp_path, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("arthur rows computed over the size budget")

    monkeypatch.setattr(cli.central.FiniteTwoGroup, "elements", refuse)
    for name in ("i_number", "e_number", "sigma"):
        monkeypatch.setattr(cli, name, refuse)
    doc = tmp_path / "doc.txt"
    # k distinct labels of multiplicity 1 give 2^(k - 1) rows
    for count in (18, 40):
        doc.write_text(distinct_labels_document(count, 1))
        code, out, err = run_cli(["arthur", "--input", str(doc)], capsys)
        _assert_one_line_error(code, out, err, 2)
        assert "%d component rows" % 2 ** (count - 1) in err
        assert "size budget of %d rows" % cli.ARTHUR_MAX_ROWS in err


def test_endoscopy_over_n_budget_is_refused_before_enumerating(monkeypatch, tmp_path, capsys):
    def refuse(*args):
        raise AssertionError("endoscopic data enumerated over the size budget")

    monkeypatch.setattr(cli.endoscopy, "enumerate_standard", refuse)
    monkeypatch.setattr(cli.endoscopy, "enumerate_twisted", refuse)
    doc = tmp_path / "doc.txt"
    doc.write_text("group U(10001) parity +\nmu a: deg=1, sd=+\npsi = 10001*a (x) nu(1)\n")
    for argv in (["--n", str(cli.ENDOSCOPY_MAX_N + 1)], ["--n", "1000000"],
                 ["--input", str(doc)]):
        code, out, err = run_cli(["endoscopy"] + argv, capsys)
        _assert_one_line_error(code, out, err, 2)
        assert "size budget of N <= %d" % cli.ENDOSCOPY_MAX_N in err, argv


def test_row_and_n_budgets_admit_fixtures_and_ladder(perfbench_workloads, tmp_path, capsys):
    docs = {path.name: path.read_text() for path in FIXTURES}
    docs.update(perfbench_workloads.ladder_documents())
    assert len(docs) == 38
    doc = tmp_path / "doc.txt"
    for name, text in docs.items():
        doc.write_text(text)
        for command in ("arthur", "endoscopy"):
            code, _, err = run_cli([command, "--input", str(doc)], capsys)
            assert "size budget" not in err, (name, command)
    for n in (1, perfbench_workloads.ENDOSCOPY_MAX_N, cli.ENDOSCOPY_MAX_N):
        code, out, err = run_cli(["endoscopy", "--n", str(n)], capsys)
        assert (code, err) == (0, "") and json.loads(out)["N"] == n


def test_sigma_answers_large_factors(tmp_path, report_validator, capsys):
    for cache in (weylnum._factor_i_number, weylnum._factor_e_number, weylnum._sigma_factor):
        cache.cache_clear()
    doc = tmp_path / "doc.txt"
    doc.write_text(LARGE_CENTRALIZERS["O(40) x O(40)"])
    start = time.perf_counter()
    for command in ("arthur", "multiplicity"):
        code, out, err = run_cli([command, "--input", str(doc)], capsys)
        assert (code, err) == (0, ""), command
        report = json.loads(out)
        assert [e.message for e in report_validator.iter_errors(report)] == [], command
    assert time.perf_counter() - start < 2.0
    # Sp(80) has rank 40
    doc.write_text("group U(81) parity +\nmu a: deg=1, sd=-\nmu b: deg=1, sd=+\n"
                   "psi = 80*a (x) nu(1) + b (x) nu(1)\n")
    for command in ("arthur", "multiplicity"):
        code, out, err = run_cli([command, "--input", str(doc)], capsys)
        assert (code, err) == (0, ""), command
        report = json.loads(out)
        assert [e.message for e in report_validator.iter_errors(report)] == [], command


# ---------------------------------------------------------------------------
# JSON writer


def _enc(value, memo=None):
    """The JSON value of a report: rationals become {"num", "den"} and
    tuples lists.  A container shared within `value` is encoded once, and
    its encoding is shared the same way."""
    if isinstance(value, Fraction):
        return {"num": value.numerator, "den": value.denominator}
    if not isinstance(value, (dict, list, tuple)):
        return value
    if memo is None:
        memo = {}
    out = memo.get(id(value))
    if out is None:
        if isinstance(value, dict):
            out = {k: _enc(v, memo) for k, v in sorted(value.items())}
        else:
            out = [_enc(v, memo) for v in value]
        memo[id(value)] = out
    return out


def _json_reference(report):
    """The bytes a report's text must have, from the standard encoder; the
    report has no cycles, so the encoder need not look for them."""
    return json.dumps(_enc(report), sort_keys=True, indent=2, check_circular=False) + "\n"


def _flags_oracle(flags):
    return {"sim": flags.in_sim, "two": flags.in_2, "ell": flags.in_ell,
            "s_disc": flags.in_s_disc, "disc": flags.in_disc, "generic": flags.is_generic}


def _defaulted_pairs_oracle(psi, table):
    """The sorted label pairs of self-dual constituents of opposite cuspidal
    parity, with an even dimension in the tensor of their SL(2) parts, that
    have no root-number entry."""
    pairs = []
    for (a, _), (b, _) in itertools.combinations(psi.self_dual, 2):
        dims = su2_tensor_dims(a.su2_dim, b.su2_dim)
        if (a.mu_sign != b.mu_sign and any(d % 2 == 0 for d in dims)
                and frozenset((a.label, b.label)) not in table.entries):
            pairs.append(sorted((a.label, b.label)))
    return sorted(pairs)


def _small_report_oracle(command, text):
    """The `classify`, `centralizer`, `epsilon` or `multiplicity` report of a
    document as a dict, built field by field as the CLI once built it before
    encoding it; a refusal raises the CLI's `SemanticError`."""
    sem = cli.elaborate(cli.parse(text))
    psi, tag, table = sem.psi, sem.tag, sem.table
    if command == "classify":
        return {"command": "classify", "N": tag.N, "parity": tag.parity,
                "factors_through": cli.factors_through(psi, tag),
                "group": _flags_oracle(cli.classify(psi, tag)),
                "twisted": _flags_oracle(cli.classify(psi))}
    cli._require_factoring(sem)
    if command == "centralizer":
        shape = centralizer_shape(psi, tag)
        diagram = centralizer.levi_diagram(shape)
        return {"command": "centralizer",
                "orthogonal": [[sp.label, l] for sp, l in shape.orthogonal],
                "symplectic": [[sp.label, l] for sp, l in shape.symplectic],
                "general_linear": [[sp.label, l] for sp, l in shape.general_linear],
                "component_group_order": diagram.s_order,
                "diagram": {"w0": diagram.w0_order, "w": diagram.w_order,
                            "n": diagram.n_order, "s": diagram.s_order,
                            "s1": diagram.s1_order, "r": diagram.r_order}}
    if command == "epsilon":
        char = signs.epsilon_character(psi, tag, table)
        return {"command": "epsilon", "labels": list(char.labels),
                "exponents": list(char.exponents), "trivial": char.is_trivial,
                "value_at_s_psi": char.value_at_s_psi,
                "is_epsilon_parameter": signs.is_epsilon_parameter(psi),
                "defaulted_pairs": _defaulted_pairs_oracle(psi, table)}
    coeff = multiplicity.stable_coefficient(psi, tag, table)
    report = {"command": "multiplicity", "stable_coefficient": coeff,
              "defaulted_pairs": _defaulted_pairs_oracle(psi, table)}
    if sem.places and cli.classify(psi, tag).in_2:
        model = multiplicity.GlobalPlacesModel(centralizer_shape(psi, tag), sem.places)
        members, selected = multiplicity.packet_counts(psi, tag, table, model)
        report["packet"] = {"members": members, "selected": selected}
    return report


SMALL_REPORTS = ("classify", "centralizer", "epsilon", "multiplicity")


def test_small_reports_match_json_of_their_oracles(perfbench_workloads, tmp_path,
                                                   report_validator, capsys):
    # the four reports are written from fixed text layouts, each byte of
    # which `json.dumps` of the oracle's dict must give
    rng = random.Random(29)
    texts = [path.read_text() for path in FIXTURES]
    texts += list(perfbench_workloads.fixture_documents().values())
    texts += list(perfbench_workloads.ladder_documents().values())
    texts += [perfbench_workloads.generate_document(rng) for _ in range(1000)]
    texts += [_arthur_document(rng) for _ in range(200)]
    texts += NO_ORTHOGONAL_FACTOR + list(LARGEST_FACTORS.values())
    texts += [distinct_labels_document(16, 16), _multiplicities_document(range(7, 24)),
              distinct_labels_document(1, 257), distinct_labels_document(17, 2),
              distinct_labels_document(3, 1, "places [ v0 : inert v1 : split ]")]
    doc = tmp_path / "doc.txt"
    seen = collections.Counter()
    for text in texts:
        doc.write_text(text)
        for command in SMALL_REPORTS:
            outcome = run_cli([command, "--input", str(doc)], capsys)
            try:
                report = _small_report_oracle(command, text)
            except cli.SemanticError as exc:
                assert outcome == (2, "", "error: %s\n" % exc), (command, text)
                seen["refused"] += 1
                continue
            assert outcome == (0, _json_reference(report), ""), (command, text)
            if seen[command] % 16 == 0:
                errors = report_validator.iter_errors(json.loads(outcome[1]))
                assert [e.message for e in errors] == [], (command, text)
            seen[command] += 1
            if command == "centralizer":
                for key in ("orthogonal", "symplectic", "general_linear"):
                    seen[key, bool(report[key])] += 1
            elif command != "classify":
                seen[command, "defaulted", bool(report["defaulted_pairs"])] += 1
            if command == "multiplicity":
                seen["packet", "packet" in report] += 1
                seen["places", bool(cli.parse(text).places)] += 1
    assert seen["classify"] == len(texts) > 1200 and seen["refused"] > 1000
    assert min(seen[command] for command in SMALL_REPORTS) > 800
    for key in ("orthogonal", "symplectic", "general_linear"):
        assert seen[key, True] and seen[key, False], key
    for key in [(c, "defaulted", b) for c in ("epsilon", "multiplicity") for b in (True, False)]:
        assert seen[key], key
    assert seen["packet", True] and seen["packet", False]
    assert seen["places", True] > seen["packet", True] and seen["places", False]


def test_check_stdout_matches_json():
    assert "".join(cli.run_check()) == _json_reference({"command": "check", "status": "ok"})


def _tadic_oracle(n, k, field):
    """The tadic report as a dict, from the terms of the expansion; equal
    symbols share one dict, which `_enc` then encodes once."""
    combo = tadic.expand("r", n, k, tadic.ARCH if field == "arch" else tadic.NONARCH)
    star_term, star_coeff = tadic.tempered_part(combo)
    symbol = functools.cache(lambda s: {"k": s.k, "lambda": s.lam})

    def term(t, coeff):
        return {"coefficient": coeff, "symbols": [symbol(s) for s in t.symbols]}

    return {"command": "tadic", "n": n, "k": k, "field": field,
            "terms": [term(t, coeff) for t, coeff in coeffs(combo).items()],
            "tempered": term(star_term, star_coeff)}


def test_tadic_stdout_matches_json_of_the_expansion(capsys):
    # the report is written as text, not through `_dump`; n = 7 arch is left
    # out only because the standard encoder takes about 0.8 s to indent it
    cases = [(n, k, "arch") for n in range(1, 7) for k in range(-3, 10)]
    cases += [(n, k, "nonarch") for n in range(1, 7) for k in range(0, 10)]
    for n, k, field in cases + [(7, 2, "nonarch")]:
        argv = ["tadic", "--n", str(n), "--k", str(k), "--field", field]
        assert run_cli(argv, capsys) == (0, _json_reference(_tadic_oracle(n, k, field)), ""), argv


def test_tadic_report_reads_no_ranked_form():
    # the report is written from the keys alone: an expansion holds its
    # symbols and keys and nothing else, and `tadic` has no ranked form, no
    # dict of terms and no term builder; those are test oracles
    for field in ("arch", "nonarch"):
        want = _json_reference(_tadic_oracle(7, 2, field))
        assert "".join(cli.report_tadic(7, 2, field)) == want, field
    for field in (tadic.ARCH, tadic.NONARCH):
        assert set(vars(tadic.expand("r", 7, 2, field))) == {"symbols", "keys"}
    for cls, name in ((tadic.FormalCharacterCombination, "ranked"),
                      (tadic.FormalCharacterCombination, "coeffs"),
                      (tadic.IsobaricTerm, "build")):
        assert not hasattr(cls, name), name


def test_tadic_report_builds_no_term_but_the_tempered_one(monkeypatch, capsys):
    built, calls = [], []
    init = tadic.IsobaricTerm.__init__

    def counted_init(self, symbols):
        built.append(symbols)
        init(self, symbols)

    monkeypatch.setattr(tadic.IsobaricTerm, "__init__", counted_init)
    for name in ("expand", "tempered_part"):
        def counted(*args, original=getattr(tadic, name), name=name):
            calls.append(name)
            return original(*args)

        monkeypatch.setattr(tadic, name, counted)
    code, out, _ = run_cli(["tadic", "--n", "7", "--k", "2", "--field", "arch"], capsys)
    assert code == 0 and out.count('"coefficient"') == 5041
    assert len(built) <= 1
    assert calls == ["expand", "tempered_part"]


def _endoscopy_oracle(n):
    """The endoscopy report as a dict, from the two enumerations."""
    return {"command": "endoscopy", "N": n,
            "standard": [{"split": list(d.split), "iota": d.iota, "out_order": d.out_order}
                         for d in endoscopy.enumerate_standard(n)],
            "twisted": [{"split": list(d.split), "signature": list(d.signature),
                         "simple": d.is_simple, "iota": d.iota_twisted, "parity": d.parity}
                        for d in endoscopy.enumerate_twisted(n)]}


def test_endoscopy_stdout_matches_json_of_the_enumeration(report_validator, capsys):
    # the report is written as text, not through `_dump`
    for n in range(1, 61):
        code, out, err = run_cli(["endoscopy", "--n", str(n)], capsys)
        assert (code, out, err) == (0, _json_reference(_endoscopy_oracle(n)), ""), n
        errors = report_validator.iter_errors(json.loads(out))
        assert [e.message for e in errors] == [], n
    for path in FIXTURES:
        want = _json_reference(_endoscopy_oracle(cli.parse(path.read_text()).N))
        assert run_cli(["endoscopy", "--input", str(path)], capsys) == (0, want, ""), path.name


# ---------------------------------------------------------------------------
# Cold start


def test_import_pulls_in_neither_dataclasses_nor_inspect():
    src = pathlib.Path(cli.__file__).parents[1]
    code = ("import sys; sys.path.insert(0, %r); import uendo.cli; "
            "print(sorted({'dataclasses', 'inspect', 'argparse', 'gettext', 'locale'}"
            " & set(sys.modules)))" % str(src))
    done = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                          timeout=60, check=True)
    assert done.stdout.strip() == "[]"
    sources = sorted((src / "uendo").rglob("*.py"))
    assert len(sources) >= 11
    assert [p.name for p in sources if "dataclass" in p.read_text()] == []


# ---------------------------------------------------------------------------
# arthur


def _k_labels(k):
    decls = "".join("mu a%d: deg=1, sd=+\n" % j for j in range(k))
    terms = " + ".join("a%d (x) nu(1)" % j for j in range(k))
    return "group U(%d) parity +\n%spsi = %s\n" % (k, decls, terms)


def _arthur_document(rng):
    """A seeded document that factors through its datum: `sd=+` or `sd=-`
    labels of the datum's parity with multiplicity 1-5, the others with an
    even multiplicity, and `sd=none` labels, with SL(2) dimensions 1-3."""
    parity = rng.choice((1, -1))
    decls, terms = [], []
    for j in range(rng.randint(1, 6)):
        sd, nu = rng.choice(("+", "+", "-", "none")), rng.randint(1, 3)
        if sd == "none":
            mult = rng.randint(1, 3)
        elif (1 if sd == "+" else -1) * (-1) ** (nu - 1) == parity:
            mult = rng.randint(1, 5)
        else:
            mult = rng.choice((2, 4))
        decls.append((j, rng.randint(1, 2), sd))
        terms.append((mult, j, nu))
    n = sum(mult * decls[j][1] * nu * (2 if decls[j][2] == "none" else 1)
            for mult, j, nu in terms)
    lines = ["group U(%d) parity %s" % (n, "+" if parity == 1 else "-")]
    lines += ["mu m%d: deg=%d, sd=%s" % decl for decl in decls]
    lines.append("psi = " + " + ".join("%d*m%d (x) nu(%d)" % term for term in terms))
    return "\n".join(lines) + "\n"


def test_arthur_rows_match_i_and_e_of_each_component(tmp_path, capsys):
    # the oracle builds each row's component in full, as the report once did
    rng = random.Random(19)
    seeded = [_arthur_document(rng) for _ in range(60)]
    texts = [path.read_text() for path in FIXTURES] + [_k_labels(k) for k in range(2, 10)]
    texts += [LARGE_CENTRALIZERS["O(40) x O(40)"]] + seeded
    doc = tmp_path / "doc.txt"
    checked, pivots, kinds = 0, set(), set()
    for text in texts:
        doc.write_text(text)
        code, out, _ = run_cli(["arthur", "--input", str(doc)], capsys)
        assert code == 0 or text not in seeded, text
        if code:
            continue
        sem = cli.elaborate(cli.parse(text))
        shape = centralizer_shape(sem.psi, sem.tag)
        group = component_group(shape)
        factors = ([weylnum.so(l) for _, l in shape.orthogonal]
                   + [weylnum.sp(l) for _, l in shape.symplectic]
                   + [weylnum.gl(l) for _, l in shape.general_linear])
        pivots.add(group.pivot)
        kinds.update(f.kind for f in factors)
        rows = json.loads(out)["components"]
        assert [row["component"] for row in rows] == [list(v) for v in group.elements()]
        for row in rows:
            coset = [s == -1 for s in row["component"]]
            coset += [False] * (len(factors) - len(coset))
            datum = weylnum.ComponentDatum(weylnum.ConnectedShape(tuple(factors)), tuple(coset))
            for key, value in (("i", weylnum.i_number(datum)), ("e", weylnum.e_number(datum))):
                assert Fraction(row[key]["num"], row[key]["den"]) == value, (text, row)
            checked += 1
    assert checked > 500
    assert {None, 0} < pivots and kinds == {weylnum.SO, weylnum.SP, weylnum.GL}


def test_arthur_rows_are_expanded_not_multiplied_out(monkeypatch):
    # 8 labels of multiplicity 16 give 256 rows.  The class values are
    # products of integers made from the numerators and denominators of the
    # per-factor i and e; counting those products and powers, expanding them
    # class by class takes under one a row, multiplying out each row 32 (four
    # integers times eight factors)
    sem = cli.elaborate(cli.parse(distinct_labels_document(8, 16)))
    want = "".join(cli.report_arthur(sem))
    products = []

    class Counted(int):
        def __mul__(self, other):
            products.append(None)
            return Counted(int.__mul__(self, other))

        __rmul__ = __mul__

        def __pow__(self, n):
            products.append(None)
            return Counted(int.__pow__(self, n))

    def counted(number):
        def wrapped(datum):
            value = number(datum)
            return types.SimpleNamespace(numerator=Counted(value.numerator),
                                         denominator=Counted(value.denominator))
        return wrapped

    monkeypatch.setattr(cli, "i_number", counted(cli.i_number))
    monkeypatch.setattr(cli, "e_number", counted(cli.e_number))
    text = "".join(cli.report_arthur(sem))
    monkeypatch.undo()
    rows = text.count('"component"')
    assert text == want and rows == 256
    assert 0 < len(products) <= 6 * rows


# Documents whose centralizer has no orthogonal factor: GL, Sp, and both.
NO_ORTHOGONAL_FACTOR = [
    "group U(2) parity +\nmu a: deg=1, sd=none\npsi = a (x) nu(1)\n",
    "group U(2) parity +\nmu a: deg=1, sd=-\npsi = 2*a (x) nu(1)\n",
    "group U(8) parity -\nmu a: deg=1, sd=+\nmu b: deg=2, sd=none\n"
    "psi = 4*a (x) nu(1) + b (x) nu(1)\n",
]


def _multiplicities_document(mults):
    """U(sum of mults) with one `sd=+` label per multiplicity in `mults`."""
    labels = ["l%d" % j for j in range(len(mults))]
    return "group U(%d) parity +\n%spsi = %s\n" % (
        sum(mults), "".join("mu %s: deg=1, sd=+\n" % lab for lab in labels),
        " + ".join("%d*%s (x) nu(1)" % pair for pair in zip(mults, labels)))


def _arthur_oracle(text):
    """The arthur report of a document as a dict, built row by row: i and e
    of each element of `group.elements()`, on the whole component."""
    sem = cli.elaborate(cli.parse(text))
    shape = centralizer_shape(sem.psi, sem.tag)
    factors = tuple([weylnum.so(l) for _, l in shape.orthogonal]
                    + [weylnum.sp(l) for _, l in shape.symplectic]
                    + [weylnum.gl(l) for _, l in shape.general_linear])
    rows = []
    for vec in component_group(shape).elements():
        coset = tuple(s == -1 for s in vec) + (False,) * (len(factors) - len(vec))
        datum = weylnum.ComponentDatum(weylnum.ConnectedShape(factors), coset)
        rows.append({"component": list(vec), "i": weylnum.i_number(datum),
                     "e": weylnum.e_number(datum)})
    sigma_bar0 = weylnum.sigma(multiplicity.identity_component_shape(shape))
    return {"command": "arthur", "components": rows, "sigma_bar0": sigma_bar0}


def test_arthur_stdout_matches_json_of_each_row(perfbench_workloads, tmp_path, report_validator,
                                                 capsys):
    # the report is written as text, by class, not through `_dump`
    rng = random.Random(23)
    texts = [path.read_text() for path in FIXTURES] + NO_ORTHOGONAL_FACTOR
    texts += list(perfbench_workloads.ladder_documents().values())
    first_seeded = len(texts)
    texts += [_arthur_document(rng) for _ in range(1000)]
    doc = tmp_path / "doc.txt"
    answered, empty, kinds, pivots = 0, 0, set(), set()
    for index, text in enumerate(texts):
        doc.write_text(text)
        code, out, err = run_cli(["arthur", "--input", str(doc)], capsys)
        assert code == 0 or index < first_seeded, text
        if code:
            continue
        assert (out, err) == (_json_reference(_arthur_oracle(text)), ""), text
        if index % 16 == 0:
            assert [e.message for e in report_validator.iter_errors(json.loads(out))] == []
        sem = cli.elaborate(cli.parse(text))
        shape = centralizer_shape(sem.psi, sem.tag)
        pivots.add(component_group(shape).pivot)
        kinds.update(kind for kind, part in (("SO", shape.orthogonal), ("Sp", shape.symplectic),
                                             ("GL", shape.general_linear)) if part)
        empty += not shape.orthogonal
        answered += 1
    assert answered > 1000 and empty >= len(NO_ORTHOGONAL_FACTOR)
    assert {None, 0, 1} < pivots and kinds == {"SO", "Sp", "GL"}
    for text in NO_ORTHOGONAL_FACTOR:
        doc.write_text(text)
        out = run_cli(["arthur", "--input", str(doc)], capsys)[1]
        assert out.count('"component": []') == 1, text


def test_arthur_evaluates_i_and_e_once_per_factor_value(monkeypatch, capsys, tmp_path):
    calls = []
    for name in ("i_number", "e_number"):
        def counted(datum, original=getattr(cli, name), name=name):
            calls.append(name)
            return original(datum)

        monkeypatch.setattr(cli, name, counted)
    doc = tmp_path / "doc.txt"
    # (sizes of the orthogonal factors, rows, distinct (i, e) values, i and e evaluations
    # each): one for the other factors, and one per orthogonal size and coset bit; the
    # classes (twisted factors counted per size) are 9, 12 and 6, and an odd SO has the
    # same values on both cosets
    cases = [
        ((16,) * 8, 256, 9, 3),  # one size, no pivot
        ((4, 4, 4, 6, 6, 1), 32, 12, 6),  # the size-1 factor is the pivot, never twisted
        ((5, 5, 4, 4), 8, 3, 5),  # the pivot is one of the two 5s
    ]
    for sizes, rows, distinct, evaluations in cases:
        doc.write_text(_multiplicities_document(sizes))
        calls.clear()
        code, out, _ = run_cli(["arthur", "--input", str(doc)], capsys)
        components = json.loads(out)["components"]
        values = {(json.dumps(row["i"]), json.dumps(row["e"])) for row in components}
        assert (code, len(components), len(values)) == (0, rows, distinct), sizes
        assert sorted(calls) == ["e_number"] * evaluations + ["i_number"] * evaluations, sizes


def test_arthur_refuses_before_any_piece(monkeypatch, tmp_path, capsys):
    doc = tmp_path / "doc.txt"
    # 2^17 rows and a factor SO(66) of rank 33: the row budget is checked first
    doc.write_text(_multiplicities_document([2] * 16 + [66]))
    calls = []
    monkeypatch.setattr(cli, "i_number", lambda datum: calls.append(datum))
    code, out, err = run_cli(["arthur", "--input", str(doc)], capsys)
    _assert_one_line_error(code, out, err, 2)
    assert err == ("error: arthur has 131072 component rows, over the size budget of 65536 "
                   "rows\n") and calls == []
    monkeypatch.undo()
    # under the row budget, SO(66) of rank 33 is answered: only the parameter budget
    # bounds a factor
    doc.write_text(_multiplicities_document([66, 1]))
    code, out, err = run_cli(["arthur", "--input", str(doc)], capsys)
    assert (code, err) == (0, "")
    assert out == _json_reference(_arthur_oracle(doc.read_text()))


# The largest factors that the parameter budget admits, of rank 128, and two
# smaller factors of rank above 32.
LARGEST_FACTORS = {
    "O(128) x O(128)": "group U(256) parity +\nmu a: deg=1, sd=+\nmu b: deg=1, sd=+\n"
                       "psi = 128*a (x) nu(1) + 128*b (x) nu(1)\n",
    "O(256)": "group U(256) parity +\nmu a: deg=1, sd=+\npsi = 256*a (x) nu(1)\n",
    "O(255)": "group U(255) parity +\nmu a: deg=1, sd=+\npsi = 255*a (x) nu(1)\n",
    "Sp(256)": "group U(256) parity +\nmu a: deg=1, sd=-\npsi = 256*a (x) nu(1)\n",
    "GL(128)": "group U(256) parity +\nmu c: deg=1, sd=none\npsi = 128*c (x) nu(1)\n",
    "O(66) x O(1)": _multiplicities_document([66, 1]),
    "Sp(80) x O(1)": "group U(81) parity +\nmu a: deg=1, sd=-\nmu b: deg=1, sd=+\n"
                     "psi = 80*a (x) nu(1) + b (x) nu(1)\n",
}


def test_arthur_and_multiplicity_answer_the_largest_factors(tmp_path, report_validator,
                                                             capsys):
    doc = tmp_path / "doc.txt"
    for name, text in LARGEST_FACTORS.items():
        doc.write_text(text)
        for command in ("arthur", "multiplicity"):
            code, out, err = run_cli([command, "--input", str(doc)], capsys)
            assert (code, err) == (0, ""), (name, command)
            report = json.loads(out)
            assert [e.message for e in report_validator.iter_errors(report)] == [], name
            if command == "arthur":
                assert out == _json_reference(_arthur_oracle(text)), name
