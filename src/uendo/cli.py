"""Parameter DSL, pretty printer, and JSON reporting.

Grammar (whitespace insensitive, '#' starts a comment):

    doc    := datum decl* param roots? places?
    datum  := "group" "U(" INT ")" "parity" SIGN
    decl   := "mu" IDENT ":" "deg" "=" INT "," "sd" "=" ("+" | "-" | "none")
    param  := "psi" "=" term ("+" term)*
    term   := [INT "*"] IDENT "(x)" "nu(" INT ")"
    roots  := "roots" "{" (IDENT "," IDENT ":" SIGN)* "}"
    places := "places" "[" (IDENT ":" ("inert" | "split"))* "]"

Whitespace is space, tab, CR and LF.  An INT is a run of decimal digits; an
IDENT starts with a letter or '_' and goes on with letters, numeric
characters and '_'.  A token that starts with any other character, such as
a digit that is not decimal ('²'), is a parse error.

A document is read with one pattern match per production at its text
position; each pattern is compiled at import from the production's tuple
below, so the grammar is stated once.  Only a document that the patterns do
not read goes through the token walk, `_Parser`, which reads the same tuples
token by token to place its error.

Exit codes: 1 parse error, 2 semantic validation failure, 3 internal
invariant failure.  An input that cannot be read and an output that cannot
be written, such as a pipe whose reader has gone (`uendo tadic ... | head`),
also exit 2, with one `cannot read input: ...` or `cannot write output: ...`
line on stderr and no traceback.  A refusal whose line cannot be written
keeps its exit code.  Rationals are serialized as {"num": ..., "den": ...}.
"""

from __future__ import annotations

import functools
import itertools
import operator
import os
import re
import sys
from fractions import Fraction
from types import SimpleNamespace
from typing import Iterable, Iterator, List, Optional, Tuple

from . import centralizer as central
from . import endoscopy, multiplicity, signs, tadic
from .params import (
    NOT_SELF_DUAL,
    ORTHOGONAL,
    SYMPLECTIC,
    GlobalParameter,
    SimpleDatumTag,
    SimpleParameter,
    classify,
)
from .values import Value, set_field
from .weylnum import SO, ComponentDatum, ConnectedShape, e_number, i_number, sigma


class ParseError(Exception):
    def __init__(self, message: str, line: int, column: int):
        super().__init__("%s at line %d, column %d" % (message, line, column))
        self.line = line
        self.column = column


class SemanticError(Exception):
    pass


class InternalInvariantError(Exception):
    pass


# ---------------------------------------------------------------------------
# Lexer

# A comment runs to the end of its line, so deleting it moves no token.
_COMMENT = re.compile(r"#[^\n]*")
# Punctuation, an INT (decimal digits), a word, or any other character but
# whitespace; a word or character that starts with anything but a letter or
# '_' is refused when the document is parsed.
_TOKEN = re.compile(r"[(){}\[\]:,=+\-*]|\d+|[^\W\d]\w*|[^ \t\r\n]")
_PUNCT = frozenset("(){}[]:,=+-*")


def _is_ident(tok: str) -> bool:
    return tok[0].isalpha() or tok[0] == "_"


def _is_valid(tok: str) -> bool:
    return tok[0] in _PUNCT or tok[0].isdecimal() or _is_ident(tok)


# ---------------------------------------------------------------------------
# AST


class Decl(Value):
    __slots__ = ("label", "deg", "sd")

    def __init__(self, label: str, deg: int, sd: str):
        set_field(self, "label", label)
        set_field(self, "deg", deg)
        set_field(self, "sd", sd)  # "+", "-", "none"


class Term(Value):
    __slots__ = ("mult", "label", "nu")

    def __init__(self, mult: int, label: str, nu: int):
        set_field(self, "mult", mult)
        set_field(self, "label", label)
        set_field(self, "nu", nu)


class ParameterDocument(Value):
    __slots__ = ("N", "parity", "decls", "terms", "roots", "places", "_hash")

    def __init__(self, N: int, parity: int, decls: Tuple[Decl, ...], terms: Tuple[Term, ...],
                 roots: Tuple[Tuple[str, str, int], ...], places: Tuple[Tuple[str, str], ...]):
        set_field(self, "N", N)
        set_field(self, "parity", parity)
        set_field(self, "decls", decls)
        set_field(self, "terms", terms)
        set_field(self, "roots", roots)
        set_field(self, "places", places)
        set_field(self, "_hash", hash(self._values(self)))  # the elaboration memo's key

    def __hash__(self):
        return self._hash


# ---------------------------------------------------------------------------
# Grammar: the productions of the module docstring, one line each.  A string
# item is a token taken as written.  Any other is a reader, which
# `_Parser._read` gives the parser and the token and which returns its value
# or fails; its `pattern` matches the text of a token it accepts.


def _ident(p: _Parser, tok: Optional[str]) -> str:
    if tok is None or not _is_ident(tok):
        p._fail("expected 'IDENT'")
    return tok


def _int(p: _Parser, tok: Optional[str]) -> int:
    if tok is None or not tok[0].isdecimal():
        p._fail("expected 'INT'")
    try:
        return int(tok)
    except ValueError:  # more digits than int() reads
        p._fail("expected an INT of at most %d digits" % sys.get_int_max_str_digits())


def _sign(p: _Parser, tok: Optional[str]) -> int:
    if tok not in ("+", "-"):
        p._fail("expected a sign")
    return 1 if tok == "+" else -1


def _signed_one(p: _Parser, tok: Optional[str]) -> int:
    """A sign written as -1 or +1 (the bare sign is also accepted)."""
    sign = _sign(p, tok)
    if p.tokens[p.pos + 1] == "1":
        p.pos += 1
    return sign


def _literal(tok: str) -> str:
    """The pattern of a token taken as written: a word ends where its token does."""
    return re.escape(tok) if tok in _PUNCT else tok + r"(?!\w)"


def _one_of(*words: str):
    """A reader of one of `words`, returned as written."""
    message = "expected %s or %r" % (", ".join(map(repr, words[:-1])), words[-1])

    def read(p: _Parser, tok: Optional[str]) -> str:
        if tok not in words:
            p._fail(message)
        return tok
    read.pattern = "(%s)" % "|".join(map(_literal, words))
    return read


# The whitespace before a token.
_SPACE = "[ \t\r\n]*+"
_ident.pattern = r"([^\W\d]\w*+)"  # a word of _TOKEN, checked by `_is_valid` in `_match`
_int.pattern = r"(\d++)"
_sign.pattern = "([+-])"
_signed_one.pattern = "([+-])(?:%s1(?!\\d))?" % _SPACE

_DATUM = ("group", "U", "(", _int, ")", "parity", _sign)
_DECL = ("mu", _ident, ":", "deg", "=", _int, ",", "sd", "=", _one_of("+", "-", "none"))
_PSI = ("psi", "=")
_MULT = (_int, "*")
_TERM = (_ident, "(", "x", ")", "nu", "(", _int, ")")
# A block's head, its entry and its closer.
_ROOTS = (("roots", "{"), (_ident, ",", _ident, ":", _signed_one), "}")
_PLACES = (("places", "["), (_ident, ":", _one_of("inert", "split")), "]")


def _pattern(production: tuple) -> str:
    """The pattern of the production's items in turn, each after whitespace."""
    return "".join(_SPACE + (_literal(item) if item.__class__ is str else item.pattern)
                   for item in production)


def _block_patterns(head: tuple, entry: tuple, closer: str) -> tuple:
    return re.compile(_pattern(head)), re.compile(_pattern(entry)), re.compile(_pattern((closer,)))


# One pattern per production, matched at a text position: the datum, a
# declaration, the first term with `psi =` and each later one with its `+`
# (each with the INT "*" it may start with), each block's head, entry and
# closer, and the end of input.
_DATUM_AT = re.compile(_pattern(_DATUM))
_DECL_AT = re.compile(_pattern(_DECL))
_TERM_PATTERN = "(?:%s)?%s" % (_pattern(_MULT), _pattern(_TERM))
_FIRST_TERM_AT = re.compile(_pattern(_PSI) + _TERM_PATTERN)
_NEXT_TERM_AT = re.compile(_pattern(("+",)) + _TERM_PATTERN)
_BLOCKS_AT = (_block_patterns(*_ROOTS), _block_patterns(*_PLACES))
_END_AT = re.compile(_SPACE + r"\Z")
_SIGNS = {"+": 1, "-": -1}


def _match(text: str) -> Optional[ParameterDocument]:
    """The document of `text`, a document without its comments, read with
    one pattern match per production; None when a pattern misses, a token
    is invalid (a word read as an IDENT that is not one) or an INT has more
    digits than int() reads, for `_Parser` to place the error."""
    # in ASCII, a word that does not start with a digit starts with a letter or '_'
    if not text.isascii() and not all(map(_is_valid, _TOKEN.findall(text))):
        return None
    m = _DATUM_AT.match(text)
    if m is None:
        return None
    n, parity = m.groups()
    pos = m.end()
    decls, terms = [], []
    at = _FIRST_TERM_AT
    try:
        n = int(n)
        while (m := _DECL_AT.match(text, pos)) is not None:
            label, deg, sd = m.groups()
            decls.append(Decl(label, int(deg), sd))
            pos = m.end()
        while (m := at.match(text, pos)) is not None:
            mult, label, nu = m.groups()
            terms.append(Term(1 if mult is None else int(mult), label, int(nu)))
            pos = m.end()
            at = _NEXT_TERM_AT
    except ValueError:  # more digits than int() reads
        return None
    if not terms:
        return None
    blocks = []
    for head, entry, closer in _BLOCKS_AT:
        entries = []
        if (m := head.match(text, pos)) is not None:
            pos = m.end()
            while (m := entry.match(text, pos)) is not None:
                entries.append(m.groups())
                pos = m.end()
            if (m := closer.match(text, pos)) is None:
                return None
            pos = m.end()
        blocks.append(entries)
    if _END_AT.match(text, pos) is None:
        return None
    roots, places = blocks
    return ParameterDocument(n, _SIGNS[parity], tuple(decls), tuple(terms),
                             tuple([(a, b, _SIGNS[s]) for a, b, s in roots]), tuple(places))


class _Parser:
    """Recursive descent over the string tokens of `text`, a document
    without its comments, which places the error of a document that
    `_match` does not read.  Each token consumed passes a check that an
    invalid token fails, so the tokens are checked for one only when the
    parse fails; a token's line and column are found only for its error."""

    def __init__(self, text: str):
        self.text = text
        self.tokens = _TOKEN.findall(text)
        self.tokens.append(None)  # end of input, which nothing consumes
        self.pos = 0

    def _error(self, message: str, index: int) -> ParseError:
        """A `ParseError` at the token of that index; line 1, column 1 when
        there are no tokens."""
        offset = 0
        if index >= 0:
            offset = next(itertools.islice(_TOKEN.finditer(self.text), index, None)).start()
        line = self.text.count("\n", 0, offset) + 1
        return ParseError(message, line, offset - self.text.rfind("\n", 0, offset))

    def _fail(self, message: str):
        # an invalid token anywhere is the error, as a lexer would find it first
        for index, tok in enumerate(self.tokens[:-1]):
            if not _is_valid(tok):
                raise self._error("unexpected character %r" % tok[0], index)
        tok = self.tokens[self.pos]
        if tok is None:
            raise self._error(message + " (at end of input)", len(self.tokens) - 2)
        shown = repr(tok) if len(tok) <= 64 else "%r... (%d characters)" % (tok[:16], len(tok))
        raise self._error(message + ", got " + shown, self.pos)

    def _at(self, text: str) -> bool:
        return self.tokens[self.pos] == text

    def _read(self, production: tuple) -> list:
        """The values of the production's items that are not tokens, in order."""
        values = []
        for item in production:
            tok = self.tokens[self.pos]
            if item.__class__ is not str:
                values.append(item(self, tok))
            elif tok != item:
                self._fail("expected %r" % item)
            self.pos += 1
        return values

    def _block(self, head: tuple, entry: tuple, closer: str) -> tuple:
        """The entries of the block `head entry* closer`, or none if it is absent."""
        if not self._at(head[0]):
            return ()
        self._read(head)
        entries = []
        while not self._at(closer):  # an entry fails at the end of input
            entries.append(tuple(self._read(entry)))
        self.pos += 1
        return tuple(entries)

    def document(self) -> ParameterDocument:
        n, parity = self._read(_DATUM)
        decls = []
        while self._at("mu"):
            decls.append(Decl(*self._read(_DECL)))
        self._read(_PSI)
        terms = [self._term()]
        while self._at("+"):
            self.pos += 1
            terms.append(self._term())
        roots = self._block(*_ROOTS)
        places = self._block(*_PLACES)
        if self.tokens[self.pos] is not None:
            self._fail("unexpected trailing input")
        return ParameterDocument(n, parity, tuple(decls), tuple(terms), roots, places)

    def _term(self) -> Term:
        tok = self.tokens[self.pos]
        mult = self._read(_MULT)[0] if tok and tok[0].isdecimal() else 1
        return Term(mult, *self._read(_TERM))


# The documents `parse` and `_elaborate` each keep, above an interactive pass's 622.
DOCUMENT_MEMO_ENTRIES = 4096


@functools.lru_cache(maxsize=DOCUMENT_MEMO_ENTRIES)
def parse(text: str) -> ParameterDocument:
    """The document that `text` spells, or a `ParseError`.  Memoized on the
    text, so a text is parsed once while the memo keeps it; the document is
    frozen, so callers share it.  An error is not stored and is raised
    again on every call."""
    text = _COMMENT.sub("", text)
    doc = _match(text)
    return _Parser(text).document() if doc is None else doc


def print_document(doc: ParameterDocument) -> str:
    lines = ["group U(%d) parity %s" % (doc.N, "+" if doc.parity == 1 else "-")]
    for d in doc.decls:
        lines.append("mu %s: deg=%d, sd=%s" % (d.label, d.deg, d.sd))
    terms = []
    for t in doc.terms:
        head = "%d*" % t.mult if t.mult != 1 else ""
        terms.append("%s%s (x) nu(%d)" % (head, t.label, t.nu))
    lines.append("psi = " + " + ".join(terms))
    if doc.roots:
        body = " ".join("%s, %s : %s" % (a, b, "+1" if s == 1 else "-1") for a, b, s in doc.roots)
        lines.append("roots { %s }" % body)
    if doc.places:
        body = " ".join("%s : %s" % (name, kind) for name, kind in doc.places)
        lines.append("places [ %s ]" % body)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Elaboration


def elaborate(doc: ParameterDocument) -> multiplicity.Analysis:
    """Check a parsed document and build its `Analysis`, memoized on the
    document; every rejection, the library's `ValueError`s included, is a
    `SemanticError`, and none is stored."""
    try:
        return _elaborate(doc)
    except ValueError as exc:
        raise SemanticError(str(exc)) from None


@functools.lru_cache(maxsize=DOCUMENT_MEMO_ENTRIES)
def _elaborate(doc: ParameterDocument) -> multiplicity.Analysis:
    """`elaborate` before a `ValueError` becomes a `SemanticError`."""
    decls = {}
    for d in doc.decls:
        if d.label in decls:
            raise SemanticError("label %r declared twice" % d.label)
        decls[d.label] = d
    nus = {}  # label -> the nu of its term
    constituents = []
    for t in doc.terms:
        if t.label not in decls:
            raise SemanticError("label %r used but not declared" % t.label)
        if nus.get(t.label) == t.nu:
            raise SemanticError("duplicate term %s (x) nu(%d)" % (t.label, t.nu))
        if t.label in nus:
            raise SemanticError(
                "label %r reused with a different nu; declare a second label" % t.label
            )
        nus[t.label] = t.nu
        d = decls[t.label]
        if d.sd == "none":
            base = SimpleParameter(t.label, d.deg, NOT_SELF_DUAL, t.nu, partner=t.label + "*")
            mate = SimpleParameter(t.label + "*", d.deg, NOT_SELF_DUAL, t.nu, partner=t.label)
            constituents.append((base, t.mult))
            constituents.append((mate, t.mult))
        else:
            duality = ORTHOGONAL if d.sd == "+" else SYMPLECTIC
            constituents.append((SimpleParameter(t.label, d.deg, duality, t.nu), t.mult))
    psi = GlobalParameter(constituents)
    if psi.total_degree != doc.N:
        try:
            total = "%d" % psi.total_degree
        except ValueError:  # more digits than str() writes
            total = "more than %d digits" % sys.get_int_max_str_digits()
        raise SemanticError("declared degree %d but constituents sum to %s" % (doc.N, total))
    kappa = doc.parity * (-1) ** (doc.N - 1)
    tag = SimpleDatumTag(doc.N, kappa)
    entries = {}
    for a, b, s in doc.roots:
        for lab in (a, b):
            if lab not in decls:
                raise SemanticError("root-number label %r not declared" % lab)
        if a == b:
            raise SemanticError("root-number entries pair distinct labels")
        entries[frozenset((a, b))] = s
    table = signs.RootNumberTable(entries)
    table.validate_against(psi)
    places = {}
    for name, kind in doc.places:
        if name in places:
            raise SemanticError("place %r declared twice" % name)
        places[name] = multiplicity.Place(name, kind)
    return multiplicity.Analysis(psi, tag, table, tuple(places.values()))


# ---------------------------------------------------------------------------
# Reports


def _json_list(items: List[str], depth: int) -> str:
    """A JSON list of rendered items, as the value of a key at `depth`."""
    if not items:
        return "[]"
    inner = "\n" + "  " * (depth + 1)
    return "[" + inner + ("," + inner).join(items) + "\n" + "  " * depth + "]"


def _json_bool(value: bool) -> str:
    return "true" if value else "false"


def _quoted(word: str) -> str:
    """A label or a --field word as a JSON string in ASCII, as `json`
    writes it.  Such a word holds no '"', '\\' or control character, so
    only a non-ASCII character is escaped: as \\uXXXX, or as a surrogate
    pair beyond U+FFFF."""
    if word.isascii():
        return '"' + word + '"'
    return '"' + "".join(map(_escaped, word)) + '"'


def _escaped(char: str) -> str:
    code = ord(char)
    if code < 0x80:
        return char
    if code < 0x10000:
        return "\\u%04x" % code
    code -= 0x10000
    return "\\u%04x\\u%04x" % (0xD800 | code >> 10, 0xDC00 | code & 0x3FF)


# The v1 layout of a classify report and of its two sets of chain flags.
_CLASSIFY = ('{\n  "N": %d,\n  "command": "classify",\n  "factors_through": %s,\n'
             '  "group": %s,\n  "parity": %d,\n  "twisted": %s\n}\n')
_FLAGS = ('{\n    "disc": %s,\n    "ell": %s,\n    "generic": %s,\n    "s_disc": %s,\n'
          '    "sim": %s,\n    "two": %s\n  }')


def _flags(flags) -> str:
    return _FLAGS % (_json_bool(flags.in_disc), _json_bool(flags.in_ell),
                     _json_bool(flags.is_generic), _json_bool(flags.in_s_disc),
                     _json_bool(flags.in_sim), _json_bool(flags.in_2))


def report_classify(analysis: multiplicity.Analysis) -> Tuple[str]:
    tag = analysis.tag
    return (_CLASSIFY % (tag.N, _json_bool(analysis.factors), _flags(analysis.chain_flags),
                         tag.parity, _flags(classify(analysis.psi))),)


# The v1 layout of a centralizer report and of one (label, multiplicity) pair.
_CENTRALIZER = ('{\n  "command": "centralizer",\n  "component_group_order": %d,\n'
                '  "diagram": {\n    "n": %d,\n    "r": %d,\n    "s": %d,\n    "s1": %d,\n'
                '    "w": %d,\n    "w0": %d\n  },\n  "general_linear": %s,\n'
                '  "orthogonal": %s,\n  "symplectic": %s\n}\n')
_PAIR = '[\n      %s,\n      %d\n    ]'


def report_centralizer(analysis: multiplicity.Analysis) -> Tuple[str]:
    shape = analysis.shape
    diagram = central.levi_diagram(shape)
    factors = [_json_list([_PAIR % (_quoted(sp.label), l) for sp, l in part], 1)
               for part in (shape.general_linear, shape.orthogonal, shape.symplectic)]
    return (_CENTRALIZER % (diagram.s_order, diagram.n_order, diagram.r_order, diagram.s_order,
                            diagram.s1_order, diagram.w_order, diagram.w0_order, *factors),)


# arthur writes one row per element of the component group; a larger group
# is refused before any row is computed.
ARTHUR_MAX_ROWS = 2 ** 16
# The arthur text of a component group of at most ARTHUR_MEMO_ROWS rows is
# kept per identity component, in at most ARTHUR_MEMO_ENTRIES entries, the
# least recently used dropped first.  A larger report is written afresh,
# piece by piece, on every call, and never kept.
ARTHUR_MEMO_ROWS = 64
ARTHUR_MEMO_ENTRIES = 512

# The v1 layout of an arthur report up to its rows, of a row up to its signs
# and after them, and of the report's end: the bytes of
# `json.dumps(report, sort_keys=True, indent=2)` with rationals as
# {"num", "den"} objects, plus a newline.
_ARTHUR = ('{\n  "command": "arthur",\n  "components": [', ',\n    {\n      "component": [',
           '],\n      "e": {\n        "den": %d,\n        "num": %d\n      },\n'
           '      "i": {\n        "den": %d,\n        "num": %d\n      }\n    }',
           '\n  ],\n  "sigma_bar0": {\n    "den": %d,\n    "num": %d\n  }\n}\n')


@functools.lru_cache(maxsize=ARTHUR_MEMO_ENTRIES)
def _component_reports(base: ConnectedShape) -> str:
    """The arthur text of an identity component, which depends on S^0_psi
    alone, never on the labels, root numbers or places of psi."""
    return "".join(_arthur_pieces(base))


def report_arthur(analysis: multiplicity.Analysis) -> Iterable[str]:
    """The report's JSON text: one piece from the memo when the group has at
    most ARTHUR_MEMO_ROWS rows, otherwise `_arthur_pieces`.  The row budget
    is checked before any row is computed."""
    group = analysis.group
    if group.order > ARTHUR_MAX_ROWS:
        raise SemanticError("arthur has %d component rows, over the size budget of %d rows"
                            % (group.order, ARTHUR_MAX_ROWS))
    base = analysis.identity_component
    if group.order > ARTHUR_MEMO_ROWS:
        return _arthur_pieces(base)
    return (_component_reports(base),)


def _arthur_pieces(base: ConnectedShape) -> Iterator[str]:
    """The arthur report of the identity component `base` in pieces, rows in
    `group.elements()` order; all that can fail runs first.  The orthogonal
    factors are the leading SO factors of `base`, and the group's pivot is
    the first of odd size.  A row's i and e depend only on how many
    orthogonal factors of each size it twists, its class, so each class's
    values and text are made once.  A piece is one row of signs of the first
    half of the orthogonal factors, joined with every row of the second."""
    sigma_bar0 = sigma(base)
    sizes = [f.size for f in base.factors if f.kind == SO]
    orthogonal, rest = base.factors[:len(sizes)], base.factors[len(sizes):]
    pivot = next((index for index, size in enumerate(sizes) if size % 2), None)

    def numbers(factors, coset):  # (i, e) as the integers (i num, i den, e num, e den)
        datum = ComponentDatum(ConnectedShape(factors), coset)
        i, e = i_number(datum), e_number(datum)
        return i.numerator, i.denominator, e.numerator, e.denominator

    # (i, e) of each class as unreduced integer pairs, keyed by the sum of
    # weights[size] over its twisted factors
    classes, weights = [numbers(rest, (False,) * len(rest))], {}
    for size in dict.fromkeys(sizes):
        f, count = orthogonal[sizes.index(size)], sizes.count(size)
        twistable = count - (pivot is not None and sizes[pivot] == size)
        plain = numbers((f,), (False,))
        twisted = numbers((f,), (True,)) if twistable else plain
        steps = [[u ** (count - t) * v ** t for u, v in zip(plain, twisted)]
                 for t in range(twistable + 1)]
        weights[size] = len(classes)
        classes = [(a * p, b * q, c * r, d * s) for p, q, r, s in steps for a, b, c, d in classes]
    head, row, end, tail = _ARTHUR
    end = "\n      " * bool(sizes) + end
    # each class's text takes the slot of its integers, which die as it is made
    ends = classes
    del classes
    for index, (a, b, c, d) in enumerate(ends):
        i, e = Fraction(a, b), Fraction(c, d)
        ends[index] = end % (e.denominator, e.numerator, i.denominator, i.numerator)

    def signs(start, stop):  # (text, class key) of each row of these factors' signs
        rows = [("", 0)]
        for index in range(start, stop):
            bits = ((",\n        1", 0), (",\n        -1", weights[sizes[index]]))
            bits = bits[:1 + (index != pivot)]
            rows = [(text + sign, key + w) for text, key in rows for sign, w in bits]
        return rows

    middle = (len(sizes) + 1) // 2
    heads = [(row + text[1:], key) for text, key in signs(0, middle)]
    tails = signs(middle, len(sizes))
    pieces = ("".join([lead + text + ends[key + k] for text, k in tails]) for lead, key in heads)
    return itertools.chain((head + next(pieces)[1:],), pieces,
                           (tail % (sigma_bar0.denominator, sigma_bar0.numerator),))


# The v1 layout of a standard and of a twisted datum in an endoscopy report.
_IOTA = '{\n      "iota": {\n        "den": %d,\n        "num": %d\n      },\n'
_SPLIT = '      "split": [\n        %d,\n        %d\n      ]\n    }'
_STANDARD = _IOTA + '      "out_order": %d,\n' + _SPLIT
_TWISTED = (_IOTA + '      "parity": %s,\n      "signature": [\n        %d,\n        %d\n'
            '      ],\n      "simple": %s,\n' + _SPLIT)


def report_endoscopy(N: int) -> Tuple[str, ...]:
    """The report's JSON text in pieces, each list joined once."""
    std = [_STANDARD % (d.iota.denominator, d.iota.numerator, d.out_order, *d.split)
           for d in endoscopy.enumerate_standard(N)]
    tw = [_TWISTED % (d.iota_twisted.denominator, d.iota_twisted.numerator,
                      "null" if d.parity is None else "%d" % d.parity, *d.signature,
                      _json_bool(d.is_simple), *d.split)
          for d in endoscopy.enumerate_twisted(N)]
    return ('{\n  "N": %d,\n  "command": "endoscopy",\n  "standard": [\n    ' % N,
            ",\n    ".join(std), '\n  ],\n  "twisted": [\n    ', ",\n    ".join(tw), "\n  ]\n}\n")


# The v1 layouts of an epsilon and of a multiplicity report, and of a
# multiplicity report's packet counts.
_EPSILON = ('{\n  "command": "epsilon",\n  "defaulted_pairs": %s,\n  "exponents": %s,\n'
            '  "is_epsilon_parameter": %s,\n  "labels": %s,\n  "trivial": %s,\n'
            '  "value_at_s_psi": %d\n}\n')
_MULTIPLICITY = ('{\n  "command": "multiplicity",\n  "defaulted_pairs": %s,\n%s'
                 '  "stable_coefficient": {\n    "den": %d,\n    "num": %d\n  }\n}\n')
_PACKET = '  "packet": {\n    "members": %d,\n    "selected": %d\n  },\n'


def _defaulted_pairs(pairs: Tuple[Tuple[str, str], ...]) -> str:
    """The sorted label pairs whose root numbers defaulted to +1, as JSON."""
    items = [_json_list(list(map(_quoted, pair)), 2) for pair in pairs]
    return _json_list(items, 1)


def report_epsilon(analysis: multiplicity.Analysis) -> Tuple[str]:
    char = analysis.eps
    return (_EPSILON % (_defaulted_pairs(char.defaulted),
                        _json_list(["%d" % x for x in char.exponents], 1),
                        _json_bool(signs.is_epsilon_parameter(analysis.psi)),
                        _json_list(list(map(_quoted, char.labels)), 1),
                        _json_bool(char.is_trivial), char.value_at_s_psi),)


def report_multiplicity(analysis: multiplicity.Analysis) -> Tuple[str]:
    """The packet counts are read only for a square-integrable parameter
    with places."""
    coeff, eps = analysis.coefficient, analysis.eps
    packet = ""
    if analysis.places and analysis.chain_flags.in_2:
        packet = _PACKET % analysis.packet_counts
    return (_MULTIPLICITY % (_defaulted_pairs(eps.defaulted), packet, coeff.denominator,
                             coeff.numerator),)


# The v1 layout of a tadic report up to its terms, of one term and of one
# symbol, at depth 0, as `json.dumps(..., sort_keys=True, indent=2)` writes them.
_TADIC_HEAD = ('{\n  "command": "tadic",\n  "field": %s,\n  "k": %d,\n  "n": %d,\n'
               '  "tempered": %s,\n  "terms": [')
_TADIC_TERM = '{\n  "coefficient": %d,\n  "symbols": [\n    %s\n  ]\n}'
_TADIC_SYMBOL = '{\n  "k": %d,\n  "lambda": {\n    "den": %d,\n    "num": %d\n  }\n}'
_TADIC_CHUNK = 1024  # terms per piece of a tadic report, about 1 MB at n = 8


def report_tadic(n: int, k: int, field: str) -> Iterator[str]:
    """The report's JSON text in pieces, from the expansion's keys: each
    distinct symbol is rendered once, and a piece is one join of a list
    indexed by the codes of `_TADIC_CHUNK` keys (below 256 for n <=
    TADIC_MAX_N, so read as latin-1 bytes), each key after its sign's head
    code.  The expansion, its tempered part and the first piece are computed
    before this returns, so a `ValueError` precedes any piece."""
    case = tadic.ARCH if field == "arch" else tadic.NONARCH
    combo = tadic.expand("r", n, k, case)
    star_term, star_coeff = tadic.tempered_part(combo)

    def layout(depth: int, symbols):
        """A term's layout at `depth`, its symbols' separator and texts there."""
        inner = "\n" + "  " * (depth + 2)
        symbol = _TADIC_SYMBOL.replace("\n", inner)
        return (_TADIC_TERM.replace("\n", "\n" + "  " * depth), "," + inner,
                [symbol % (s.k, s.lam.denominator, s.lam.numerator) for s in symbols])

    term, sep, texts = layout(2, combo.symbols)
    head, tail = term.split("%s")
    star, star_sep, star_texts = layout(1, star_term.symbols)
    tempered = star % (star_coeff, star_sep.join(star_texts))
    # tadic's codes (-1, +1, the separator, the ranks), the heads of -1 and +1,
    # then the report's head with the first term's, which has no comma
    texts = [tail, tail, sep] + texts + [",\n    " + head % c for c in (-1, 1)]
    heads = {tadic._SIGN[-1]: chr(len(texts) - 2), tadic._SIGN[1]: chr(len(texts) - 1)}
    texts.append(_TADIC_HEAD % (_quoted(field), k, n, tempered)
                 + texts[ord(heads[combo.keys[0][-1]])][1:])

    def piece(start: int) -> str:
        chunk = combo.keys[start:start + _TADIC_CHUNK]
        spliced = [None] * (2 * len(chunk))
        spliced[::2] = map(heads.__getitem__, map(operator.itemgetter(-1), chunk))
        spliced[1::2] = chunk
        if start == 0:
            spliced[0] = chr(len(texts) - 1)
        return "".join(map(texts.__getitem__, "".join(spliced).encode("latin-1")))

    pieces = map(piece, range(0, len(combo.keys), _TADIC_CHUNK))
    return itertools.chain((next(pieces),), pieces, ("\n  ]\n}\n",))


def run_check() -> Tuple[str]:
    """A condensed invariant battery across the modules; exit 3 on failure."""
    from . import checks

    failures = checks.run_all()
    if failures:
        raise InternalInvariantError("; ".join(failures))
    return ('{\n  "command": "check",\n  "status": "ok"\n}\n',)


# ---------------------------------------------------------------------------
# Entry point


# tadic --n above this is refused before expanding: 8! = 40,320 permutations.
TADIC_MAX_N = 8
# endoscopy's tables grow linearly in N (about 300 bytes per unit of N); a
# larger N, from --n or the document, is refused before enumerating.
ENDOSCOPY_MAX_N = 10_000


def _endoscopy(doc: Optional[ParameterDocument], flags: SimpleNamespace) -> Tuple[str, ...]:
    if flags.n is not None:
        n = flags.n
    elif doc is not None:
        n = doc.N
    else:
        raise SemanticError("endoscopy needs --n or an input document")
    if n > ENDOSCOPY_MAX_N:
        raise SemanticError(
            "endoscopy N = %d is over the size budget of N <= %d" % (n, ENDOSCOPY_MAX_N)
        )
    return report_endoscopy(n)


def _tadic(doc: Optional[ParameterDocument], flags: SimpleNamespace) -> Iterator[str]:
    if flags.n is None or flags.k is None:
        raise SemanticError("tadic needs --n and --k")
    if flags.n > TADIC_MAX_N:
        raise SemanticError(
            "tadic --n %d is over the size budget of n <= %d" % (flags.n, TADIC_MAX_N)
        )
    return report_tadic(flags.n, flags.k, flags.field)


# Reports of an elaborated input document, then reports read from flags.
_DOC_REPORTS = {
    "classify": report_classify,
    "centralizer": report_centralizer,
    "arthur": report_arthur,
    "epsilon": report_epsilon,
    "multiplicity": report_multiplicity,
}
_FLAG_REPORTS = {
    "endoscopy": _endoscopy,
    "tadic": _tadic,
    "check": lambda doc, flags: run_check(),
}


def run(command: str, doc: Optional[ParameterDocument],
        flags: SimpleNamespace) -> Iterable[str]:
    """The JSON text of one command's report in pieces, all rendered before
    this returns except those of `tadic` and of an `arthur` report of more
    than ARTHUR_MEMO_ROWS rows, which are rendered as they are written.  A library `ValueError`, such as from --n or --k, is a
    `SemanticError`."""
    try:
        if command in _DOC_REPORTS:
            if doc is None:
                raise SemanticError("command %r needs an input document" % command)
            return _DOC_REPORTS[command](elaborate(doc))
        if command in _FLAG_REPORTS:
            return _FLAG_REPORTS[command](doc, flags)
    except ValueError as exc:
        raise SemanticError(str(exc)) from None
    raise SemanticError("unknown command %r" % command)


_COMMANDS = ("classify", "centralizer", "arthur", "endoscopy", "epsilon", "multiplicity",
             "tadic", "check", "print")
_FIELDS = ("arch", "nonarch")


def _fast_args(argv: List[str]) -> Optional[SimpleNamespace]:
    """The arguments argparse would give for the one argv shape callers
    send: a command, then each of --input, --n, --k and --field at most
    once, each with a value that is not empty and does not start with '-'.
    None for any other argv, such as help, abbreviations, '=' forms,
    options before the command, repeated flags or bad values; argparse
    reads those and writes their help and error text."""
    if not argv or argv[0] not in _COMMANDS or len(argv) % 2 == 0:
        return None
    args = SimpleNamespace(command=argv[0], input=None, n=None, k=None, field="nonarch")
    seen = set()
    for flag, value in zip(argv[1::2], argv[2::2]):
        if flag in seen or not value or value[0] == "-":
            return None
        seen.add(flag)
        if flag == "--input":
            args.input = value
        elif flag == "--n" or flag == "--k":
            try:
                setattr(args, flag[2:], int(value))
            except ValueError:
                return None
        elif flag == "--field" and value in _FIELDS:
            args.field = value
        else:
            return None
    return args


@functools.cache
def _argument_parser():
    """The argparse parser, imported and built on first use: `parse_args`
    returns a fresh namespace on every call."""
    import argparse

    class _ArgumentParser(argparse.ArgumentParser):
        """Refuses bad arguments with one line on stderr and exit 2, like
        every other refusal, instead of a usage line plus an error line."""

        def error(self, message: str):
            self.exit(2, "error: %s\n" % message)

    parser = _ArgumentParser(
        prog="uendo",
        description="exact endoscopic combinatorics for unitary groups",
    )
    parser.add_argument("command", choices=_COMMANDS)
    parser.add_argument("--input", help="parameter document file")
    parser.add_argument("--n", type=int, default=None)
    parser.add_argument("--k", type=int, default=None)
    parser.add_argument("--field", choices=_FIELDS, default="nonarch")
    return parser


def _read_document(path: str) -> str:
    """The file's text, with CRLF and lone CR read as LF, as text mode
    reads it: open, a read per 64 KiB, the empty read, close.  Each error is
    the `OSError` that `open(path, "rb")` raises, or one for a NUL byte in
    the path, which `open` refuses with a `ValueError`.  A directory opens,
    and the `IsADirectoryError` (EISDIR) of its first read is raised again
    with the path, as `open` words it."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except ValueError as exc:  # embedded null byte
        raise OSError(str(exc)) from None
    try:
        chunks = []
        while chunk := os.read(fd, 1 << 16):
            chunks.append(chunk)
    except IsADirectoryError as exc:
        raise IsADirectoryError(exc.errno, exc.strerror, path) from None
    finally:
        os.close(fd)
    text = b"".join(chunks).decode("utf-8")
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text


def main(argv: Optional[List[str]] = None) -> int:
    """Run one command line: write its document (`print`) or its report's
    pieces with `writelines`, or one refusal line on stderr; return the exit
    code."""
    if argv is None:
        argv = sys.argv[1:]
    args = _fast_args(argv) or _argument_parser().parse_args(argv)

    doc = None
    try:
        if args.input:
            doc = parse(_read_document(args.input))
    except ParseError as exc:
        return _refuse("parse error: %s" % exc, 1)
    except UnicodeDecodeError as exc:
        return _refuse("parse error: input is not UTF-8 text: %s" % exc, 1)
    except OSError as exc:
        return _refuse("cannot read input: %s" % exc, 2)

    try:
        if args.command == "print":
            if doc is None:
                raise SemanticError("print needs an input document")
            report = (print_document(doc),)
        else:
            report = run(args.command, doc, args)
    except SemanticError as exc:
        return _refuse("error: %s" % exc, 2)
    except InternalInvariantError as exc:
        return _refuse("invariant failure: %s" % exc, 3)

    try:
        sys.stdout.writelines(report)
        sys.stdout.flush()
    except OSError as exc:
        _drop_stream(sys.stdout)
        return _refuse("cannot write output: %s" % exc, 2)
    return 0


def _refuse(line: str, code: int) -> int:
    """Write one refusal line on stderr and return its exit code, which a
    stderr that cannot be written (full, closed) keeps, with no traceback."""
    try:
        print(line, file=sys.stderr)
    except OSError:
        _drop_stream(sys.stderr)
    return code


def _drop_stream(stream) -> None:
    """Point the stream's file descriptor at `os.devnull`, so that what is
    left in its buffer goes there at the interpreter's exit flush instead of
    failing again, which prints "Exception ignored" for stdout and turns the
    exit code into 120 for stderr."""
    try:
        fd = stream.fileno()
        devnull = os.open(os.devnull, os.O_WRONLY)
        if devnull != fd:  # a closed descriptor is the first one `os.open` hands out
            os.dup2(devnull, fd)
            os.close(devnull)
    except (OSError, ValueError):  # a stream with no descriptor has no exit flush to fail
        pass


if __name__ == "__main__":
    # `checks` imports this module by name; hand it this copy, not a second one
    sys.modules.setdefault("uendo.cli", sys.modules[__name__])
    sys.exit(main())
