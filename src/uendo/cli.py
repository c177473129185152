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

Exit codes: 1 parse error, 2 semantic validation failure, 3 internal
invariant failure.  Rationals are serialized as {"num": ..., "den": ...}.
"""

from __future__ import annotations

import errno
import functools
import itertools
import operator
import os
import re
import stat
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii
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
    factors_through,
)
from .values import Value, set_field
from .weylnum import ComponentDatum, ConnectedShape, e_number, i_number, sigma


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
# Grammar: the productions of the module docstring, one line each, as
# `_Parser._read` reads them.  A string item is a token taken as written; any
# other is given the parser and the token and returns its value or fails.


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


def _one_of(*words: str):
    """A reader of one of `words`, returned as written."""
    message = "expected %s or %r" % (", ".join(map(repr, words[:-1])), words[-1])

    def read(p: _Parser, tok: Optional[str]) -> str:
        if tok not in words:
            p._fail(message)
        return tok
    return read


_DATUM = ("group", "U", "(", _int, ")", "parity", _sign)
_DECL = ("mu", _ident, ":", "deg", "=", _int, ",", "sd", "=", _one_of("+", "-", "none"))
_MULT = (_int, "*")
_TERM = (_ident, "(", "x", ")", "nu", "(", _int, ")")
_ROOT = (_ident, ",", _ident, ":", _signed_one)
_PLACE = (_ident, ":", _one_of("inert", "split"))


class _Parser:
    """Recursive descent over the string tokens of `text`, a document
    without its comments.  Each token consumed passes a check that an
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
        self._read(("psi", "="))
        terms = [self._term()]
        while self._at("+"):
            self.pos += 1
            terms.append(self._term())
        roots = self._block(("roots", "{"), _ROOT, "}")
        places = self._block(("places", "["), _PLACE, "]")
        if self.tokens[self.pos] is not None:
            self._fail("unexpected trailing input")
        return ParameterDocument(n, parity, tuple(decls), tuple(terms), roots, places)

    def _term(self) -> Term:
        tok = self.tokens[self.pos]
        mult = self._read(_MULT)[0] if tok and tok[0].isdecimal() else 1
        return Term(mult, *self._read(_TERM))


@functools.lru_cache(maxsize=None)
def parse(text: str) -> ParameterDocument:
    """The document that `text` spells, or a `ParseError`.  Memoized on the
    text for the life of the process, so each distinct text is parsed once;
    the document is frozen, so callers share it.  An error is not stored
    and is raised again on every call."""
    return _Parser(_COMMENT.sub("", text)).document()


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
# Semantics


class Semantics(Value):
    __slots__ = ("psi", "tag", "table", "places")

    def __init__(self, psi: GlobalParameter, tag: SimpleDatumTag, table: signs.RootNumberTable,
                 places: Tuple[multiplicity.Place, ...]):
        set_field(self, "psi", psi)
        set_field(self, "tag", tag)
        set_field(self, "table", table)
        set_field(self, "places", places)


def elaborate(doc: ParameterDocument) -> Semantics:
    """Check a parsed document and build its library objects; every
    rejection, the library's `ValueError`s included, is a `SemanticError`.
    The result depends only on the document and is memoized on it for the
    life of the process, so every request for one document shares one
    `Semantics`; rejections are not stored."""
    try:
        return _elaborate(doc)
    except ValueError as exc:
        raise SemanticError(str(exc)) from None


@functools.lru_cache(maxsize=None)
def _elaborate(doc: ParameterDocument) -> Semantics:
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
    return Semantics(psi, tag, table, tuple(places.values()))


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


# The v1 layout of a classify report and of its two sets of chain flags.
_CLASSIFY = ('{\n  "N": %d,\n  "command": "classify",\n  "factors_through": %s,\n'
             '  "group": %s,\n  "parity": %d,\n  "twisted": %s\n}\n')
_FLAGS = ('{\n    "disc": %s,\n    "ell": %s,\n    "generic": %s,\n    "s_disc": %s,\n'
          '    "sim": %s,\n    "two": %s\n  }')


def _flags(flags) -> str:
    return _FLAGS % (_json_bool(flags.in_disc), _json_bool(flags.in_ell),
                     _json_bool(flags.is_generic), _json_bool(flags.in_s_disc),
                     _json_bool(flags.in_sim), _json_bool(flags.in_2))


def report_classify(sem: Semantics) -> Tuple[str]:
    return (_CLASSIFY % (sem.tag.N, _json_bool(factors_through(sem.psi, sem.tag)),
                         _flags(classify(sem.psi, sem.tag)), sem.tag.parity,
                         _flags(classify(sem.psi))),)


# centralizer, arthur, epsilon and multiplicity refuse a parameter with more
# constituents than this, counted with multiplicity, before computing anything
# from it: the orders they print grow like the factorial of that count, and
# epsilon's root-number pairs like its square.  It is the one bound on a
# parameter's size: a constituent of multiplicity l gives a factor O(l), Sp(l)
# or GL(l), and an sd=none one counts twice, so no factor is larger than
# O(256), Sp(256) or GL(128), of rank 128.
PARAMETER_MAX_SIZE = 256


def _require_factoring(sem: Semantics):
    """Refuse a parameter over the size budget or not of the datum."""
    if sum(l for _, l in sem.psi.constituents) > PARAMETER_MAX_SIZE:
        raise SemanticError("parameter is over the size budget of %d constituents counted "
                            "with multiplicity" % PARAMETER_MAX_SIZE)
    if not factors_through(sem.psi, sem.tag):
        raise SemanticError("parameter does not factor through the declared datum")


# The v1 layout of a centralizer report and of one (label, multiplicity) pair.
_CENTRALIZER = ('{\n  "command": "centralizer",\n  "component_group_order": %d,\n'
                '  "diagram": {\n    "n": %d,\n    "r": %d,\n    "s": %d,\n    "s1": %d,\n'
                '    "w": %d,\n    "w0": %d\n  },\n  "general_linear": %s,\n'
                '  "orthogonal": %s,\n  "symplectic": %s\n}\n')
_PAIR = '[\n      %s,\n      %d\n    ]'


def report_centralizer(sem: Semantics) -> Tuple[str]:
    _require_factoring(sem)
    shape = central.centralizer_shape(sem.psi, sem.tag)
    diagram = central.levi_diagram(shape)
    factors = [_json_list([_PAIR % (encode_basestring_ascii(sp.label), l) for sp, l in part], 1)
               for part in (shape.general_linear, shape.orthogonal, shape.symplectic)]
    return (_CENTRALIZER % (diagram.s_order, diagram.n_order, diagram.r_order, diagram.s_order,
                            diagram.s1_order, diagram.w_order, diagram.w0_order, *factors),)


# arthur writes one row per element of the component group; a larger group
# is refused before any row is computed.
ARTHUR_MAX_ROWS = 2 ** 16

# The v1 layout of an arthur report up to its rows, of a row up to its signs
# and after them, and of the report's end: the bytes of
# `json.dumps(report, sort_keys=True, indent=2)` with rationals as
# {"num", "den"} objects, plus a newline.
_ARTHUR = ('{\n  "command": "arthur",\n  "components": [', ',\n    {\n      "component": [',
           '],\n      "e": {\n        "den": %d,\n        "num": %d\n      },\n'
           '      "i": {\n        "den": %d,\n        "num": %d\n      }\n    }',
           '\n  ],\n  "sigma_bar0": {\n    "den": %d,\n    "num": %d\n  }\n}\n')


def report_arthur(sem: Semantics) -> Iterator[str]:
    """The report's JSON text in pieces, rows in `group.elements()` order; all
    that can fail runs first.  A row's i and e depend only on how many
    orthogonal factors of each size it twists, its class, so each class's
    values and text are made once.  A piece is one row of signs of the first
    half of the orthogonal factors, joined with every row of the second."""
    _require_factoring(sem)
    shape = central.centralizer_shape(sem.psi, sem.tag)
    group = central.component_group(shape)
    if group.order > ARTHUR_MAX_ROWS:
        raise SemanticError("arthur has %d component rows, over the size budget of %d rows"
                            % (group.order, ARTHUR_MAX_ROWS))
    base = multiplicity.identity_component_shape(shape)
    orthogonal, rest = base.factors[:len(shape.orthogonal)], base.factors[len(shape.orthogonal):]
    sizes, pivot = [f.size for f in orthogonal], group.pivot

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
    sigma_bar0 = sigma(base)
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
    items = [_json_list(list(map(encode_basestring_ascii, pair)), 2) for pair in pairs]
    return _json_list(items, 1)


def report_epsilon(sem: Semantics) -> Tuple[str]:
    _require_factoring(sem)
    char = signs.epsilon_character(sem.psi, sem.tag, sem.table)
    return (_EPSILON % (_defaulted_pairs(char.defaulted),
                        _json_list(["%d" % x for x in char.exponents], 1),
                        _json_bool(signs.is_epsilon_parameter(sem.psi)),
                        _json_list(list(map(encode_basestring_ascii, char.labels)), 1),
                        _json_bool(char.is_trivial), char.value_at_s_psi),)


def report_multiplicity(sem: Semantics) -> Tuple[str]:
    _require_factoring(sem)
    coeff, counts, defaulted = multiplicity._coefficient_and_counts(
        sem.psi, sem.tag, sem.table, sem.places)
    packet = "" if counts is None else _PACKET % counts
    return (_MULTIPLICITY % (_defaulted_pairs(defaulted), packet, coeff.denominator,
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
    texts.append(_TADIC_HEAD % (encode_basestring_ascii(field), k, n, tempered)
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
    this returns except those of `arthur` and `tadic`, which are rendered as
    they are written.  A library `ValueError`, such as from --n or --k, is a
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
    reads it.  Each error is the `OSError` that `open(path, "rb")` raises,
    a directory's included, or one for a NUL byte in the path, which `open`
    refuses with a `ValueError`."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except ValueError as exc:  # embedded null byte
        raise OSError(str(exc)) from None
    try:
        if stat.S_ISDIR(os.fstat(fd).st_mode):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
        chunks = []
        while chunk := os.read(fd, 1 << 16):
            chunks.append(chunk)
    finally:
        os.close(fd)
    text = b"".join(chunks).decode("utf-8")
    return text.replace("\r\n", "\n").replace("\r", "\n")


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
        print("parse error: %s" % exc, file=sys.stderr)
        return 1
    except UnicodeDecodeError as exc:
        print("parse error: input is not UTF-8 text: %s" % exc, file=sys.stderr)
        return 1
    except OSError as exc:
        print("cannot read input: %s" % exc, file=sys.stderr)
        return 2

    try:
        if args.command == "print":
            if doc is None:
                raise SemanticError("print needs an input document")
            sys.stdout.write(print_document(doc))
            return 0
        report = run(args.command, doc, args)
    except SemanticError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except InternalInvariantError as exc:
        print("invariant failure: %s" % exc, file=sys.stderr)
        return 3
    sys.stdout.writelines(report)
    return 0


if __name__ == "__main__":
    # `checks` imports this module by name; hand it this copy, not a second one
    sys.modules.setdefault("uendo.cli", sys.modules[__name__])
    sys.exit(main())
