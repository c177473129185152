"""The contract of the frozen value classes (`uendo.values.Value`): the
repr, equality and hash of a frozen record, refusal of assignment and
deletion, keyword construction with defaults, copying and pickling, and the
validation each class does when it is built."""

import copy
import inspect
import pickle
from fractions import Fraction

import pytest

import uendo.checks  # noqa: F401  (so that every value class is defined)
from uendo.centralizer import CentralizerShape, FiniteTwoGroup, LeviDiagram, NormalizerElement
from uendo.cli import Decl, ParameterDocument, Semantics, Term
from uendo.endoscopy import Correspondence, StandardDatum, TwistedDatum
from uendo.localcalc import (
    ArchCharacter,
    ArchParameter,
    MonomialLocalParameter,
    UnramifiedCharacter,
)
from uendo.multiplicity import PacketMember, Place, SpectrumLine
from uendo.params import (
    NOT_SELF_DUAL,
    ORTHOGONAL,
    ChainMembership,
    GlobalParameter,
    SimpleDatumTag,
    SimpleParameter,
)
from uendo.signs import RelativeSigns, SignCharacter
from uendo.tadic import NONARCH, IsobaricTerm, StandardSymbol
from uendo.values import Value
from uendo.weylnum import (
    GL,
    SO,
    SP,
    ComponentDatum,
    ConnectedShape,
    Factor,
    _EllClass,
    so,
    sp,
)

A = SimpleParameter("a", 1, ORTHOGONAL)
PSI = GlobalParameter([(A, 2)])
ELEMENT = NormalizerElement((((0,), (-1,)),), (-1,))
SYMBOL = StandardSymbol("r", 2, Fraction(1, 2), NONARCH)

# One instance of every value class, as keyword arguments in field order.
SAMPLES = {
    SimpleParameter: dict(label="c", deg_mu=2, duality=NOT_SELF_DUAL, su2_dim=3, partner="c*"),
    SimpleDatumTag: dict(N=3, kappa=-1),
    ChainMembership: dict(in_sim=False, in_2=True, in_ell=True, in_s_disc=True, in_disc=True,
                          is_generic=False),
    Factor: dict(kind=SO, size=4),
    ConnectedShape: dict(factors=(so(4), sp(2)), central_quotient=(-1, -1)),
    ComponentDatum: dict(base=ConnectedShape((so(3), sp(2))), coset=(True, False)),
    _EllClass: dict(descriptor=("so", 3, 0), cent_factors=(so(3),), pi0=1),
    CentralizerShape: dict(orthogonal=((A, 2),), symplectic=(), general_linear=()),
    FiniteTwoGroup: dict(labels=("a", "b"), sigma_bar=(-1, 1)),
    NormalizerElement: dict(blocks=ELEMENT.blocks, odd_bits=(-1,)),
    LeviDiagram: dict(w0_order=2, w_order=2, n_order=2, s_order=1, s1_order=1,
                      r_labels=("a",)),
    SignCharacter: dict(labels=("a",), exponents=(1,), value_at_s_psi=-1,
                        defaulted=(("a", "b"),)),
    RelativeSigns: dict(blocks=(("O", 1), ("GL", 2)), n_odd=2, eps1_bits=3, eps1_blocks=1,
                        gm_bits=2, gm_blocks=1, beta_blocks=3),
    Place: dict(name="v", kind="inert", refinement=None),
    PacketMember: dict(local_characters=(("v", (1, -1)),)),
    SpectrumLine: dict(psi=PSI, members_selected=1, members_total=2),
    StandardDatum: dict(split=(2, 1), out_order=1, iota=Fraction(1, 2)),
    TwistedDatum: dict(split=(3, 0), signature=(1, 1), is_simple=True,
                       iota_twisted=Fraction(1, 2), parity=1),
    Correspondence: dict(datum=StandardDatum((2, 0), 1, Fraction(1)), psi_plus=PSI,
                         psi_minus=None, orbit=1),
    StandardSymbol: dict(base="r", k=2, lam=Fraction(1, 2), field_case=NONARCH),
    IsobaricTerm: dict(symbols=(SYMBOL,)),
    ArchCharacter: dict(a=Fraction(1, 2)),
    UnramifiedCharacter: dict(q=Fraction(1, 3)),
    ArchParameter: dict(exponents=(Fraction(1, 2), Fraction(-1, 2)), shift=Fraction(1)),
    MonomialLocalParameter: dict(characters=(ArchCharacter(0), ArchCharacter(1))),
    Decl: dict(label="a", deg=1, sd="+"),
    Term: dict(mult=2, label="a", nu=1),
    ParameterDocument: dict(N=2, parity=1, decls=(Decl("a", 1, "+"),), terms=(Term(2, "a", 1),),
                            roots=(("a", "b", -1),), places=(("v", "inert"),)),
    # a RootNumberTable compares by identity, so a plain value stands in
    # for the table in the copying checks
    Semantics: dict(psi=PSI, tag=SimpleDatumTag(2, -1), table=(), places=(Place("v", "split"),)),
}

CLASSES = sorted(SAMPLES, key=lambda cls: cls.__qualname__)


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def _build(cls):
    return cls(**SAMPLES[cls])


def test_every_value_class_has_a_sample():
    found = {c for c in _subclasses(Value) if c.__module__.startswith("uendo.")}
    assert found == set(SAMPLES)
    assert len(found) == 29


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__qualname__)
def test_fields_follow_the_signature(cls):
    params = list(inspect.signature(cls.__init__).parameters)[1:]
    assert list(cls._fields) == params == list(SAMPLES[cls])


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__qualname__)
def test_repr_names_every_field(cls):
    obj = _build(cls)
    body = ", ".join("%s=%r" % (name, getattr(obj, name)) for name in SAMPLES[cls])
    assert repr(obj) == "%s(%s)" % (cls.__qualname__, body)


def test_normalizer_element_repr_is_pinned():
    # perfbench digests this repr for the relative-sign results
    assert repr(ELEMENT) == "NormalizerElement(blocks=(((0,), (-1,)),), odd_bits=(-1,))"
    assert repr(Factor(GL, 3)) == "Factor(kind='GL', size=3)"


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__qualname__)
def test_equality_is_by_class_and_fields(cls):
    obj, same = _build(cls), _build(cls)
    assert obj == same and not obj != same
    twin_class = type("Twin", (Value,), {"__slots__": cls.__slots__, "__init__": cls.__init__})
    twin = twin_class(**SAMPLES[cls])
    assert obj != twin and twin != obj
    assert obj != tuple(getattr(obj, name) for name in cls._fields)


def test_equality_compares_every_field():
    assert Decl("a", 1, "+") != Decl("a", 1, "-")
    assert NormalizerElement(ELEMENT.blocks, (1,)) != ELEMENT
    assert StandardSymbol("r", 2, Fraction(1, 2), "archimedean") != SYMBOL
    assert hash(StandardSymbol("r", 2, Fraction(1, 2), "archimedean")) == hash(SYMBOL)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__qualname__)
def test_hash_is_the_hash_of_the_fields(cls):
    obj = _build(cls)
    values = tuple(getattr(obj, name) for name in cls._fields)
    if cls is StandardSymbol:
        values = (obj.k, obj.lam)  # its cached hash reads k and lam only
    try:
        want = hash(values)
    except TypeError:
        with pytest.raises(TypeError):
            hash(obj)
        return
    assert hash(obj) == want == hash(_build(cls))


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__qualname__)
def test_assignment_and_deletion_are_refused(cls):
    obj = _build(cls)
    before = repr(obj)
    for name in cls._fields + ("extra",):
        with pytest.raises(AttributeError):
            setattr(obj, name, 0)
        with pytest.raises(AttributeError):
            delattr(obj, name)
    assert repr(obj) == before


def test_keyword_construction_and_defaults():
    assert SimpleParameter(label="a", deg_mu=1, duality=ORTHOGONAL) == SimpleParameter(
        "a", 1, ORTHOGONAL, 1, None)
    assert ConnectedShape(factors=(sp(2),)).central_quotient is None
    assert TwistedDatum((2, 1), (1, 1), False, Fraction(1, 4)).parity is None
    assert Place("v", "split").refinement is None
    assert ArchParameter((Fraction(1, 2),)).shift == 0
    assert Decl(sd="-", deg=2, label="b") == Decl("b", 2, "-")


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__qualname__)
def test_copy_deepcopy_and_pickle_round_trip(cls):
    obj = _build(cls)
    for clone in (copy.copy(obj), copy.deepcopy(obj), pickle.loads(pickle.dumps(obj))):
        assert type(clone) is cls
        assert clone == obj
        assert repr(clone) == repr(obj)


def test_standard_symbol_copies_keep_the_hash():
    for clone in (copy.copy(SYMBOL), copy.deepcopy(SYMBOL), pickle.loads(pickle.dumps(SYMBOL))):
        assert hash(clone) == hash(SYMBOL) == hash((2, Fraction(1, 2)))
        assert {clone: 1}[SYMBOL] == 1
    assert "_hash" not in repr(SYMBOL)


def test_global_parameter_is_frozen():
    psi = GlobalParameter([(A, 2)])
    for name, value in (("constituents", ()), ("total_degree", 3), ("_hash", 0), ("other", 1)):
        with pytest.raises(AttributeError):
            setattr(psi, name, value)
    for name in ("constituents", "_by_label"):
        with pytest.raises(AttributeError):
            delattr(psi, name)
    assert psi == PSI and hash(psi) == hash(PSI.constituents)
    assert repr(psi) == "GlobalParameter<2*a(x)nu(1)>"


def test_global_parameter_copies_keep_the_hash():
    b = SimpleParameter("b", 1, NOT_SELF_DUAL, 2, partner="c")
    c = SimpleParameter("c", 1, NOT_SELF_DUAL, 2, partner="b")
    psi = GlobalParameter([(A, 3), (b, 1), (c, 1)])
    for clone in (copy.copy(psi), copy.deepcopy(psi), pickle.loads(pickle.dumps(psi))):
        assert type(clone) is GlobalParameter and clone is not psi
        assert clone == psi and repr(clone) == repr(psi)
        assert hash(clone) == hash(psi) == hash(psi.constituents)
        assert {clone: 1}[psi] == 1
        assert clone.total_degree == psi.total_degree == 7
        assert clone.constituent("b") == (b, 1)


def test_parameter_document_hashes_its_fields_once(monkeypatch):
    doc, same = _build(ParameterDocument), _build(ParameterDocument)
    fields = tuple(getattr(doc, name) for name in ParameterDocument._fields)
    assert hash(doc) == hash(same) == hash(fields) and doc == same
    # the cached hash is not part of the state: copying and pickling pass
    # the fields to `__init__`, which hashes them afresh
    assert doc.__reduce__() == (ParameterDocument, fields)
    for clone in (copy.copy(doc), copy.deepcopy(doc), pickle.loads(pickle.dumps(doc))):
        assert clone is not doc and clone == doc and hash(clone) == hash(doc)
        assert {clone: 1}[doc] == 1
    assert "_hash" not in repr(doc)
    hashed = []
    monkeypatch.setattr(Decl, "__hash__", lambda self: hashed.append(self) or 0)
    for _ in range(3):
        hash(doc)
    assert hashed == []  # the elaboration memo's lookups rehash no field
    hash(copy.copy(doc))
    assert hashed == [Decl("a", 1, "+")]


@pytest.mark.parametrize("build, message", [
    (lambda: SimpleParameter("a", 0, ORTHOGONAL), "degrees must be positive"),
    (lambda: SimpleParameter("a", 1, ORTHOGONAL, 0), "degrees must be positive"),
    (lambda: SimpleParameter("a", 1, "odd"), "unknown duality 'odd'"),
    (lambda: SimpleParameter("a", 1, ORTHOGONAL, partner="b"),
     "partner must be given iff mu is not self-dual"),
    (lambda: SimpleParameter("a", 1, NOT_SELF_DUAL),
     "partner must be given iff mu is not self-dual"),
    (lambda: SimpleParameter("a", 1, NOT_SELF_DUAL, partner="a"),
     "partnering must be fixed-point free"),
    (lambda: SimpleDatumTag(0, 1), "N must be positive"),
    (lambda: SimpleDatumTag(2, 0), "kappa must be +1 or -1"),
    (lambda: Factor("E8", 8), "unsupported factor type 'E8'"),
    (lambda: Factor(GL, 0), "GL factor needs size >= 1"),
    (lambda: Factor(SP, 3), "Sp factor needs positive even size"),
    (lambda: Factor(SO, 0), "SO factor needs size >= 1"),
    (lambda: ConnectedShape((so(4),), (-1, -1)), "central element needs one sign per factor"),
    (lambda: ConnectedShape((so(4),), (2,)), "central element entries must be +-1"),
    (lambda: ConnectedShape((so(4),), (1,)), "central quotient by the identity; use None"),
    (lambda: ConnectedShape((so(3),), (-1,)),
     "-1 is not central in Factor(kind='SO', size=3)"),
    (lambda: ComponentDatum(ConnectedShape((so(3),)), ()), "one coset flag per factor required"),
    (lambda: ComponentDatum(ConnectedShape((sp(2),)), (True,)), "Sp factors have no outer coset"),
    (lambda: Place("v", "ramified"), "place kind must be inert or split"),
    (lambda: StandardDatum((1, 2), 1, Fraction(1)), "split must satisfy N1 >= N2 >= 0, N >= 1"),
    (lambda: StandardSymbol("r", 1, Fraction(0), "p-adic"),
     "field case must be archimedean or nonarchimedean"),
    (lambda: ArchCharacter(Fraction(1, 3)), "exponent must be half-integral"),
    (lambda: ArchParameter((Fraction(1, 3),)), "exponent must be half-integral"),
    (lambda: ArchParameter((Fraction(1, 2),), Fraction(1, 4)), "exponent must be half-integral"),
    (lambda: MonomialLocalParameter((ArchCharacter(0), UnramifiedCharacter(0))),
     "monomial search needs characters of one kind"),
    (lambda: MonomialLocalParameter((ArchCharacter(1), ArchCharacter(1))),
     "monomial search needs multiplicity-free characters"),
])
def test_validation_messages(build, message):
    with pytest.raises(ValueError) as info:
        build()
    assert str(info.value) == message


def test_normalizing_fields():
    assert ArchCharacter(1).a == Fraction(1) and type(ArchCharacter(1).a) is Fraction
    assert UnramifiedCharacter(Fraction(-1, 3)).q == Fraction(2, 3)
    assert ArchParameter([1, Fraction(1, 2)]).exponents == (Fraction(1), Fraction(1, 2))
