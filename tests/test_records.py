"""The library's immutable records: construction, equality, hashing, repr
and refusal of assignment, for each of the eight record classes."""

import copy
import pickle

import pytest

from freecomm import (
    Basis,
    BSElement,
    Check,
    CoreGraph,
    NoExtension,
    PartialIso,
    ScenarioReport,
    Subgroup,
    Word,
    kernel_mod_p,
    report_to_document,
)
from freecomm.scenarios import _plain
from freecomm.stallings import _graph

LOOP = ((0, 1, 0),)
WHOLE = Subgroup(CoreGraph(1, LOOP))
A = Word((1,))

# class, positional fields, the same fields by keyword, one field changed, repr
RECORDS = [
    (CoreGraph, (1, LOOP), {"rank": 1, "edges": LOOP}, (2, LOOP), "CoreGraph(rank=1, edges=((0, 1, 0),))"),
    (Basis, ((A,),), {"elements": (A,)}, ((A, A),), "Basis(elements=(Word('a'),))"),
    (
        Subgroup,
        (CoreGraph(1, LOOP),),
        {"graph": CoreGraph(1, LOOP)},
        (CoreGraph(2, LOOP),),
        "Subgroup(graph=CoreGraph(rank=1, edges=((0, 1, 0),)))",
    ),
    (
        PartialIso,
        (WHOLE, WHOLE, (A,)),
        {"domain": WHOLE, "codomain": WHOLE, "images": (A,)},
        (WHOLE, WHOLE, (A.inverse(),)),
        "PartialIso(domain=Subgroup(graph=CoreGraph(rank=1, edges=((0, 1, 0),))), "
        "codomain=Subgroup(graph=CoreGraph(rank=1, edges=((0, 1, 0),))), images=(Word('a'),))",
    ),
    (
        NoExtension,
        ("root", 1, 2, A),
        {"reason": "root", "generator": 1, "exponent": 2, "word": A},
        ("root", 1, 3, A),
        "NoExtension(reason='root', generator=1, exponent=2, word=Word('a'))",
    ),
    (Check, ("n", 1, 1), {"name": "n", "expected": 1, "actual": 1}, ("n", 1, 2), "Check(name='n', expected=1, actual=1)"),
    (
        ScenarioReport,
        ("s", {"p": 3}, {}, ()),
        {"scenario": "s", "parameters": {"p": 3}, "objects": {}, "checks": ()},
        ("s", {"p": 5}, {}, ()),
        "ScenarioReport(scenario='s', parameters={'p': 3}, objects={}, checks=())",
    ),
    (
        BSElement,
        (1, 1, 0, 2),
        {"num": 1, "denom_exp": 1, "texp": 0, "k": 2},
        (3, 1, 0, 2),
        "BSElement(num=1, denom_exp=1, texp=0, k=2)",
    ),
]


@pytest.mark.parametrize("cls, args, kwargs, changed, text", RECORDS, ids=[r[0].__name__ for r in RECORDS])
def test_record_semantics(cls, args, kwargs, changed, text):
    a, b = cls(*args), cls(**kwargs)
    assert a == b and not a != b
    assert a != cls(*changed)
    assert repr(a) == repr(b) == text
    # fields in order, each readable by name
    assert tuple(getattr(a, name) for name in kwargs) == args
    # equality holds only within one class, never against the fields as a tuple
    assert a != args and args != a
    assert a.__eq__(args) is NotImplemented
    if cls is ScenarioReport:
        with pytest.raises(TypeError):  # its dict fields are unhashable
            hash(a)
    else:
        assert hash(a) == hash(b)
        assert len({a, b, cls(*changed)}) == 2
    for name in kwargs:
        with pytest.raises(AttributeError):
            setattr(a, name, None)
        with pytest.raises(AttributeError):
            delattr(a, name)
    with pytest.raises(AttributeError):
        a.extra = 1
    assert a == b == copy.deepcopy(a) == pickle.loads(pickle.dumps(a))


def test_records_of_two_classes_never_compare_equal():
    assert Basis((A,)) != Subgroup(CoreGraph(1, LOOP))
    assert Check("n", 1, 1) != NoExtension("n", 1, 1)
    with pytest.raises(TypeError):
        CoreGraph(1)
    with pytest.raises(TypeError):
        Check("n", 1, 1, 1)


def test_no_extension_defaults():
    cert = NoExtension("not a root")
    assert (cert.reason, cert.generator, cert.exponent, cert.word) == ("not a root", None, None, None)
    assert cert == NoExtension(reason="not a root", generator=None, exponent=None, word=None)
    assert NoExtension("r", exponent=4) == NoExtension("r", None, 4, None)


@pytest.mark.parametrize(
    "fields, message",
    [
        ((1, 0, 0, 1), "|k| must be at least 2"),
        ((1, -1, 0, 2), "denominator exponent must be non-negative"),
        ((2, 1, 0, 2), "numerator divisible by k"),
        ((0, 1, 0, 2), "numerator divisible by k"),  # zero with a denominator
    ],
)
def test_bs_element_validates_in_its_constructor(fields, message):
    with pytest.raises(ValueError, match=message.replace("|", r"\|")):
        BSElement(*fields)
    with pytest.raises(ValueError, match=message.replace("|", r"\|")):
        BSElement(**dict(zip(("num", "denom_exp", "texp", "k"), fields)))


def test_cached_properties_fill_the_instance():
    g = CoreGraph(1, LOOP)
    assert g.adj is g.adj == ({1: 0, -1: 0},)
    h = kernel_mod_p(2, (1, 0), 3)
    assert h.basis is h.basis
    assert h._tree is h._tree
    assert h == Subgroup(CoreGraph(h.graph.rank, h.graph.edges))  # caches take no part in equality
    built = _graph(1, [{1: 0, -1: 0}])
    assert built == g and built.__dict__["adj"] == g.adj


def test_report_records_are_not_serialised_as_tuples():
    check = Check("n", (1, 2), A)
    assert _plain(check) is check
    report = ScenarioReport("s", {"w": A}, {"pair": (A, A)}, (check,))
    assert report_to_document(report) == {
        "scenario": "s",
        "parameters": {"w": "a"},
        "objects": {"pair": ["a", "a"]},
        "checks": [{"name": "n", "expected": [1, 2], "actual": "a", "pass": False}],
        "ok": False,
    }
    assert _plain(BSElement(1, 1, 0, 2)) == {"num": 1, "denom_exp": 1, "texp": 0, "k": 2}
