"""The contract of the six small value classes.

Each class is built by position and by keyword, compares by value only
against its own class, hashes by value when frozen and refuses hashing
otherwise, refuses assignment and deletion of a frozen field, prints its
pinned repr, and survives pickle at every protocol, copy and deepcopy, as
do the words the records hold.  A subprocess also checks that importing
the package loads no code-generating module.
"""

import copy
import pickle
import subprocess
import sys

import pytest

from freegroups.automorphisms import MultiplierAut, PermutationAut
from freegroups.primitivity import MinimizationTrace, whitehead_minimize
from freegroups.verify import VerificationReport, WijFamily, build_w, wij_family
from freegroups.whitehead_graph import CutVertexVerdict
from freegroups.words import CyclicWord, Word, parse_word

MEMBERS = frozenset({1, -2})
W = build_w(2)
TABLE = wij_family(2).table
ABABA = whitehead_minimize(parse_word("ababa", 2), 2)

# (class, positional args, keyword args, pinned repr)
CASES = [
    (PermutationAut, ((2, -1),), {"images": (2, -1)}, "PermutationAut(e2, e1^-1)"),
    (
        MultiplierAut,
        (1, MEMBERS),
        {"multiplier": 1, "members": MEMBERS},
        "MultiplierAut(e1; {e1, e2^-1})",
    ),
    (
        CutVertexVerdict,
        (True, -2, True),
        {"connected": True, "cut_vertex": -2, "separable": True},
        "CutVertexVerdict(connected=True, cut_vertex=-2, separable=True)",
    ),
    (
        MinimizationTrace,
        (Word([1, 2]), [(MultiplierAut(1, MEMBERS), 1)], CyclicWord([2])),
        {
            "start": Word([1, 2]),
            "steps": [(MultiplierAut(1, MEMBERS), 1)],
            "final": CyclicWord([2]),
        },
        "MinimizationTrace(start=Word('ab'), "
        "steps=[(MultiplierAut(e1; {e1, e2^-1}), 1)], final=CyclicWord('b'))",
    ),
    (
        VerificationReport,
        ("x", {"n": 1}, "pass", [], {"words": 2}),
        {
            "claim_id": "x",
            "parameters": {"n": 1},
            "status": "pass",
            "counterexamples": [],
            "stats": {"words": 2},
        },
        "VerificationReport(claim_id='x', parameters={'n': 1}, status='pass', "
        "counterexamples=[], stats={'words': 2})",
    ),
    (
        WijFamily,
        (2, W, TABLE),
        {"rank": 2, "w": W, "table": TABLE},
        "WijFamily(rank=2, w=Word('a^2b^2aBa'), table={"
        "(1, 1): Word('a^3b^2aBa^2'), (1, 2): Word('a^3b^2aBab'), "
        "(2, 1): Word('ba^2b^2aBa^2'), (2, 2): Word('ba^2b^2aBab')})",
    ),
]
IDS = [case[0].__name__ for case in CASES]
FROZEN = {PermutationAut, MultiplierAut, CutVertexVerdict, WijFamily}
FIELDS = {
    PermutationAut: ("images",),
    MultiplierAut: ("multiplier", "members"),
    CutVertexVerdict: ("connected", "cut_vertex", "separable"),
    MinimizationTrace: ("start", "steps", "final"),
    VerificationReport: ("claim_id", "parameters", "status", "counterexamples", "stats"),
    WijFamily: ("rank", "w", "table"),
}


@pytest.mark.parametrize("cls, args, kwargs, text", CASES, ids=IDS)
def test_positional_and_keyword_construction_agree(cls, args, kwargs, text):
    a, b = cls(*args), cls(**kwargs)
    assert a == b and not a != b
    for name, value in zip(FIELDS[cls], args):
        assert getattr(a, name) == value == getattr(b, name)
    assert repr(a) == repr(b) == text


@pytest.mark.parametrize("cls, args, kwargs, text", CASES, ids=IDS)
def test_equality_is_by_value_within_one_class(cls, args, kwargs, text):
    a = cls(*args)
    assert a == cls(*copy.deepcopy(args))
    assert a != object() and a != args

    class Other:
        pass

    other = Other()
    for name, value in zip(FIELDS[cls], args):
        setattr(other, name, value)
    assert a != other and other != a


def test_equality_sees_every_field():
    assert MultiplierAut(1, MEMBERS) != MultiplierAut(-1, MEMBERS)
    assert MultiplierAut(1, MEMBERS) != MultiplierAut(1, frozenset({1}))
    assert PermutationAut((2, -1)) != PermutationAut((-2, 1))
    base = (True, None, False)
    for i, value in enumerate((False, 1, True)):
        changed = list(base)
        changed[i] = value
        assert CutVertexVerdict(*base) != CutVertexVerdict(*changed)
    assert MinimizationTrace(Word([1])) != MinimizationTrace(Word([1]), final=CyclicWord([1]))
    report = VerificationReport("x", {}, "pass", [], {})
    assert report != VerificationReport("x", {}, "fail", [], {})
    assert WijFamily(2, W, TABLE) != WijFamily(2, Word([1]), TABLE)


def test_equality_across_classes_with_equal_fields():
    # the same field values under two class names never compare equal
    assert MultiplierAut(1, MEMBERS) != (1, MEMBERS)
    assert PermutationAut((1, 2)) != (1, 2) and PermutationAut((1, 2)) != ((1, 2),)
    assert CutVertexVerdict(True, None, False) != (True, None, False)


def test_frozen_classes_hash_by_value():
    assert hash(PermutationAut((2, -1))) == hash(PermutationAut((2, -1)))
    assert hash(MultiplierAut(1, MEMBERS)) == hash(MultiplierAut(1, frozenset({-2, 1})))
    assert hash(CutVertexVerdict(True, None, False)) == hash(CutVertexVerdict(True, None, False))
    assert len({MultiplierAut(1, MEMBERS), MultiplierAut(1, frozenset(MEMBERS))}) == 1
    # a family hashes by rank and w, and keeps its table read-only
    assert hash(WijFamily(2, W, TABLE)) == hash(wij_family(2))


@pytest.mark.parametrize(
    "cls", [MinimizationTrace, VerificationReport], ids=lambda c: c.__name__
)
def test_mutable_classes_are_unhashable(cls):
    case = next(c for c in CASES if c[0] is cls)
    with pytest.raises(TypeError):
        hash(cls(*case[1]))


@pytest.mark.parametrize("cls, args, kwargs, text", CASES, ids=IDS)
def test_frozen_fields_refuse_assignment_and_deletion(cls, args, kwargs, text):
    obj = cls(*args)
    name = FIELDS[cls][0]
    if cls in FROZEN:
        with pytest.raises(AttributeError):
            setattr(obj, name, args[0])
        with pytest.raises(AttributeError):
            delattr(obj, name)
        assert getattr(obj, name) == args[0] and obj == cls(*args)
    else:
        setattr(obj, name, None)
        assert getattr(obj, name) is None and obj != cls(*args)


@pytest.mark.parametrize("cls, args, kwargs, text", CASES, ids=IDS)
def test_pickle_and_copy_round_trips(cls, args, kwargs, text):
    obj = cls(*args)
    for proto in range(0, pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(obj, proto))
        assert type(back) is cls and back == obj and repr(back) == text
    assert copy.copy(obj) == obj and repr(copy.copy(obj)) == text
    deep = copy.deepcopy(obj)
    assert deep == obj and repr(deep) == text


def test_trace_round_trips_keep_its_steps():
    assert len(ABABA.steps) == 3
    for back in (pickle.loads(pickle.dumps(ABABA)), copy.deepcopy(ABABA)):
        assert back == ABABA and back.steps is not ABABA.steps
        assert [type(aut) for aut, _ in back.steps] == [MultiplierAut] * 3
        assert back.to_json_dict() == ABABA.to_json_dict()
    shallow = copy.copy(ABABA)
    assert shallow == ABABA and shallow.steps is ABABA.steps


def test_trace_defaults():
    a, b = MinimizationTrace(Word([1])), MinimizationTrace(Word([1]))
    assert a.steps == [] and a.final is None
    a.steps.append((MultiplierAut(1, MEMBERS), 0))
    assert b.steps == []  # each trace starts with a list of its own


def test_wij_family_checks_its_table():
    with pytest.raises(ValueError, match="need 4 translates for rank 2, got 1"):
        WijFamily(2, W, {(1, 1): W})
    with pytest.raises(ValueError):
        WijFamily(rank=3, w=W, table=TABLE)


def test_import_loads_no_code_generation():
    script = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import freegroups, freegroups.cli\n"
        "print(' '.join(sorted(set(sys.modules) - before)))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    ).stdout.split()
    assert "freegroups.cli" in out
    assert "dataclasses" not in out and "inspect" not in out


@pytest.mark.parametrize("obj", [Word(), Word([1, -2, 3]), CyclicWord([2, 1, 1])], ids=repr)
def test_words_pickle_and_copy_at_every_protocol(obj):
    for proto in range(0, pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(obj, proto))
        assert type(back) is type(obj) and back == obj and repr(back) == repr(obj)
    assert copy.copy(obj) == obj and copy.deepcopy(obj) == obj


def test_wij_family_table_is_read_only():
    source = dict(TABLE)
    fam = WijFamily(2, W, source)
    source.clear()  # the family holds a copy of its own
    assert fam.table[1, 2] == TABLE[1, 2] and fam.table == TABLE
    assert sorted(fam.table) == [(1, 1), (1, 2), (2, 1), (2, 2)]
    assert list(fam.table.values()) == list(TABLE.values())
    changes = [
        lambda t: t.__setitem__((1, 1), W),
        lambda t: t.__delitem__((1, 1)),
        lambda t: t.clear(),
        lambda t: t.pop((1, 1)),
        lambda t: t.popitem(),
        lambda t: t.setdefault((3, 3), W),
        lambda t: t.update({(3, 3): W}),
    ]
    for change in changes:
        with pytest.raises(TypeError, match="read-only"):
            change(fam.table)
    with pytest.raises(TypeError, match="read-only"):
        fam.table |= {}
    assert fam == wij_family(2) and hash(fam) == hash(wij_family(2))
    for back in (pickle.loads(pickle.dumps(fam.table, 0)), copy.deepcopy(fam.table)):
        assert back == TABLE and type(back) is type(fam.table)
