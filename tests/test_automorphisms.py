"""Whitehead automorphism tests.

Inverse descriptors are checked on every generator letter, which pins the
composed map as the identity homomorphism on the whole group; random words
then spot-check the same fact end to end.
"""

import random

import pytest

from freegroups.automorphisms import (
    MultiplierAut,
    PermutationAut,
    apply_aut,
    enumerate_kind1,
    enumerate_kind2,
    kind2_count,
)
from freegroups.words import Word, parse_word


def random_reduced(rng, rank, length):
    out = []
    while len(out) < length:
        x = rng.choice([1, -1]) * rng.randint(1, rank)
        if out and out[-1] == -x:
            continue
        out.append(x)
    return Word(out)


def random_valid_kind2(rng, rank):
    a = rng.choice([1, -1]) * rng.randint(1, rank)
    members = {a}
    for i in range(1, rank + 1):
        if i == abs(a):
            continue
        p = rng.randrange(4)
        if p & 1:
            members.add(i)
        if p & 2:
            members.add(-i)
    return MultiplierAut(a, frozenset(members))


# ----------------------------------------------------------------- kind 1

def test_permutation_swaps_letters():
    # e1 -> e2^-1, e2 -> e1
    s = PermutationAut((-2, 1))
    assert apply_aut(s, parse_word("ab")).letters == (-2, 1)
    assert apply_aut(s, parse_word("B")).letters == (-1,)


def test_permutation_identity():
    s = PermutationAut((1, 2, 3))
    w = parse_word("abC")
    assert apply_aut(s, w) == w


def test_permutation_validity():
    assert PermutationAut((2, -1)).is_valid()
    assert not PermutationAut((2, 2)).is_valid()
    assert not PermutationAut((1, 3)).is_valid()
    assert not PermutationAut(()).is_valid()


def test_permutation_rejects_out_of_range_word():
    with pytest.raises(ValueError):
        apply_aut(PermutationAut((2, -1)), Word([3]))


def test_permutation_inverse():
    s = PermutationAut((-2, 1))
    t = s.inverse()
    for g in (1, -1, 2, -2):
        assert apply_aut(t, apply_aut(s, Word([g]))) == Word([g])


# ----------------------------------------------------------------- kind 2

def test_multiplier_aut_four_letter_cases():
    # a = e1; e2 in A only: trailing a
    t = MultiplierAut(1, frozenset({1, 2}))
    assert apply_aut(t, Word([2])).letters == (2, 1)
    # e2^-1 in A only: leading a^-1
    t = MultiplierAut(1, frozenset({1, -2}))
    assert apply_aut(t, Word([2])).letters == (-1, 2)
    # both: conjugate
    t = MultiplierAut(1, frozenset({1, 2, -2}))
    assert apply_aut(t, Word([2])).letters == (-1, 2, 1)
    # neither: fixed
    t = MultiplierAut(1, frozenset({1}))
    assert apply_aut(t, Word([2])).letters == (2,)


def test_multiplier_fixes_its_own_pair():
    t = MultiplierAut(1, frozenset({1, 2}))
    assert apply_aut(t, Word([1])).letters == (1,)
    assert apply_aut(t, Word([-1])).letters == (-1,)


def test_multiplier_shortens_ababa():
    # the classic length drop 5 -> 3
    t = MultiplierAut(1, frozenset({1, -2}))
    assert apply_aut(t, parse_word("ababa")) == parse_word("bba")


def test_multiplier_respects_inversion_of_letters():
    rng = random.Random(31)
    for _ in range(200):
        t = random_valid_kind2(rng, 3)
        w = random_reduced(rng, 3, rng.randint(0, 10))
        assert apply_aut(t, w.inverse()) == apply_aut(t, w).inverse()


def test_multiplier_validity():
    assert MultiplierAut(1, frozenset({1, 2})).is_valid()
    # multiplier and its inverse both present
    assert not MultiplierAut(1, frozenset({1, -1})).is_valid()
    # multiplier missing from the member set
    assert not MultiplierAut(1, frozenset({2})).is_valid()


def test_apply_rejects_invalid_descriptor():
    with pytest.raises(ValueError):
        apply_aut(MultiplierAut(1, frozenset({1, -1})), Word([2]))


def test_validity_refuses_zero_and_non_int_letters():
    assert not PermutationAut((0, 1)).is_valid()
    assert not PermutationAut((1.0, 2)).is_valid()
    assert not MultiplierAut(0, frozenset({0})).is_valid()
    assert not MultiplierAut(1, frozenset({1, 0})).is_valid()
    with pytest.raises(ValueError, match="invalid automorphism descriptor"):
        apply_aut(PermutationAut((0, 1)), Word([1]))


def test_validity_refuses_float_and_bool_letters():
    # 1.0 == 1 and True == 1, so only the type tells them from letters
    for aut in (
        MultiplierAut(1.0, frozenset({1.0, -2})),
        MultiplierAut(1, frozenset({1, -2.0})),
        MultiplierAut(True, frozenset({True, -2})),
        PermutationAut((True, 2)),
        PermutationAut((1, 2.0)),
    ):
        assert not aut.is_valid()
    with pytest.raises(ValueError, match="invalid automorphism descriptor"):
        apply_aut(MultiplierAut(1.0, frozenset({1.0, -2})), Word([2]))
    with pytest.raises(ValueError, match="invalid automorphism descriptor"):
        apply_aut(PermutationAut((True, 2)), Word([1]))


def test_apply_methods_match_apply_aut():
    # apply_aut is the one route; the descriptors keep no apply alias
    w = parse_word("abA")
    s = PermutationAut((-2, 1))
    assert apply_aut(s, w) == Word([-2, 1, 2])
    t = MultiplierAut(1, frozenset({1, -2}))
    assert apply_aut(t, w) == Word([2, -1])
    assert not hasattr(s, "apply") and not hasattr(t, "apply")


def test_apply_refuses_input_that_is_no_word():
    for aut in (PermutationAut((2, 1)), MultiplierAut(1, frozenset({1, -2}))):
        for bad in ("ab", (1, 2), None):
            with pytest.raises(TypeError, match=f"^w must be Word, got {type(bad).__name__}$"):
                apply_aut(aut, bad)


def test_inverse_refuses_an_invalid_descriptor():
    # inverse checks its descriptor as apply_aut does, and the message
    # prints the descriptor, non-letters as their repr
    for aut, text in (
        (PermutationAut((2, 5)), "PermutationAut(e2, e5)"),
        (PermutationAut((True, 2)), "PermutationAut(True, e2)"),
        (MultiplierAut(1.0, frozenset()), "MultiplierAut(1.0; {})"),
        (MultiplierAut(1, frozenset({1, -1})), "MultiplierAut(e1; {e1, e1^-1})"),
    ):
        assert repr(aut) == text
        with pytest.raises(ValueError) as info:
            aut.inverse()
        assert str(info.value) == f"invalid automorphism descriptor: {text}"


def test_multiplier_with_members_that_are_no_letters_is_refused():
    # a member that is no number used to make the descriptor unprintable,
    # so apply_aut and inverse raised TypeError from letter_key
    for aut, text in (
        (MultiplierAut(1, frozenset({1, "a"})), "MultiplierAut(e1; {e1, 'a'})"),
        (MultiplierAut(1, frozenset({1, None})), "MultiplierAut(e1; {e1, None})"),
        (MultiplierAut(1, frozenset({-2, 1, "b", None})), "MultiplierAut(e1; {e1, e2^-1, 'b', None})"),
    ):
        assert repr(aut) == text
        for call in (lambda: apply_aut(aut, Word([2])), aut.inverse):
            with pytest.raises(ValueError) as info:
                call()
            assert str(info.value) == f"invalid automorphism descriptor: {text}"


def test_multiplier_members_must_be_a_frozenset():
    # a list of members used to pass is_valid, so apply_aut applied a
    # descriptor that could not be hashed
    for members, text in (([1, -2], "[1, -2]"), ({1, -2}, "{1, -2}"), ((1,), "(1,)")):
        aut = MultiplierAut(1, members)
        assert not aut.is_valid()
        assert repr(aut) == f"MultiplierAut(e1; {text})"
        for call in (lambda: apply_aut(aut, Word([2])), aut.inverse):
            with pytest.raises(ValueError, match="^invalid automorphism descriptor: "):
                call()


def test_permutation_images_must_be_a_tuple():
    # a list of images used to pass is_valid, so apply_aut applied a
    # descriptor that could not be hashed, and images that are no
    # sequence made repr, apply_aut and inverse raise TypeError
    for images, text in (
        ([1, 2], "[1, 2]"),
        ([-2, 1], "[-2, 1]"),
        (5, "5"),
        (None, "None"),
        ("ab", "'ab'"),
        (range(1, 3), "range(1, 3)"),
    ):
        aut = PermutationAut(images)
        assert not aut.is_valid()
        assert repr(aut) == f"PermutationAut({text})"
        for call in (lambda: apply_aut(aut, Word([1])), aut.inverse):
            with pytest.raises(ValueError) as info:
                call()
            assert str(info.value) == f"invalid automorphism descriptor: PermutationAut({text})"
    # a tuple of images still prints letter by letter and applies
    assert repr(PermutationAut((2, -1))) == "PermutationAut(e2, e1^-1)"
    assert apply_aut(PermutationAut((2, -1)), Word([1, 2])) == Word([2, -1])


def test_apply_refuses_input_that_is_no_descriptor():
    for bad in ("x", (1, 2), None, Word([1])):
        message = f"^aut must be PermutationAut or MultiplierAut, got {type(bad).__name__}$"
        with pytest.raises(TypeError, match=message):
            apply_aut(bad, Word([1]))


# ------------------------------------------------------------- enumeration

def test_enumeration_counts():
    assert len(enumerate_kind2(1)) == kind2_count(1) == 2
    assert len(enumerate_kind2(2)) == kind2_count(2) == 16
    assert len(enumerate_kind2(3)) == kind2_count(3) == 96


@pytest.mark.parametrize("rank", [0, -2])
def test_enumeration_count_refuses_what_the_enumeration_refuses(rank):
    message = f"rank must be >= 1, got {rank}"
    with pytest.raises(ValueError, match=message):
        enumerate_kind2(rank)
    with pytest.raises(ValueError, match=message):
        kind2_count(rank)


def test_enumeration_entries_distinct_and_valid():
    for rank in (1, 2, 3):
        auts = enumerate_kind2(rank)
        assert len(set(auts)) == len(auts)
        assert all(t.is_valid() for t in auts)


def test_enumeration_rank1_is_trivial():
    for t in enumerate_kind2(1):
        assert apply_aut(t, Word([1])) == Word([1])
        assert apply_aut(t, Word([-1, -1])) == Word([-1, -1])


def test_enumeration_order_is_documented_counter():
    auts = enumerate_kind2(2)
    assert auts[0] == MultiplierAut(1, frozenset({1}))
    assert auts[1] == MultiplierAut(1, frozenset({1, 2}))
    assert auts[2] == MultiplierAut(1, frozenset({1, -2}))
    assert auts[3] == MultiplierAut(1, frozenset({1, 2, -2}))
    assert auts[4].multiplier == -1
    assert auts[8].multiplier == 2


def test_enumeration_respects_cap():
    with pytest.raises(ValueError):
        enumerate_kind2(9)


def test_kind1_count():
    assert len(enumerate_kind1(2)) == 8
    assert len(enumerate_kind1(3)) == 48
    assert all(t.is_valid() for t in enumerate_kind1(3))


def test_four_membership_cases_all_realized():
    # for multiplier e1 the pair {e2, e2^-1} runs through all four images
    images = set()
    for t in enumerate_kind2(2):
        if t.multiplier == 1:
            images.add(apply_aut(t, Word([2])).letters)
    assert images == {(2,), (2, 1), (-1, 2), (-1, 2, 1)}


# -------------------------------------------------------------- properties

def test_homomorphism_on_random_pairs():
    rng = random.Random(32)
    for _ in range(300):
        rank = rng.randint(2, 4)
        t = random_valid_kind2(rng, rank)
        u = random_reduced(rng, rank, rng.randint(0, 12))
        v = random_reduced(rng, rank, rng.randint(0, 12))
        assert apply_aut(t, u * v) == apply_aut(t, u) * apply_aut(t, v)


def test_enumerated_kind2_inverses_are_enumerated():
    for rank in (2, 3):
        pool = set(enumerate_kind2(rank))
        for t in pool:
            inv = t.inverse()
            assert inv in pool
            for i in range(1, rank + 1):
                for g in (i, -i):
                    assert apply_aut(inv, apply_aut(t, Word([g]))) == Word([g])


def test_inverse_undoes_on_random_words():
    rng = random.Random(33)
    for _ in range(300):
        rank = rng.randint(2, 5)
        t = random_valid_kind2(rng, rank)
        w = random_reduced(rng, rank, rng.randint(0, 15))
        assert apply_aut(t.inverse(), apply_aut(t, w)) == w


def test_json_shape():
    t = MultiplierAut(1, frozenset({1, -2}))
    assert t.to_json_dict() == {"kind": 2, "multiplier": 1, "members": [1, -2]}
    s = PermutationAut((-2, 1))
    assert s.to_json_dict() == {"kind": 1, "images": [-2, 1]}


@pytest.mark.parametrize(
    "aut,text",
    [
        (PermutationAut(5), "PermutationAut(5)"),
        (PermutationAut((0, 1)), "PermutationAut(0, e1)"),
        (PermutationAut((1, 3)), "PermutationAut(e1, e3)"),
        (PermutationAut([1, 2]), "PermutationAut([1, 2])"),
        (MultiplierAut(1, 5), "MultiplierAut(e1; 5)"),
        (MultiplierAut(1, frozenset({-1})), "MultiplierAut(e1; {e1^-1})"),
        (MultiplierAut(1, {1}), "MultiplierAut(e1; {1})"),
    ],
)
def test_to_json_dict_refuses_an_invalid_descriptor(aut, text):
    # as apply_aut and inverse do, with no TypeError and no invalid images
    with pytest.raises(ValueError) as info:
        aut.to_json_dict()
    assert str(info.value) == f"invalid automorphism descriptor: {text}"
