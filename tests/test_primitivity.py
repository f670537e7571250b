"""Tests for whitehead_minimize, is_primitive, the rank 2 basis pair
criterion, and the automorphism orbit oracle they are checked against."""

import random

import pytest

from freegroups.automorphisms import MultiplierAut, enumerate_kind2
from freegroups.primitivity import (
    MinimizationTrace,
    _minimize_letters,
    is_basis_pair_f2,
    is_primitive,
    primitive_orbit_oracle,
    whitehead_minimize,
)
from freegroups.words import (
    Word,
    _cyclic_strip,
    format_word,
    iter_reduced_words,
    parse_word,
)


def random_reduced(rng, rank, length):
    pool = [i for i in range(1, rank + 1)] + [-i for i in range(1, rank + 1)]
    letters = []
    while len(letters) < length:
        x = rng.choice(pool)
        if letters and x == -letters[-1]:
            continue
        letters.append(x)
    return Word(letters)


# --- minimization traces ---


def test_trace_ababa_full_chain():
    # the 5 -> 3 -> 2 -> 1 descent, every step frozen
    tr = whitehead_minimize(parse_word("ababa"), 2)
    assert isinstance(tr, MinimizationTrace)
    assert [length for _, length in tr.steps] == [3, 2, 1]
    assert [aut.multiplier for aut, _ in tr.steps] == [1, 2, 1]
    assert [set(aut.members) for aut, _ in tr.steps] == [
        {1, -2},
        {2, -1},
        {1, -2},
    ]
    assert len(tr.final.word) == 1


def test_trace_zero_steps():
    for text in ("a", "b", "aa", "aabb", "aaa"):
        tr = whitehead_minimize(parse_word(text), 2)
        assert tr.steps == []
        assert tr.final.word == parse_word(text)


def test_trace_strips_conjugation_first():
    # minimization acts on the cyclic core, so conjugates of a generator
    # finish immediately
    tr = whitehead_minimize(parse_word("abA"), 2)
    assert tr.steps == []
    assert tr.final.word == Word([2])


def test_trace_json_shape():
    tr = whitehead_minimize(parse_word("ababa"), 2)
    d = tr.to_json_dict()
    assert d["start"] == "ababa"
    assert d["final"] in ("a", "b", "A", "B")
    assert len(d["steps"]) == 3
    step = d["steps"][0]
    assert step["length"] == 3
    assert step["aut"]["kind"] == 2
    assert step["aut"]["multiplier"] == 1
    assert step["aut"]["members"] == [1, -2]


def test_step_lengths_strictly_decrease():
    rng = random.Random(40)
    for _ in range(200):
        w = random_reduced(rng, 3, rng.randrange(0, 12))
        tr = whitehead_minimize(w, 3)
        lengths = [len(_cyclic_strip(w.letters)[0])]
        lengths += [length for _, length in tr.steps]
        assert all(a > b for a, b in zip(lengths, lengths[1:]))
        assert lengths[-1] == len(tr.final.word)


# --- is_primitive, frozen verdicts ---


def test_primitive_frozen_rank2():
    yes = ["a", "b", "A", "ab", "ba", "aB", "abA", "ababa", "aab"]
    no = ["", "aa", "bb", "abab", "aabb", "ABab", "ababab"]
    for text in yes:
        assert is_primitive(parse_word(text), 2), text
    for text in no:
        assert not is_primitive(parse_word(text), 2), text


def test_primitive_frozen_rank3():
    assert is_primitive(parse_word("abc"), 3)
    assert is_primitive(parse_word("c"), 3)
    assert not is_primitive(parse_word("cc"), 3)
    assert not is_primitive(parse_word("bbbcc"), 3)  # e2^3 e3^2
    assert not is_primitive(parse_word("ABab"), 3)


def test_primitive_rank_matters():
    # e2 is primitive in any rank that contains it
    assert is_primitive(Word([2]), 2)
    assert is_primitive(Word([2]), 5)
    with pytest.raises(ValueError):
        is_primitive(Word([3]), 2)
    with pytest.raises(ValueError):
        whitehead_minimize(Word([3]), 2)
    with pytest.raises(ValueError):
        is_primitive(Word([1]), 0)


def test_primitive_conjugation_invariant():
    rng = random.Random(41)
    for _ in range(150):
        w = random_reduced(rng, 2, rng.randrange(1, 8))
        c = random_reduced(rng, 2, rng.randrange(0, 5))
        assert is_primitive(w, 2) == is_primitive(w.conjugate_by(c), 2)


# --- gain formula against actual application ---


def test_predicted_length_matches_actual():
    rng = random.Random(42)
    for _ in range(60):
        w = random_reduced(rng, 3, rng.randrange(2, 10))
        core = _cyclic_strip(w.letters)[0]
        if not core:
            continue
        from freegroups.primitivity import _degrees, _gain
        from freegroups.automorphisms import _apply_k2_letters
        from freegroups.whitehead_graph import whitehead_edges

        pairs = whitehead_edges(core)
        deg = _degrees(pairs)
        for aut in enumerate_kind2(3):
            predicted = len(core) + _gain(pairs, deg, aut)
            actual = len(
                _cyclic_strip(_apply_k2_letters(aut.multiplier, aut.members, core))[0]
            )
            assert predicted == actual, (core, aut)


# --- the two engines agree ---


def test_engines_reach_same_terminal_length():
    rng = random.Random(43)
    for rank in (2, 3):
        for _ in range(120):
            w = random_reduced(rng, rank, rng.randrange(0, 11))
            core_enum, _ = _minimize_letters(w.letters, rank, engine="enum")
            core_cut, _ = _minimize_letters(w.letters, rank, engine="cut")
            assert len(core_enum) == len(core_cut), w


def test_cut_engine_used_at_high_rank():
    # rank 6 is past the enumeration limit; primitive and non-primitive
    # verdicts must still come out right
    w = Word([1, 2, 3, 4, 5, 6])
    assert is_primitive(w, 6)
    squares = Word([2, 2, 2, 3, 3, 3, 4, 4, 4, 5, 5, 5, 6, 6])
    assert not is_primitive(squares, 6)


# --- Nielsen basis pair criterion ---


def test_basis_pair_frozen():
    a, b = parse_word("a"), parse_word("b")
    assert is_basis_pair_f2(a, b)
    assert is_basis_pair_f2(b, a)
    assert is_basis_pair_f2(a, parse_word("ba"))
    assert is_basis_pair_f2(parse_word("aB"), b)
    assert is_basis_pair_f2(a, parse_word("abA"))
    assert not is_basis_pair_f2(a, a)
    assert not is_basis_pair_f2(a, parse_word(""))
    assert not is_basis_pair_f2(parse_word("ab"), parse_word("ba"))
    assert not is_basis_pair_f2(a, parse_word("bab"))
    assert not is_basis_pair_f2(parse_word("aa"), b)


def test_basis_pair_rejects_higher_rank_letters():
    with pytest.raises(ValueError):
        is_basis_pair_f2(parse_word("ac"), parse_word("b"))


def test_basis_pair_agrees_with_primitivity_of_first():
    # each member of a basis pair is primitive; scan small pairs
    seen_pairs = 0
    for u in iter_reduced_words(2, 3, include_empty=False):
        for v in iter_reduced_words(2, 3, include_empty=False):
            if is_basis_pair_f2(u, v):
                seen_pairs += 1
                assert is_primitive(u, 2) and is_primitive(v, 2)
    assert seen_pairs > 0


# --- orbit oracle ---


def test_oracle_rank1():
    assert primitive_orbit_oracle(1, 5) == {Word([1]), Word([-1])}


def test_oracle_length1():
    assert primitive_orbit_oracle(2, 1) == {
        Word([1]),
        Word([-1]),
        Word([2]),
        Word([-2]),
    }


def test_oracle_length2():
    got = primitive_orbit_oracle(2, 2)
    squares = {Word([s * i, s * i]) for i in (1, 2) for s in (1, -1)}
    everything = set(iter_reduced_words(2, 2, include_empty=False))
    assert got == everything - squares
    assert len(got) == 12


def test_oracle_caps():
    with pytest.raises(ValueError):
        primitive_orbit_oracle(4, 3)
    with pytest.raises(ValueError):
        primitive_orbit_oracle(2, 11)
    with pytest.raises(ValueError):
        primitive_orbit_oracle(0, 3)


def test_minimizer_matches_oracle_rank2():
    oracle = primitive_orbit_oracle(2, 5)
    for w in iter_reduced_words(2, 5, include_empty=True):
        assert is_primitive(w, 2) == (w in oracle), format_word(w)


def test_minimizer_matches_oracle_rank3_short():
    oracle = primitive_orbit_oracle(3, 4)
    for w in iter_reduced_words(3, 4, include_empty=True):
        assert is_primitive(w, 3) == (w in oracle), format_word(w)


# --- witnesses used by the larger verification runs ---


def test_power_block_words_not_primitive():
    # e2^3 ... e_{n+1}^3 e_{n+2}^2 stays non-primitive as the rank grows;
    # rank 6 exercises the min-cut engine
    for n in range(1, 5):
        letters = []
        for i in range(2, n + 2):
            letters += [i, i, i]
        letters += [n + 2, n + 2]
        assert not is_primitive(Word(letters), n + 2)
