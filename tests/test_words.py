"""Word arithmetic tests.

Derived expected values are pinned against slow oracles defined here:
naive_reduce rescans the sequence until nothing cancels, the rotation
oracle compares full rotation sets, the least rotation oracle keys
every rotation instead of racing two candidate starts, and the ball
oracle grows whole breadth-first frontiers instead of walking stems.
"""

import random
import tracemalloc

import pytest

from freegroups.words import (
    PARSE_LETTER_CAP,
    CyclicWord,
    Word,
    WordParseError,
    are_conjugate,
    canonical_rotation,
    check_rank,
    commutator,
    count_reduced_words,
    cyclically_reduce,
    format_word,
    iter_reduced_words,
    letter_key,
    letter_order,
    parse_word,
    word_sort_key,
)


def naive_reduce(seq):
    # repeated full scans; quadratic but independent of the stack version
    out = list(seq)
    changed = True
    while changed:
        changed = False
        for i in range(len(out) - 1):
            if out[i] == -out[i + 1]:
                del out[i : i + 2]
                changed = True
                break
    return tuple(out)


def naive_strip(seq):
    out = list(seq)
    while len(out) >= 2 and out[0] == -out[-1]:
        out = out[1:-1]
    return tuple(out)


def rotation_set(seq):
    if not seq:
        return {()}
    return {seq[i:] + seq[:i] for i in range(len(seq))}


def naive_conjugate_test(u, v):
    a, b = naive_strip(u.letters), naive_strip(v.letters)
    return b in rotation_set(a)


def random_raw(rng, rank, max_len):
    return [rng.choice([1, -1]) * rng.randint(1, rank) for _ in range(rng.randint(0, max_len))]


def random_reduced(rng, rank, length):
    out = []
    while len(out) < length:
        x = rng.choice([1, -1]) * rng.randint(1, rank)
        if out and out[-1] == -x:
            continue
        out.append(x)
    return Word(out)


# ---------------------------------------------------------------- reduction

def test_reduce_cancels_inner_pair():
    assert Word([1, 2, -2, 3]).letters == (1, 3)


def test_reduce_to_empty():
    assert Word([1, -1]).letters == ()
    assert Word([1, 2, -2, -1]).letters == ()


def test_reduce_leaves_reduced_input_alone():
    assert Word([1, 2, 2, -1]).letters == (1, 2, 2, -1)


def test_reduce_cascades():
    # inner cancellation exposes an outer one
    assert Word([1, 2, 3, -3, -2, 1]).letters == (1, 1)


def test_reduce_matches_naive_oracle():
    rng = random.Random(20260822)
    for _ in range(10000):
        rank = rng.randint(1, 5)
        raw = random_raw(rng, rank, 50)
        assert Word(raw).letters == naive_reduce(raw)


def test_reduce_idempotent_and_parity():
    rng = random.Random(7)
    for _ in range(500):
        raw = random_raw(rng, 4, 40)
        w = Word(raw)
        assert Word(w.letters) == w
        assert (len(raw) - len(w)) % 2 == 0


def test_word_rejects_zero_and_nonints():
    with pytest.raises(ValueError):
        Word([1, 0, 2])
    with pytest.raises(ValueError):
        Word([1.5])
    with pytest.raises(ValueError):
        Word([True])


# ------------------------------------------------------- multiply / invert

def test_word_indexing_slicing_and_truth():
    w = parse_word("abC")
    assert (w[0], w[1], w[-1]) == (1, 2, -3)
    assert w[1:] == Word([2, -3]) and type(w[:1]) is Word
    assert w[::-1].letters == (-3, 2, 1)
    assert w and w[2:] and not w[3:] and not Word()


def test_multiply_concatenates():
    u = parse_word("abb")
    v = parse_word("bcc")
    assert u * v == parse_word("ab^3c^2")


def test_multiply_cancels_across_junction():
    u = Word([1, 2])
    assert (u * u.inverse()).letters == ()
    assert (Word([1, 2]) * Word([-2, 3])).letters == (1, 3)


def test_multiply_associative_random():
    rng = random.Random(11)
    for _ in range(300):
        u, v, w = (Word(random_raw(rng, 3, 12)) for _ in range(3))
        assert (u * v) * w == u * (v * w)


def test_invert_reverses_and_negates():
    assert parse_word("abb").inverse().letters == (-2, -2, -1)
    assert Word().inverse().letters == ()


def test_invert_involution_random():
    rng = random.Random(12)
    for _ in range(300):
        w = Word(random_raw(rng, 4, 20))
        assert w.inverse().inverse() == w
        assert (w * w.inverse()).letters == ()


def test_pow():
    a = Word([1])
    assert (a ** 3).letters == (1, 1, 1)
    assert (a ** -2).letters == (-1, -1)
    assert (a ** 0).letters == ()


# ------------------------------------------------------- cyclic reduction

def test_cyclic_reduce_strips_conjugating_prefix():
    core, c = cyclically_reduce(parse_word("abbA"))
    assert core.word.letters == (2, 2)
    assert c.letters == (1,)


def test_cyclic_reduce_fixed_point():
    w = parse_word("abba")
    core, c = cyclically_reduce(w)
    assert core.word == w
    assert c.letters == ()


def test_cyclic_reduce_refuses_input_that_is_no_word():
    for bad in ("abA", (1, 2, -1), CyclicWord(parse_word("ab"))):
        with pytest.raises(TypeError, match=f"u must be Word, got {type(bad).__name__}"):
            cyclically_reduce(bad)


def test_cyclic_reduce_empty():
    core, c = cyclically_reduce(Word())
    assert len(core) == 0 and c.letters == ()


def test_cyclic_reduce_reconstructs():
    rng = random.Random(13)
    for _ in range(500):
        w = Word(random_raw(rng, 4, 30))
        core, c = cyclically_reduce(w)
        assert core.word.is_cyclically_reduced
        assert c * core.word * c.inverse() == w
        assert core.word.letters == naive_strip(w.letters)


def test_cyclic_word_rotation_equality():
    assert CyclicWord(Word([1, 2])) == CyclicWord(Word([2, 1]))
    assert CyclicWord(Word([1, 2])) != CyclicWord(Word([1, -2]))
    assert hash(CyclicWord(Word([1, 2]))) == hash(CyclicWord(Word([2, 1])))


def test_cyclic_word_rejects_unreduced():
    with pytest.raises(ValueError):
        CyclicWord(Word([1, 2, -1]))


def test_canonical_rotation_is_least():
    assert canonical_rotation((2, 1)) == (1, 2)
    assert canonical_rotation((2, -1, 2)) == (-1, 2, 2)
    assert canonical_rotation(()) == ()


def least_rotation_oracle(letters):
    # every rotation with its full key tuple; quadratic but independent
    if not letters:
        return letters
    key = lambda t: tuple(letter_key(x) for x in t)
    return min((letters[i:] + letters[:i] for i in range(len(letters))), key=key)


def test_canonical_rotation_matches_oracle():
    rng = random.Random(15)
    for _ in range(3000):
        rank = rng.randint(1, 3)
        letters = tuple(random_raw(rng, rank, 12))
        if letters and rng.random() < 0.3:  # periodic words tie many rotations
            letters *= rng.randint(2, 4)
        assert canonical_rotation(letters) == least_rotation_oracle(letters), letters
    for period in [(1,), (1, -2), (2, -1, 1), (-1, -1, 2)]:
        for k in range(1, 6):
            letters = period * k
            assert canonical_rotation(letters) == least_rotation_oracle(letters)


# ------------------------------------------------------------- conjugacy

def test_conjugate_rotations():
    assert are_conjugate(parse_word("ab"), parse_word("ba"))


def test_conjugate_sign_matters():
    assert not are_conjugate(parse_word("ab"), parse_word("aB"))


def test_conjugate_empty():
    assert are_conjugate(Word(), Word())
    assert not are_conjugate(Word(), Word([1]))


def test_conjugate_matches_rotation_oracle():
    rng = random.Random(14)
    words = [Word(random_raw(rng, 2, 6)) for _ in range(60)]
    for u in words:
        for v in words:
            assert are_conjugate(u, v) == naive_conjugate_test(u, v)


def test_conjugation_by_random_element():
    rng = random.Random(15)
    for _ in range(500):
        w = Word(random_raw(rng, 3, 15))
        g = Word(random_raw(rng, 3, 10))
        assert are_conjugate(w, g * w * g.inverse())



def test_conjugate_refuses_input_that_is_no_word():
    with pytest.raises(TypeError, match="u must be Word, got str"):
        are_conjugate("ab", parse_word("ba"))
    with pytest.raises(TypeError, match="v must be Word, got tuple"):
        are_conjugate(parse_word("ab"), (2, 1))


# ------------------------------------------------------------ commutator

def test_commutator_of_generators():
    assert commutator(Word([1]), Word([2])).letters == (-1, -2, 1, 2)


def test_commutator_expanded_by_hand():
    # [a, ba] = a^-1 a^-1 b^-1 a b a
    assert commutator(parse_word("a"), parse_word("ba")).letters == (-1, -1, -2, 1, 2, 1)


def test_commutator_self_trivial():
    rng = random.Random(16)
    for _ in range(100):
        w = Word(random_raw(rng, 3, 10))
        assert commutator(w, w).letters == ()
        assert commutator(w, w.inverse()).letters == ()


def test_commutator_inverse_swaps_arguments():
    u, v = parse_word("ab"), parse_word("bA")
    assert commutator(u, v).inverse() == commutator(v, u)



def test_commutator_refuses_input_that_is_no_word():
    with pytest.raises(TypeError, match="u must be Word, got str"):
        commutator("a", parse_word("b"))
    with pytest.raises(TypeError, match="v must be Word, got tuple"):
        commutator(parse_word("a"), (2,))


# ---------------------------------------------------------- parse / format

def test_parse_form_a():
    assert parse_word("abbA").letters == (1, 2, 2, -1)
    assert parse_word("a b^2 A").letters == (1, 2, 2, -1)
    assert parse_word("ab^3").letters == (1, 2, 2, 2)
    assert parse_word("b^-2").letters == (-2, -2)
    assert parse_word("z").letters == (26,)
    assert parse_word("").letters == ()
    assert parse_word("   ").letters == ()


def test_parse_form_b():
    assert parse_word("1 2 2 -1").letters == (1, 2, 2, -1)
    assert parse_word("30 -27").letters == (30, -27)
    assert parse_word("1 2 2 -1") == parse_word("ab^2A")


def test_parse_reduces():
    assert parse_word("aA").letters == ()
    assert parse_word("1 -1 2").letters == (2,)


def test_parse_rejects_malformed_with_position():
    with pytest.raises(WordParseError) as e:
        parse_word("ab!c")
    assert e.value.position == 2
    with pytest.raises(WordParseError) as e:
        parse_word("a^x")
    assert e.value.position == 1
    with pytest.raises(WordParseError) as e:
        parse_word("^2")
    assert e.value.position == 0
    with pytest.raises(WordParseError) as e:
        parse_word("a^\u00b2")  # a superscript two is not an ASCII digit
    assert e.value.position == 1
    with pytest.raises(WordParseError) as e:
        parse_word("1 2.5")
    assert e.value.position == 2
    with pytest.raises(WordParseError) as e:
        parse_word("1 0 2")
    assert e.value.position == 2


def test_parse_caps_expansion():
    assert len(parse_word(f"a^{PARSE_LETTER_CAP}")) == PARSE_LETTER_CAP
    assert parse_word("a^" + "0" * 5000 + "2B").letters == (1, 1, -2)
    for text in (f"ba^{PARSE_LETTER_CAP + 1}", "ba^-99999999999999999999999"):
        with pytest.raises(WordParseError, match="exponent exceeds") as e:
            parse_word(text)
        assert e.value.position == 2
    with pytest.raises(WordParseError, match="word expands past") as e:
        parse_word(f"a^{PARSE_LETTER_CAP} b")
    assert e.value.position == len(f"a^{PARSE_LETTER_CAP} ")  # the b


def test_parse_rejects_index_above_rank():
    with pytest.raises(WordParseError) as e:
        parse_word("abc", rank=2)
    assert e.value.position == 2
    with pytest.raises(WordParseError) as e:
        parse_word("1 5", rank=3)
    assert e.value.position == 2
    assert parse_word("ab", rank=2).letters == (1, 2)


def test_format_form_a_with_runs():
    assert format_word(parse_word("abbA")) == "ab^2A"
    assert format_word(Word([1])) == "a"
    assert format_word(Word()) == ""
    assert format_word(Word([-2, -2, -2])) == "B^3"


def test_format_refuses_input_that_is_no_word():
    for bad in ("ab", (1, 2), CyclicWord(parse_word("ab"))):
        with pytest.raises(TypeError, match=f"w must be Word, got {type(bad).__name__}"):
            format_word(bad)


def test_format_form_b_above_alphabet():
    w = Word([27, -1])
    assert format_word(w) == "27 -1"
    # an explicit big rank forces form B even for small indices
    assert format_word(Word([1, 2]), 30) == "1 2"
    # a rank below the largest index cannot pull it into form A
    assert format_word(Word([27, 1]), 2) == "27 1"
    assert parse_word(format_word(Word([27, 1]), 2)) == Word([27, 1])


def test_word_carries_only_its_letters():
    assert Word.__slots__ == ("letters",)
    # the form follows the indices unless a rank is passed
    w = parse_word("1 2", 30)
    assert format_word(w) == "ab"
    assert format_word(w, 30) == "1 2"


def test_format_parse_round_trip():
    rng = random.Random(17)
    for _ in range(400):
        w = Word(random_raw(rng, 5, 25))
        assert parse_word(format_word(w)) == w
    for _ in range(100):
        w = Word(random_raw(rng, 30, 15))
        assert parse_word(format_word(w)) == w


# ----------------------------------------------------------- enumeration

def bfs_ball(rank, max_len, include_empty):
    """Breadth-first oracle: every stem of one length extended by every
    letter, in letter order."""
    out = [()] if include_empty else []
    frontier = [()]
    for _ in range(max_len):
        frontier = [
            stem + (x,)
            for stem in frontier
            for x in letter_order(rank)
            if not stem or stem[-1] != -x
        ]
        out += frontier
    return out


@pytest.mark.parametrize("rank,max_len", [(2, 10), (3, 6), (1, 5), (4, 4), (2, 0), (3, 1)])
@pytest.mark.parametrize("include_empty", [True, False])
def test_ball_order_matches_breadth_first_oracle(rank, max_len, include_empty):
    words = [w.letters for w in iter_reduced_words(rank, max_len, include_empty)]
    assert words == bfs_ball(rank, max_len, include_empty)
    assert len(words) == count_reduced_words(rank, max_len) - (not include_empty)


def test_ball_memory_is_bounded():
    # the rank 3 ball up to length 7 has 117,187 words; none may be retained
    tracemalloc.start()
    try:
        count = sum(1 for _ in iter_reduced_words(3, 7))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert count == count_reduced_words(3, 7)
    assert peak < 64 * 1024, peak


def test_ball_counts_match_formula():
    for rank, max_len in [(1, 6), (2, 5), (3, 4)]:
        words = list(iter_reduced_words(rank, max_len))
        assert len(words) == count_reduced_words(rank, max_len)
        assert len(set(words)) == len(words)
        assert all(Word(w.letters) == w for w in words)


def test_ball_rank2_len8_size():
    # 1 + 4 * (3^8 - 1) / 2 words including the empty one
    assert count_reduced_words(2, 8) == 13121
    assert count_reduced_words(3, 6) == 23437


def test_ball_order_is_by_length_then_lex():
    words = list(iter_reduced_words(2, 3))
    keys = [word_sort_key(w) for w in words]
    assert keys == sorted(keys)
    assert words[0].letters == ()
    assert words[1].letters == (1,)
    assert words[2].letters == (-1,)
    assert words[3].letters == (2,)


def test_ball_rejects_negative_length():
    with pytest.raises(ValueError, match="max_len must be >= 0, got -1"):
        list(iter_reduced_words(2, -1))


@pytest.mark.parametrize(
    "rank,max_len,message",
    [
        (-1, 3, "rank must be >= 1, got -1"),
        (0, 2, "rank must be >= 1, got 0"),
        (2, -4, "max_len must be >= 0, got -4"),
    ],
)
def test_ball_count_refuses_what_the_walk_refuses(rank, max_len, message):
    with pytest.raises(ValueError, match=message):
        list(iter_reduced_words(rank, max_len))
    with pytest.raises(ValueError, match=message):
        count_reduced_words(rank, max_len)


@pytest.mark.parametrize("rank", [2.5, 2.0, True, False, "2", None])
def test_check_rank_refuses_a_rank_that_is_no_int(rank):
    with pytest.raises(ValueError, match="rank must be an int"):
        check_rank((), rank)
    with pytest.raises(ValueError, match="rank must be an int"):
        check_rank((1,), rank)


def test_ball_excludes_empty_when_asked():
    words = list(iter_reduced_words(2, 2, include_empty=False))
    assert all(len(w) >= 1 for w in words)
    assert len(words) == count_reduced_words(2, 2) - 1
