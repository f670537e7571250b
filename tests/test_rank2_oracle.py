"""A closed-form primitivity oracle for rank 2.

A cyclically reduced word of F_2 is primitive exactly when each generator
occurs with one sign only, its exponent sums p and q are coprime, and,
with the signs dropped, it is a rotation of the Christoffel word with p
letters a and q letters b (Osborne and Zieschang, Invent. Math. 64, 1981;
Cohen, Metzler and Zimmermann, Math. Ann. 257, 1981).  A core with one
generator is then primitive only at length 1.  The oracle reads no
Whitehead graph, no max-flow and no orbit, so it checks the minimizer,
the sweeps' class walk, its class counts and the density rows from
outside.  It takes time linear in the length, so it also settles
Christoffel words of 10^4 and 10^5 letters, their images and their
one-letter perturbations, and b a^k through the power steps of the
verdict descent.
"""

from math import gcd

import pytest

from freegroups.primitivity import _minimize_letters, is_primitive
from freegroups.verify import _core_classes, primitive_density, verify_prop24
from freegroups.words import Word, _gap_key, iter_reduced_words


def christoffel(p, q):
    """The lower Christoffel word with p letters 1 and q letters 2: letter
    i is 2 exactly when the line of slope q / (p + q) crosses an integer
    between i - 1 and i."""
    n = p + q
    return tuple(2 if i * q // n > (i - 1) * q // n else 1 for i in range(1, n + 1))


def strip(letters):
    while len(letters) >= 2 and letters[0] == -letters[-1]:
        letters = letters[1:-1]
    return letters


def closed_form_primitive(letters):
    core = strip(letters)
    if not core or {1, -1} <= set(core) or {2, -2} <= set(core):
        return False
    p = sum(abs(x) == 1 for x in core)
    q = len(core) - p
    if gcd(p, q) != 1:
        return False
    # the rotations of a word are its factors of the same length in the
    # doubled word, and a bytes search finds one in linear time
    return bytes(map(abs, core)) in bytes(christoffel(p, q) * 2)


def totient(n):
    return sum(gcd(n, k) == 1 for k in range(1, n + 1))


def test_christoffel_words_pinned():
    assert christoffel(1, 0) == (1,) and christoffel(0, 1) == (2,)
    assert christoffel(1, 1) == (1, 2)
    assert christoffel(3, 2) == (1, 1, 2, 1, 2)
    assert christoffel(2, 5) == (1, 2, 2, 1, 2, 2, 2)


def test_closed_form_pinned():
    primitive = [(1,), (-2,), (1, 2), (1, 1, -2), (2, 1, 2, 1, 1), (1, 2, -1)]
    not_primitive = [(), (1, 1), (1, -2, -1, 2), (1, 2, -1, 2), (1, 1, 2, 2), (1, 2, 1, 2)]
    assert [closed_form_primitive(w) for w in primitive] == [True] * len(primitive)
    assert [closed_form_primitive(w) for w in not_primitive] == [False] * len(not_primitive)


def test_rank2_ball_agrees_with_the_minimizer_and_the_class_walk():
    # every nonempty word of the rank 2 ball up to length 9, 39,364 of them;
    # the class verdicts are filed as nielsen-xcheck files them, under the
    # gap keys of each class's core and of its inverse
    verdicts = {}
    for core, _, _, primitive in _core_classes(2, 9):
        inverse = tuple(-x for x in reversed(core))
        verdicts[_gap_key(core)] = verdicts[_gap_key(inverse)] = primitive
    disagree = []
    checked = 0
    for w in iter_reduced_words(2, 9, include_empty=False):
        checked += 1
        expected = closed_form_primitive(w.letters)
        by_class = verdicts[_gap_key(strip(w.letters))]
        if is_primitive(w, 2) != expected or by_class != expected:
            disagree.append(w)
    assert checked == 39_364
    assert disagree == []


def test_core_classes_count_4_L_phi_L_primitives_per_length():
    # the cyclically reduced primitives of length L are the rotations of
    # the necklaces of the primitive classes: words[0] counts them, one per
    # rotation of one necklace
    counts = {}
    for core, necklaces, words, primitive in _core_classes(2, 11):
        assert primitive == closed_form_primitive(core), Word(core)
        if primitive:
            counts[len(core)] = counts.get(len(core), 0) + necklaces * words[0]
    assert counts == {L: 4 * L * totient(L) for L in range(1, 12)}
    assert counts[1] == 4


def long_cases(p, q, shifts):
    """(letters, expected) for the Christoffel word with p letters a and q
    letters b, p > q.  Primitive by construction: the word, its image under
    a -> a^-1 and its inverse, each rotated left by each of its shifts in
    turn.  Not primitive: two one-letter sign flips of the word, of a b and
    of an a between two b's, which cancel nothing and leave both signs of
    one generator in the word."""
    word = christoffel(p, q)
    image = tuple(-x if x == 1 else x for x in word)
    inverse = tuple(-x for x in reversed(word))
    primitive = [w[k:] + w[:k] for w, ks in zip((word, image, inverse), shifts) for k in ks]
    n = len(word)
    mid = word.index(2, n // 2)
    lone_a = next(i for i in range(mid, n - 1) if word[i - 1 : i + 2] == (2, 1, 2))
    flipped = [word[:i] + (-word[i],) + word[i + 1 :] for i in (mid, lone_a)]
    return [(w, True) for w in primitive] + [(w, False) for w in flipped]


@pytest.mark.parametrize(
    "p,q,shifts",
    [
        # 10,001 letters: three rotations of each of the three words
        (6001, 4000, [(0, 1, 3333, 9994)] * 3),
        # 100,000 letters, each call about ten times the cost: one word each
        (61803, 38197, [(0,), (33333,), (99993,)]),
    ],
)
def test_long_christoffel_words(p, q, shifts):
    # the expected verdicts come from the closed form, in linear time
    cases = long_cases(p, q, shifts)
    for letters, expected in cases:
        w = Word(letters)
        assert len(w) == p + q  # the flips reduce to no shorter word
        assert closed_form_primitive(w.letters) == expected
        assert is_primitive(w, 2) == expected
    assert [expected for _, expected in cases].count(False) == 2


def closed_form_count(length):
    """The primitives of length L in the rank 2 ball: a reduced word is
    u c u^-1 with c cyclically reduced, c primitive exactly when the word
    is, and p(l) = 4 l phi(l) cores of length l >= 2, 4 of length 1, each
    the core of c_k words with |u| = k, where c_0 = 1 and c_k = 2 3^(k-1)."""
    p = {1: 4, **{l: 4 * l * totient(l) for l in range(2, length + 1)}}
    c = [1] + [2 * 3 ** (k - 1) for k in range(1, length // 2 + 1)]
    return sum(p[l] * c[(length - l) // 2] for l in range(length % 2 or 2, length + 1, 2))


def test_density_rows_in_closed_form():
    counts = [closed_form_count(L) for L in range(1, 9)]
    assert counts == [4, 8, 32, 48, 152, 160, 544, 560]
    rows = primitive_density(2, 8)
    assert [(L, prims, total) for L, prims, total, _ in rows] == [
        (L, counts[L - 1], 4 * 3 ** (L - 1)) for L in range(1, 9)
    ]
    assert verify_prop24(2, 8).stats["primitives_found"] == sum(counts) == 1508


def test_b_a_k_through_the_power_steps():
    # the verdict descent applies a move met on two steps in a row as a
    # power phi^m, m doubled while the length drops, so b a^k falls to a
    # letter in O(log k) steps; b^2 a^k is not primitive for k >= 2.  k
    # grows, so a descent that takes a step per letter fails at k = 10,
    # before its quadratic cost at k = 10^5 shows.
    for k in (1, 2, 3, 10, 100, 1000, 10_000, 100_000):
        for b, expected in ((2,), True), ((2, 2), k < 2):
            letters = b + (1,) * k
            assert closed_form_primitive(letters) == expected, (b, k)
            core, steps = _minimize_letters(letters, 2, verdict=True)
            assert len(steps) <= 2 * k.bit_length(), (b, k)
            assert (len(core) == 1) == expected, (b, k)
            assert is_primitive(Word(letters), 2) == expected, (b, k)
