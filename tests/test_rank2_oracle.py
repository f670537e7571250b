"""A closed-form primitivity oracle for rank 2.

A cyclically reduced word of F_2 is primitive exactly when each generator
occurs with one sign only, its exponent sums p and q are coprime, and,
with the signs dropped, it is a rotation of the Christoffel word with p
letters a and q letters b (Osborne and Zieschang, Invent. Math. 64, 1981;
Cohen, Metzler and Zimmermann, Math. Ann. 257, 1981).  A core with one
generator is then primitive only at length 1.  The oracle reads no
Whitehead graph, no max-flow and no orbit, so it checks the minimizer,
the sweeps' symmetry classifier and their class counts from outside.  It
takes time linear in the length, so it also settles Christoffel words of
10^4 and 10^5 letters, their images and their one-letter perturbations.
"""

from math import gcd

import pytest

from freegroups.primitivity import is_primitive
from freegroups.verify import _core_classes, _symmetry_classifier
from freegroups.words import Word, iter_reduced_words


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


def test_rank2_ball_agrees_with_the_minimizer_and_the_classifier():
    # every nonempty word of the rank 2 ball up to length 9, 39,364 of them
    classify = _symmetry_classifier(2)
    disagree = []
    checked = 0
    for w in iter_reduced_words(2, 9, include_empty=False):
        checked += 1
        expected = closed_form_primitive(w.letters)
        by_class = classify(strip(w.letters))[1]
        if is_primitive(w, 2) != expected or by_class != expected:
            disagree.append(w)
    assert checked == 39_364
    assert disagree == []


def test_core_classes_count_4_L_phi_L_primitives_per_length():
    # the cyclically reduced primitives of length L are the rotations of
    # the primitive classes: words[0] counts them, one per rotation
    counts = {}
    for core, words, _, primitive in _core_classes(2, 11):
        assert primitive == closed_form_primitive(core), Word(core)
        if primitive:
            counts[len(core)] = counts.get(len(core), 0) + words[0]
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
