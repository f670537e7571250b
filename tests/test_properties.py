"""Hypothesis properties of folding, of the word text forms, of the
Whitehead graph kernel on arbitrary multigraphs and of the Whitehead
automorphisms.  The sweeps' class walk gives one verdict to a core, its
rotations, its inverse and its signed permutation images, so the
invariances it relies on are checked here as properties, and so is the
verdict-only descent on automorphic images.

The examples are derandomized by the profile in conftest.py, so fixed
cases stand next to a property wherever a rare branch must be reached.
"""

import random

import networkx as nx
import pytest
from hypothesis import given
from hypothesis import strategies as st

from freegroups.automorphisms import MultiplierAut, apply_aut, enumerate_kind1, enumerate_kind2
from freegroups.primitivity import _minimize_letters, is_basis_pair_f2, is_primitive
from freegroups.stallings import SubgroupGraph, build_subgroup_graph
from freegroups.whitehead_graph import build_whitehead_graph
from freegroups.words import Word, are_conjugate, commutator, format_word, parse_word
from test_whitehead_graph import check_matrix, check_separation


@st.composite
def words(draw, rank, max_len=8):
    letters = draw(
        st.lists(
            st.integers(1, rank).flatmap(lambda i: st.sampled_from([i, -i])),
            max_size=max_len,
        )
    )
    return Word(letters)


@st.composite
def generator_sets(draw, max_rank=3):
    rank = draw(st.integers(1, max_rank))
    gens = draw(st.lists(words(rank), max_size=4))
    return rank, gens


@given(generator_sets(), st.lists(st.integers(0, 2**32), min_size=1, max_size=3))
def test_fold_confluent_over_merge_seeds(case, seeds):
    rank, gens = case
    reference = build_subgroup_graph(gens, rank)
    for seed in seeds:
        assert build_subgroup_graph(gens, rank, rng=random.Random(seed)) == reference


@given(generator_sets(), st.randoms(use_true_random=False), st.data())
def test_fold_ignores_generator_order_and_inversion(case, shuffler, data):
    rank, gens = case
    reference = build_subgroup_graph(gens, rank)
    moved = list(gens)
    shuffler.shuffle(moved)
    flips = data.draw(st.lists(st.booleans(), min_size=len(moved), max_size=len(moved)))
    moved = [~g if flip else g for g, flip in zip(moved, flips)]
    assert build_subgroup_graph(moved, rank) == reference


@given(generator_sets(), st.data())
def test_fold_contains_products_of_generators(case, data):
    rank, gens = case
    graph = build_subgroup_graph(gens, rank)
    product = Word([])
    if gens:
        picks = data.draw(
            st.lists(st.tuples(st.sampled_from(gens), st.booleans()), max_size=5)
        )
        for g, invert in picks:
            product = product * (~g if invert else g)
    assert graph.contains(product)
    assert graph.contains(~product)


# <a^2, a^3, abab> in rank 3: the loops a^2 and a^3 fold onto vertex 1,
# whose table is the larger, so the basepoint's class is not vertex 0
FIXED_WALKS = (
    ("", True),  # the empty word
    ("c", False),  # a miss at the first letter
    ("ba", False),  # a walk that ends off the basepoint
    ("BAB", True),  # every edge read backwards
    ("aBABA", True),
)


@pytest.mark.parametrize("text, member", FIXED_WALKS)
def test_fold_contains_fixed_walks(text, member):
    folded = build_subgroup_graph([parse_word(t) for t in ("aa", "aaa", "abab")], 3)
    assert folded._find(0) != 0
    # the same graph with vertices 1 and 2 swapped from the canonical numbering
    given = SubgroupGraph(3, 3, [(0, 1, 0), (0, 2, 2), (2, 1, 1), (1, 2, 0)])
    for graph in (folded, given):
        assert graph.contains(parse_word(text)) == member, text
    assert folded._edges is None  # walked before it was ever numbered
    assert folded == given


@given(
    st.integers(1, 40).flatmap(lambda rank: st.tuples(st.just(rank), words(rank, 12))),
    st.integers(1, 40),
)
def test_parse_format_round_trip(case, other_rank):
    rank, w = case
    assert parse_word(format_word(w)) == w
    assert parse_word(format_word(w, rank), rank) == w
    # any rank, even one below the largest index, gives parseable text
    assert parse_word(format_word(w, other_rank)) == w


ranked_auts = st.integers(1, 3).flatmap(
    lambda rank: st.tuples(
        st.just(rank), st.sampled_from(enumerate_kind1(rank) + enumerate_kind2(rank))
    )
)


@given(ranked_auts, st.data())
def test_aut_is_homomorphism_undone_by_inverse(case, data):
    rank, aut = case
    u, v = data.draw(words(rank)), data.draw(words(rank))
    assert apply_aut(aut, u * v) == apply_aut(aut, u) * apply_aut(aut, v)
    assert apply_aut(aut, ~u) == ~apply_aut(aut, u)
    assert apply_aut(aut.inverse(), apply_aut(aut, u)) == u
    assert apply_aut(aut, apply_aut(aut.inverse(), u)) == u


@given(ranked_auts, st.data())
def test_aut_preserves_primitivity_and_conjugacy(case, data):
    rank, aut = case
    u = data.draw(words(rank))
    assert is_primitive(apply_aut(aut, u), rank) == is_primitive(u, rank)
    # v is a conjugate of u or an arbitrary word, so both answers occur
    g = data.draw(words(rank, 4))
    v = g * u * g.inverse() if data.draw(st.booleans()) else data.draw(words(rank))
    assert are_conjugate(apply_aut(aut, u), apply_aut(aut, v)) == are_conjugate(u, v)


def separable(w, rank):
    return build_whitehead_graph(w.cyclic_core(), rank).find_cut_vertex().separable


@given(
    st.integers(1, 4).flatmap(
        lambda rank: st.tuples(st.just(rank), st.sampled_from(enumerate_kind1(rank)), words(rank, 12))
    )
)
def test_inversion_and_permutations_keep_separability(case):
    rank, perm, w = case
    assert separable(~w, rank) == separable(w, rank)
    assert separable(apply_aut(perm, w), rank) == separable(w, rank)
    assert is_primitive(~w, rank) == is_primitive(w, rank)


F2_AUTS = enumerate_kind1(2) + enumerate_kind2(2)
F2_COMMUTATORS = (commutator(Word([1]), Word([2])), commutator(Word([2]), Word([1])))


@given(st.lists(st.sampled_from(F2_AUTS), max_size=6), words(2, 6), st.data())
def test_basis_pair_test_is_commutator_conjugacy(auts, w, data):
    # the image of (e1, e2) under automorphisms is a basis; multiplying one
    # coordinate by w mostly breaks that, so both answers occur
    a, b = Word([1]), Word([2])
    for aut in auts:
        a, b = apply_aut(aut, a), apply_aut(aut, b)
    if data.draw(st.booleans()):
        b = b * w
    else:
        assert is_basis_pair_f2(a, b)
    c = commutator(a, b)
    assert is_basis_pair_f2(a, b) == any(are_conjugate(c, k) for k in F2_COMMUTATORS)


@st.composite
def multigraphs(draw):
    # loops and repeated edges drawn on purpose: a uniform pair is rarely one
    gens = sorted(draw(st.sets(st.integers(1, 8), min_size=1, max_size=5)))
    letter = st.sampled_from([x for g in gens for x in (g, -g)])
    edges = draw(st.lists(st.one_of(letter.map(lambda x: (x, x)), st.tuples(letter, letter))))
    if edges:
        edges += draw(st.lists(st.sampled_from(edges), max_size=4))
    return edges, gens


# the seeded and fixed multigraphs of test_whitehead_graph.py run the same
# checks on the loop and root cases these derandomized draws may miss


@given(multigraphs())
def test_edge_matrix_matches_counter_on_drawn_multigraphs(case):
    check_matrix(*case)


@given(multigraphs())
def test_separation_matches_networkx_on_drawn_multigraphs(case):
    check_separation(*case, nx)


@st.composite
def whitehead_chains(draw):
    # random kind 2 moves with one move repeated many times in between,
    # the shape whose descent the verdict mode shortens by power steps
    rank = draw(st.integers(2, 4))
    moves = st.sampled_from(enumerate_kind2(rank))
    chain = draw(st.lists(moves, max_size=5))
    at = draw(st.integers(0, len(chain)))
    chain[at:at] = [draw(moves)] * draw(st.integers(0, 80))
    return rank, chain


def image(chain, w):
    for aut in chain:
        w = apply_aut(aut, w)
    return w


def check_verdict_descent(rank, chain):
    # e1 is primitive and a^2 b^2 is not: its orbit minimum is its own
    # length 4, which the verdict descent must reach as well
    e1 = image(chain, Word([1]))
    assert is_primitive(e1, rank), format_word(e1)
    square = image(chain, Word([1, 1, 2, 2]))
    assert not is_primitive(square, rank), format_word(square)
    assert len(_minimize_letters(square.letters, rank, verdict=True)[0]) == 4


@given(whitehead_chains())
def test_verdict_descent_on_whitehead_images(case):
    check_verdict_descent(*case)


@st.composite
def long_words(draw):
    # a random word, then random kind 2 moves while it stays short enough:
    # random words are mostly not separable, and the moves keep primitive
    # and separable words in the draw
    rank = draw(st.integers(4, 8))
    letters = [s * i for i in range(1, rank + 1) for s in (1, -1)]
    size = draw(st.integers(1, 60))
    w = Word(draw(st.lists(st.sampled_from(letters), min_size=size, max_size=size)))
    for _ in range(draw(st.integers(0, 6))):
        a = draw(st.sampled_from(letters))
        others = draw(st.sets(st.sampled_from([x for x in letters if abs(x) != abs(a)])))
        image = apply_aut(MultiplierAut(a, frozenset({a, *others})), w)
        if len(image) > 60:
            break
        w = image
    return rank, w


@given(long_words())
def test_certificate_matches_the_descent_at_higher_ranks(case):
    # is_primitive settles cores whose graph has no cut vertex by the
    # cut-vertex lemma; the descent alone must agree on every word
    rank, w = case
    descent = len(_minimize_letters(w.letters, rank, verdict=True)[0]) == 1
    assert is_primitive(w, rank) == descent, format_word(w)


def move(multiplier, *others):
    return MultiplierAut(multiplier, frozenset({multiplier, *others}))


POWER_CHAINS = [
    (2, [move(2, 1)] * 60),
    (2, [move(1, -2)] * 40 + [move(2, 1)] * 25),
    (3, [move(3, 1, -2)] * 50 + [move(-1, 2)] * 3),
    (4, [move(2, 1, 3)] * 2 + [move(-4, 1, -1, 2)] * 70 + [move(3, -2)]),
]


@pytest.mark.parametrize("rank,chain", POWER_CHAINS)
def test_verdict_descent_on_fixed_powers(rank, chain):
    # each of these descents repeats a move, so the power step is taken:
    # the verdict descent needs fewer steps than the single-step trace
    check_verdict_descent(rank, chain)
    for w in (image(chain, Word([1])), image(chain, Word([1, 1, 2, 2]))):
        verdict = _minimize_letters(w.letters, rank, verdict=True)[1]
        assert len(verdict) < len(_minimize_letters(w.letters, rank)[1])
