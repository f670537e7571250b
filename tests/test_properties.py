"""Hypothesis properties of folding, of the word text forms and of the
Whitehead automorphisms.  The per-sweep verdict cache files one verdict
under every signed permutation image of a core and of its inverse, so
the invariances it relies on are checked here as properties.

The examples are derandomized by the profile in conftest.py.
"""

import random

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given
from hypothesis import strategies as st

from freegroups.automorphisms import apply_aut, enumerate_kind1, enumerate_kind2
from freegroups.primitivity import is_basis_pair_f2, is_primitive
from freegroups.stallings import build_subgroup_graph
from freegroups.whitehead_graph import build_whitehead_graph
from freegroups.words import Word, are_conjugate, commutator, format_word, parse_word


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
