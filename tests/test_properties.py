"""Hypothesis properties of folding and of the word text forms.

The examples are derandomized by the profile in conftest.py.
"""

import random

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given
from hypothesis import strategies as st

from freegroups.stallings import build_subgroup_graph
from freegroups.words import Word, format_word, parse_word


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


@given(st.integers(1, 40).flatmap(lambda rank: st.tuples(st.just(rank), words(rank, 12))))
def test_parse_format_round_trip(case):
    rank, w = case
    assert parse_word(format_word(w)) == w
    assert parse_word(format_word(w, rank), rank) == w
