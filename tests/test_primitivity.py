"""Tests for whitehead_minimize, is_primitive, the rank 2 basis pair
criterion, and the automorphism orbit oracle they are checked against."""

import hashlib
import json
import math
import random

import pytest

from freegroups.automorphisms import MultiplierAut, _apply_k2_letters, enumerate_kind2
from freegroups.primitivity import (
    MinimizationTrace,
    _find_move,
    _max_flow,
    _member_crosses,
    _minimize_letters,
    is_basis_pair_f2,
    is_primitive,
    primitive_orbit_oracle,
    whitehead_minimize,
)
from freegroups.whitehead_graph import edge_matrix, whitehead_edges
from freegroups.words import (
    Word,
    _cyclic_strip,
    commutator,
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


def test_high_rank_verdicts():
    # the cut engine's matrix spans only the generators in the word, so a
    # large declared rank costs nothing and changes no trace
    rng = random.Random(48)
    gens = (3, 70, 150, 256)
    pool = list(gens) + [-g for g in gens]
    w = Word([70])
    while len(w) < 600:
        a = rng.choice(pool)
        members = {a} | {x for x in pool if abs(x) != abs(a) and rng.random() < 0.5}
        w = MultiplierAut(a, frozenset(members)).apply(w)
    assert is_primitive(w, 256) and is_primitive(w, 100_000)
    assert not is_primitive(commutator(Word([3]), Word([256])), 256)
    small = Word([{3: 1, 70: 2, 150: 3, 256: 4}[abs(x)] * (1 if x > 0 else -1) for x in w.letters])
    big, low = whitehead_minimize(w, 256), whitehead_minimize(small, 6)
    assert [n for _, n in big.steps] == [n for _, n in low.steps]
    for rank in (6, 7, 8):
        for core in random_cores(rng, rank, 10, 30):
            assert _minimize_letters(core, rank) == _minimize_letters(core, 10_000)


def test_primitive_conjugation_invariant():
    rng = random.Random(41)
    for _ in range(150):
        w = random_reduced(rng, 2, rng.randrange(1, 8))
        c = random_reduced(rng, 2, rng.randrange(0, 5))
        assert is_primitive(w, 2) == is_primitive(w.conjugate_by(c), 2)


# --- move scoring on the edge-count matrix ---


def cross_by_pairs(core, members):
    # the O(L) cut count over the edge list, kept as the reference
    return sum(1 for x, y in whitehead_edges(core) if (x in members) != (y in members))


def degree_by_pairs(core, v):
    return sum((x == v) + (y == v) for x, y in whitehead_edges(core))


def random_cores(rng, rank, count, max_len):
    cores = []
    while len(cores) < count:
        core = _cyclic_strip(random_reduced(rng, rank, rng.randrange(2, max_len)).letters)[0]
        if len(core) > 1:
            cores.append(core)
    return cores


def test_predicted_length_matches_actual():
    rng = random.Random(42)
    kind2 = enumerate_kind2(3)
    for core in random_cores(rng, 3, 60, 10):
        cap = edge_matrix(core, range(1, 4))
        deg = [sum(row.values()) for row in cap]
        for a in range(6):
            crosses = list(_member_crosses(cap, deg, a))
            auts = kind2[16 * a : 16 * (a + 1)]
            assert len(crosses) == len(auts) == 16
            for aut, cross in zip(auts, crosses):
                assert cross == cross_by_pairs(core, aut.members), (core, aut)
                predicted = len(core) + cross - deg[a]
                actual = len(
                    _cyclic_strip(_apply_k2_letters(aut.multiplier, aut.members, core))[0]
                )
                assert predicted == actual, (core, aut)
    # a word that is not cyclically reduced has a loop at its wrap-around
    for _ in range(40):
        w = random_reduced(rng, 3, rng.randrange(2, 10)).letters
        cap = edge_matrix(w, range(1, 4))
        deg = [sum(row.values()) for row in cap]
        for a in range(6):
            auts = kind2[16 * a : 16 * (a + 1)]
            expected = [cross_by_pairs(w, t.members) for t in auts]
            assert list(_member_crosses(cap, deg, a)) == expected, w


def test_enum_finder_matches_plain_scan():
    rng = random.Random(44)
    for rank in (2, 3, 4, 5):
        for core in random_cores(rng, rank, 40, 16):
            expected = None
            for aut in enumerate_kind2(rank):
                gain = cross_by_pairs(core, aut.members) - degree_by_pairs(core, aut.multiplier)
                if gain < 0:
                    expected = (aut, gain)
                    break
            assert _find_move(core, rank, use_cut=False) == expected, core


def test_min_cut_equals_min_cross_over_member_sets():
    # the pruning lemma: a multiplier has an improving set exactly when its
    # uncapped min cut is below its degree
    rng = random.Random(45)
    for rank in (2, 3, 4):
        kind2 = enumerate_kind2(rank)
        sets = 4 ** (rank - 1)
        for core in random_cores(rng, rank, 25, 14):
            rows = edge_matrix(core, range(1, rank + 1))
            for a in range(2 * rank):
                cut, side = _max_flow(rows, a, a ^ 1, math.inf)
                auts = kind2[sets * a : sets * (a + 1)]
                assert cut == min(cross_by_pairs(core, t.members) for t in auts)
                assert a in side and a ^ 1 not in side


def test_capped_flow_stops_at_bound():
    rng = random.Random(46)
    for core in random_cores(rng, 3, 40, 14):
        rows = edge_matrix(core, range(1, 4))
        for a in range(6):
            cut, _ = _max_flow(rows, a, a ^ 1, math.inf)
            for bound in range(cut + 2):
                flow, side = _max_flow(rows, a, a ^ 1, bound)
                assert flow == min(cut, bound)
                assert (side is None) == (cut >= bound)


def test_max_flow_matches_networkx():
    nx = pytest.importorskip("networkx")
    rng = random.Random(47)
    for rank in (2, 3, 4, 6):
        for core in random_cores(rng, rank, 15, 30):
            cap = edge_matrix(core, range(1, rank + 1))
            g = nx.Graph()
            g.add_nodes_from(range(2 * rank))
            for u, row in enumerate(cap):
                for v, count in row.items():
                    if u < v:
                        g.add_edge(u, v, capacity=count)
            for a in range(0, 2 * rank, 2):
                cut, side = _max_flow(cap, a, a + 1, math.inf)
                residual = nx.algorithms.flow.edmonds_karp(g, a, a + 1)
                assert cut == residual.graph["flow_value"] == nx.minimum_cut_value(g, a, a + 1)
                reach, stack = {a}, [a]
                while stack:
                    u = stack.pop()
                    for v, attr in residual[u].items():
                        if v not in reach and attr["capacity"] - attr["flow"] > 0:
                            reach.add(v)
                            stack.append(v)
                assert side == reach, (core, a)


# --- frozen traces of both engines ---


def trace_corpus():
    # per rank 2..8: six random words, and four images of a generator under
    # random kind 2 moves, which are primitive and take long descents
    rng = random.Random(2007)
    out = []
    for rank in range(2, 9):
        pool = [i for i in range(1, rank + 1)] + [-i for i in range(1, rank + 1)]
        for _ in range(6):
            out.append((random_reduced(rng, rank, rng.randrange(1, 41)), rank))
        for _ in range(4):
            w = Word([rng.choice(pool)])
            while len(w) < 30:
                a = rng.choice(pool)
                members = {a} | {x for x in pool if abs(x) != abs(a) and rng.random() < 0.5}
                w = MultiplierAut(a, frozenset(members)).apply(w)
            out.append((w, rank))
    return out


def test_trace_corpus_frozen():
    # sha256 frozen before the move finders moved onto the edge-count
    # matrix; ranks 2..5 pin the enum engine, 6..8 the cut engine
    corpus = trace_corpus()
    assert len(corpus) == 70 and sum(len(w) for w, _ in corpus) == 1867
    dump = json.dumps(
        [whitehead_minimize(w, rank).to_json_dict() for w, rank in corpus], sort_keys=True
    )
    assert (
        hashlib.sha256(dump.encode()).hexdigest()
        == "b558ae9c08a0871513fcb4f4e7b1c59d42a7a44e258c43c348db256c8170f04a"
    )


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
