"""Tests for whitehead_minimize, is_primitive, the rank 2 basis pair
criterion, and the automorphism orbit oracle they are checked against."""

import functools
import hashlib
import json
import math
import random

import pytest

from freegroups import primitivity
from freegroups.automorphisms import MultiplierAut, _apply_k2_letters, apply_aut, enumerate_kind2
from freegroups.primitivity import (
    MinimizationTrace,
    _find_move,
    _max_flow,
    _minimize_letters,
    _power_image,
    is_basis_pair_f2,
    is_primitive,
    primitive_orbit_oracle,
    whitehead_minimize,
)
from freegroups.verify import build_w, wij_family
from freegroups.whitehead_graph import (
    _cyclic_matrix,
    _separability,
    edge_matrix,
    vertex_letters,
    whitehead_edges,
)
from freegroups.words import (
    Word,
    _cyclic_strip,
    are_conjugate,
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


def test_trace_json_form_follows_the_letters():
    # the rank of the call does not travel with the words it returns
    d = whitehead_minimize(Word([1, 2, 1, 2, 1]), 30).to_json_dict()
    assert (d["start"], d["final"]) == ("ababa", "b")


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
    # the move finder's matrix spans only the generators in the word, so a
    # large declared rank costs nothing and changes no trace
    rng = random.Random(48)
    gens = (3, 70, 150, 256)
    pool = list(gens) + [-g for g in gens]
    w = Word([70])
    while len(w) < 600:
        a = rng.choice(pool)
        members = {a} | {x for x in pool if abs(x) != abs(a) and rng.random() < 0.5}
        w = apply_aut(MultiplierAut(a, frozenset(members)), w)
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
        assert is_primitive(w, 2) == is_primitive(c * w * c.inverse(), 2)


# --- the cut-vertex certificate in is_primitive ---


def descent_verdict(letters, rank):
    # the pure descent, which never reads the cut-vertex lemma
    return len(_minimize_letters(letters, rank, verdict=True)[0]) == 1


# A graph on 2n vertices with no cut vertex has every degree >= 2, so at
# rank 3 only cores of length >= 6 can be settled by the lemma; the (3, 6)
# ball is compared with the single-step descent below.
@pytest.mark.parametrize("rank,max_len,settled", [(1, 8, 14), (2, 7, 3160), (3, 5, 0)])
def test_certificate_matches_the_descent_on_balls(rank, max_len, settled):
    lemma = 0
    for w in iter_reduced_words(rank, max_len, include_empty=True):
        assert is_primitive(w, rank) == descent_verdict(w.letters, rank), format_word(w)
        core = _cyclic_strip(w.letters)[0]
        lemma += len(core) > 1 and not _separability(_cyclic_matrix(core), rank)[0]
    assert lemma == settled


# The lemma as is_primitive applies it: in the free factor of the
# generators the core uses, at rank len(m) // 2, so a missing generator
# no longer leaves the graph disconnected.  It settles more cores.
@pytest.mark.parametrize("rank,max_len,settled", [(1, 8, 14), (2, 7, 3264), (3, 5, 672)])
def test_free_factor_certificate_matches_the_descent_on_balls(monkeypatch, rank, max_len, settled):
    descents = []

    def counting_descent(*args, **kwargs):
        descents.append(args[0])
        return _minimize_letters(*args, **kwargs)

    monkeypatch.setattr(primitivity, "_minimize_letters", counting_descent)
    lemma = 0
    for w in iter_reduced_words(rank, max_len, include_empty=True):
        core = _cyclic_strip(w.letters)[0]
        m = _cyclic_matrix(core)
        if len(core) > 1 and not _separability(m, len(m) // 2)[0]:
            assert not descent_verdict(w.letters, rank), format_word(w)
            assert not is_primitive(w, rank), format_word(w)
            assert descents == [], format_word(w)  # answered by the lemma alone
            lemma += 1
    assert lemma == settled


@pytest.mark.parametrize(
    "text,rank,expected",
    [
        ("a", 1, True),  # the graph of e1 is connected with no cut vertex
        ("aa", 1, False),
        ("aA", 2, False),  # reduces to the empty word
        ("c", 3, True),
        ("ab", 3, True),  # misses e3, so its graph is disconnected
        ("abAB", 3, False),
        ("abAB", 2, False),
        ("b^2a^2", 2, False),
    ],
)
def test_certificate_fixed_cases(text, rank, expected):
    w = parse_word(text)
    assert is_primitive(w, rank) is expected
    assert descent_verdict(w.letters, rank) is expected


def test_certificate_reads_the_cyclic_core():
    # conjugates that are not cyclically reduced: the lemma is applied to
    # the core, whose graph differs from that of the word itself
    c = parse_word("ab")
    for text, expected in (("a^2b^2", False), ("ab^2", True)):
        t = c * parse_word(text) * ~c
        assert not t.is_cyclically_reduced
        assert is_primitive(t, 2) is expected
        assert descent_verdict(t.letters, 2) is expected


def test_certificate_runs_no_flow_on_the_seed_word(monkeypatch):
    flows = []

    def counting_flow(*args):
        flows.append(args[1:3])
        return max_flow(*args)

    max_flow = primitivity._max_flow
    monkeypatch.setattr(primitivity, "_max_flow", counting_flow)
    assert not is_primitive(build_w(3), 3)
    assert flows == []
    # the descent alone needs flows to learn that no move exists
    assert not descent_verdict(build_w(3).letters, 3)
    assert flows != []


def test_separable_cores_descend_from_the_tested_matrix(monkeypatch):
    # a core that the lemma cannot settle hands its matrix to the descent,
    # so its edge matrix is built once, not twice
    built = []

    def counting_matrix(core):
        built.append(core)
        return _cyclic_matrix(core)

    monkeypatch.setattr(primitivity, "_cyclic_matrix", counting_matrix)
    assert is_primitive(parse_word("ababa"), 2)
    # ababa descends 5 -> 3 -> 2 -> 1: one matrix per step, the first of
    # them the one the lemma read
    assert built == [(1, 2, 1, 2, 1), (2, 2, 1), (2, 1)]


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


def gain_by_pairs(core, aut):
    return cross_by_pairs(core, aut.members) - degree_by_pairs(core, aut.multiplier)


@functools.cache
def kind2(rank):
    return enumerate_kind2(rank)


def first_move_by_scan(core, rank):
    # the plain scan over enumerate_kind2 that the enumeration-order policy
    # must reproduce, scoring each set on the edge list
    edges = whitehead_edges(core)
    for aut in kind2(rank):
        members, a = aut.members, aut.multiplier
        gain = sum(((x in members) != (y in members)) - (x == a) - (y == a) for x, y in edges)
        if gain < 0:
            return aut, gain
    return None


def test_predicted_length_matches_actual():
    # every kind 2 move changes the cyclic length by its cross minus the
    # degree of its multiplier, and that is the gain either policy reports
    rng = random.Random(42)
    for core in random_cores(rng, 3, 60, 10):
        for aut in kind2(3):
            actual = len(_cyclic_strip(_apply_k2_letters(aut.multiplier, aut.members, core))[0])
            assert len(core) + gain_by_pairs(core, aut) == actual, (core, aut)
        for use_cut in (False, True):
            found = _find_move(core, use_cut)
            if found is None:
                assert first_move_by_scan(core, 3) is None, core
            else:
                assert found[1] == gain_by_pairs(core, found[0]) < 0, (core, found)
    # a word that is not cyclically reduced has a loop at its wrap-around,
    # which adds 2 to the degree of its vertex and never crosses
    looped = 0
    while looped < 40:
        w = random_reduced(rng, 3, rng.randrange(3, 10)).letters
        if w[0] != -w[-1]:
            continue
        looped += 1
        assert _find_move(w, False) == first_move_by_scan(w, 3), w
        found = _find_move(w, True)
        assert found is None or found[1] == gain_by_pairs(w, found[0]) < 0, w


def test_enum_finder_matches_plain_scan():
    rng = random.Random(44)
    for rank in (2, 3, 4, 5, 6):
        for core in random_cores(rng, rank, 40, 16):
            assert _find_move(core, use_cut=False) == first_move_by_scan(core, rank), core


def flow_on_copy(cap, s, t, bound):
    # _max_flow pushes its flow through the matrix it is given
    return _max_flow([dict(row) for row in cap], s, t, bound)


def min_cut_side(core, multiplier):
    # the letters on the source side of the minimum cut nearest the
    # multiplier, which seeds the enumeration-order search
    gens = sorted({abs(x) for x in core})
    names = vertex_letters(gens)
    cap = edge_matrix(whitehead_edges(core), gens)
    a = names.index(multiplier)
    _, side = _max_flow(cap, a, a ^ 1, math.inf)
    return {names[v] for v in side}


def test_enum_finder_fixed_cases():
    # e1^-1 e2^-1 e3^-1 e3^-1: with e2 fixed to e2^-1, neither, e3 nor
    # e3^-1 alone completes an improving set for e1, only both do
    core = (-1, -2, -3, -3)
    aut, gain = _find_move(core, use_cut=False)
    assert (aut, gain) == first_move_by_scan(core, 3)
    assert aut == MultiplierAut(1, frozenset({1, -2, 3, -3})) and gain == -1
    # the minimum cut side for e2 holds both e3 and e3^-1, but the first
    # pattern of e3 that still improves is e3^-1 alone
    core = (-3, -3, -2, -3, -2, -1, 2)
    aut, gain = _find_move(core, use_cut=False)
    assert (aut, gain) == first_move_by_scan(core, 3)
    assert aut == MultiplierAut(2, frozenset({2, -3})) and gain == -1
    assert min_cut_side(core, 2) == {2, 3, -3}
    # a rank 4 word on e1 and e3 only: the missing e2 and e4 take the
    # pattern neither, and the moves match ababa's in rank 2
    core = (1, 3, 1, 3, 1)
    assert _find_move(core, use_cut=False) == first_move_by_scan(core, 4)
    tr = whitehead_minimize(Word(core), 4)
    rank2 = whitehead_minimize(parse_word("ababa"), 2)
    relabel = {1: 1, -1: -1, 3: 2, -3: -2}
    assert [
        (relabel[aut.multiplier], {relabel[x] for x in aut.members}, n) for aut, n in tr.steps
    ] == [(aut.multiplier, set(aut.members), n) for aut, n in rank2.steps]


def test_min_cut_equals_min_cross_over_member_sets():
    # the pruning lemma: a multiplier has an improving set exactly when its
    # uncapped min cut is below its degree
    rng = random.Random(45)
    for rank in (2, 3, 4):
        kind2 = enumerate_kind2(rank)
        sets = 4 ** (rank - 1)
        for core in random_cores(rng, rank, 25, 14):
            rows = edge_matrix(whitehead_edges(core), range(1, rank + 1))
            for a in range(2 * rank):
                cut, side = flow_on_copy(rows, a, a ^ 1, math.inf)
                auts = kind2[sets * a : sets * (a + 1)]
                assert cut == min(cross_by_pairs(core, t.members) for t in auts)
                assert a in side and a ^ 1 not in side


def test_capped_flow_stops_at_bound():
    rng = random.Random(46)
    for core in random_cores(rng, 3, 40, 14):
        rows = edge_matrix(whitehead_edges(core), range(1, 4))
        for a in range(6):
            cut, _ = flow_on_copy(rows, a, a ^ 1, math.inf)
            for bound in range(cut + 2):
                flow, side = flow_on_copy(rows, a, a ^ 1, bound)
                assert flow == min(cut, bound)
                assert (side is None) == (cut >= bound)


def test_max_flow_matches_networkx():
    nx = pytest.importorskip("networkx")
    rng = random.Random(47)
    for rank in (2, 3, 4, 6):
        for core in random_cores(rng, rank, 15, 30):
            cap = edge_matrix(whitehead_edges(core), range(1, rank + 1))
            g = nx.Graph()
            g.add_nodes_from(range(2 * rank))
            for u, row in enumerate(cap):
                for v, count in row.items():
                    if u < v:
                        g.add_edge(u, v, capacity=count)
            for a in range(0, 2 * rank, 2):
                cut, side = flow_on_copy(cap, a, a + 1, math.inf)
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


def random_multigraph(rng, size):
    """A symmetric sparse edge-count matrix on size vertices with loops
    and parallel edges; a loop adds 2 to its diagonal entry, as in
    edge_matrix."""
    cap = [{} for _ in range(size)]
    for u in range(size):
        for v in range(u, size):
            if rng.random() < 0.5:
                count = rng.randint(1, 3)
                cap[u][v] = cap[u].get(v, 0) + (2 * count if u == v else count)
                if u != v:
                    cap[v][u] = count
    return cap


def brute_force_min_cut(cap, s, t):
    """(minimum cut, inclusion-least source side) over every vertex set
    holding s and avoiding t; minimum cuts are closed under intersection."""
    others = [v for v in range(len(cap)) if v not in (s, t)]
    best, least = math.inf, None
    for mask in range(2 ** len(others)):
        side = {s} | {v for i, v in enumerate(others) if mask >> i & 1}
        cut = sum(c for u in side for v, c in cap[u].items() if v not in side)
        if cut < best:
            best, least = cut, side
        elif cut == best:
            least &= side
    return best, least


def test_max_flow_matches_brute_force():
    rng = random.Random(48)
    for trial in range(300):
        cap = random_multigraph(rng, rng.randint(2, 8))
        s, t = rng.sample(range(len(cap)), 2)
        cut, least = brute_force_min_cut(cap, s, t)
        res = [dict(row) for row in cap]
        assert _max_flow(res, s, t, math.inf) == (cut, least), (cap, s, t)
        # the flow went through the given matrix, which holds the residual
        assert (res != cap) == (cut > 0)
        assert flow_on_copy(cap, s, t, cut + 1) == (cut, least)
        for bound in range(cut + 1):
            assert flow_on_copy(cap, s, t, bound) == (bound, None)


# --- frozen traces of both selection policies ---


def generator_image(rng, rank, length):
    # the image of a random generator under random kind 2 moves, at least
    # length letters long: primitive, with a long descent
    pool = [i for i in range(1, rank + 1)] + [-i for i in range(1, rank + 1)]
    w = Word([rng.choice(pool)])
    while len(w) < length:
        a = rng.choice(pool)
        members = {a} | {x for x in pool if abs(x) != abs(a) and rng.random() < 0.5}
        w = apply_aut(MultiplierAut(a, frozenset(members)), w)
    return w


def trace_corpus():
    # per rank 2..8: six random words, and four generator images
    rng = random.Random(2007)
    out = []
    for rank in range(2, 9):
        for _ in range(6):
            out.append((random_reduced(rng, rank, rng.randrange(1, 41)), rank))
        for _ in range(4):
            out.append((generator_image(rng, rank, 30), rank))
    return out


def test_trace_corpus_frozen():
    # sha256 frozen before the move finders moved onto the edge-count
    # matrix; ranks 2..5 pin the enumeration-order policy, 6..8 the
    # minimum cut side
    corpus = trace_corpus()
    assert len(corpus) == 70 and sum(len(w) for w, _ in corpus) == 1867
    dump = json.dumps(
        [whitehead_minimize(w, rank).to_json_dict() for w, rank in corpus], sort_keys=True
    )
    assert (
        hashlib.sha256(dump.encode()).hexdigest()
        == "b558ae9c08a0871513fcb4f4e7b1c59d42a7a44e258c43c348db256c8170f04a"
    )


def test_covering_translates_frozen():
    # sha256 frozen before the max-flow loops were rewritten.  The nine
    # rank 3 translates e_i w e_j a of every a in the rank 3 ball up to
    # length 3 are the family the long-words bench times, at a smaller
    # ball; they pin the enumeration-order policy on it.  All 1,683 are
    # non-primitive, and 252 of them take at least one step.
    translates = [wij * a for a in iter_reduced_words(3, 3) for wij in wij_family(3).values()]
    assert len(translates) == 1683
    verdicts = "".join("P" if is_primitive(t, 3) else "N" for t in translates)
    traces = [tr for tr in (whitehead_minimize(t, 3) for t in translates) if tr.steps]
    assert len(traces) == 252
    dump = json.dumps([tr.to_json_dict() for tr in traces], sort_keys=True)
    assert (
        hashlib.sha256(verdicts.encode()).hexdigest()
        == "b289c0d246f8508a401e3b4d7e6ef15340e1577f7bbb46dc71bc0247062b1420"
    )
    assert (
        hashlib.sha256(dump.encode()).hexdigest()
        == "3f3aabd4de3b2fcdac4e6efce6899375bd7d08f59df462294bbc6987b13b0678"
    )


# --- the two selection policies agree ---


def descend(core, use_cut):
    while len(core) > 1:
        found = _find_move(core, use_cut)
        if found is None:
            break
        aut, _ = found
        core = _cyclic_strip(_apply_k2_letters(aut.multiplier, aut.members, core))[0]
    return core


def test_engines_reach_same_terminal_length():
    rng = random.Random(43)
    for rank in (2, 3, 6):
        words = [random_reduced(rng, rank, rng.randrange(0, 11)) for _ in range(120)]
        words += [generator_image(rng, rank, 20) for _ in range(10)]
        for w in words:
            core = _cyclic_strip(w.letters)[0]
            assert len(descend(core, False)) == len(descend(core, True)), w


def test_cut_engine_used_at_high_rank():
    # rank 6 is past the enumeration limit; primitive and non-primitive
    # verdicts must still come out right
    w = Word([1, 2, 3, 4, 5, 6])
    assert is_primitive(w, 6)
    squares = Word([2, 2, 2, 3, 3, 3, 4, 4, 4, 5, 5, 5, 6, 6])
    assert not is_primitive(squares, 6)


# --- verdict-only descent: minimum cut moves and power steps ---


def terminal_lengths(letters, rank):
    # terminal cyclic lengths of the single-step and the verdict descent
    return (
        len(_minimize_letters(letters, rank)[0]),
        len(_minimize_letters(letters, rank, verdict=True)[0]),
    )


@pytest.mark.parametrize("rank,max_len,count", [(2, 8, 13_120), (3, 6, 23_436)])
def test_verdict_descent_matches_single_steps_on_balls(rank, max_len, count):
    words = list(iter_reduced_words(rank, max_len, include_empty=False))
    assert len(words) == count
    for w in words:
        single, verdict = terminal_lengths(w.letters, rank)
        assert single == verdict, format_word(w)
        assert is_primitive(w, rank) == (single == 1), format_word(w)


def test_verdict_descent_matches_single_steps_on_covering_translates():
    translates = [wij * a for a in iter_reduced_words(3, 3) for wij in wij_family(3).values()]
    assert len(translates) == 1683
    for t in translates:
        single, verdict = terminal_lengths(t.letters, 3)
        assert single == verdict, format_word(t)


def test_power_steps_shorten_the_descent_of_b_a_k():
    # b a^k takes one single move per letter; the verdict descent applies
    # the repeated move as a power and needs only a few steps
    letters = (2,) + (1,) * 1000
    core, steps = _minimize_letters(letters, 2)
    assert len(core) == 1 and len(steps) == 1000
    core, steps = _minimize_letters(letters, 2, verdict=True)
    assert len(core) == 1 and len(steps) <= 12
    assert [n for _, n in steps] == sorted({n for _, n in steps}, reverse=True)


def test_power_image_is_the_doubled_power():
    # _power_image reads phi^m off the runs of the multiplier; here phi is
    # applied letter by letter, m is doubled on the measured cyclic lengths,
    # and the two images must be conjugate
    rng = random.Random(49)
    for rank in (2, 3):
        for core in random_cores(rng, rank, 40, 12):
            for aut in rng.sample(kind2(rank), 6):
                a, members = aut.multiplier, aut.members
                if all(abs(x) == abs(a) for x in core):
                    continue
                powers = [core]

                def power(j):
                    while len(powers) <= j:
                        powers.append(_cyclic_strip(_apply_k2_letters(a, members, powers[-1]))[0])
                    return powers[j]

                m = 1
                while len(power(2 * m)) < len(power(m)):
                    m *= 2
                image, predicted = _power_image(a, members, core)
                assert predicted == len(image) == len(power(m)), (core, aut)
                assert are_conjugate(Word(image), Word(power(m))), (core, aut)


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


def test_rank_must_be_an_int():
    # is_primitive(Word([1]), 1.5) used to answer True
    for rank in (1.5, 2.0, True):
        with pytest.raises(ValueError, match="rank must be an int"):
            is_primitive(Word([1]), rank)
        with pytest.raises(ValueError, match="rank must be an int"):
            whitehead_minimize(Word([1]), rank)


def test_refuses_input_that_is_no_word():
    for entry in (is_primitive, whitehead_minimize):
        for bad in ("ab", (1, 2)):
            with pytest.raises(TypeError, match=f"w must be Word, got {type(bad).__name__}"):
                entry(bad, 2)
    with pytest.raises(TypeError, match="a must be Word, got str"):
        is_basis_pair_f2("a", parse_word("b"))
    with pytest.raises(TypeError, match="b must be Word, got tuple"):
        is_basis_pair_f2(parse_word("a"), (2,))


def test_basis_pair_is_commutator_conjugacy_on_ball():
    # the one pass test against the definition it stands for
    ball = list(iter_reduced_words(2, 6))
    targets = (commutator(Word([1]), Word([2])), commutator(Word([2]), Word([1])))
    pairs = 0
    for a in ball:
        for b in ball:
            if len(a) + len(b) > 6:
                break
            pairs += 1
            c = commutator(a, b)
            expected = any(are_conjugate(c, target) for target in targets)
            assert is_basis_pair_f2(a, b) == expected, (a, b)
    assert pairs == 11665


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


@pytest.mark.parametrize(
    "rank,max_len,message",
    [
        (2, True, "max_len must be an int, got True"),
        (2, 2.5, "max_len must be an int, got 2.5"),
        (True, 2, "rank must be an int, got True"),
        (2.0, 2, "rank must be an int, got 2.0"),
    ],
)
def test_oracle_refuses_a_rank_or_length_that_is_no_int(rank, max_len, message, monkeypatch):
    # the values are checked before any orbit is closed, which is
    # exponential in max_len
    def closure(*args):
        raise AssertionError("the oracle began closing orbits")

    monkeypatch.setattr(primitivity, "enumerate_kind1", closure)
    with pytest.raises(ValueError, match=f"^{message}$"):
        primitive_orbit_oracle(rank, max_len)


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
    # rank 6 exercises the minimum cut side policy
    for n in range(1, 5):
        letters = []
        for i in range(2, n + 2):
            letters += [i, i, i]
        letters += [n + 2, n + 2]
        assert not is_primitive(Word(letters), n + 2)
