"""Tests for subgroup graph folding, membership, rank, and confluence."""

import hashlib
import json
import pickle
import random
import re

import pytest

from freegroups.stallings import SubgroupGraph, _fold_letters, build_subgroup_graph
from freegroups.words import Word, iter_reduced_words, parse_word


FOLD_CORPUS_SHA256 = "c48e929f1e068dab12c15afed1a2accd72a61668e9f0f9476ff88f713deb165a"


def words(*texts):
    return [parse_word(t) for t in texts]


def random_reduced(rng, rank, length):
    pool = [i for i in range(1, rank + 1)] + [-i for i in range(1, rank + 1)]
    letters = []
    while len(letters) < length:
        x = rng.choice(pool)
        if letters and x == -letters[-1]:
            continue
        letters.append(x)
    return Word(letters)


# --- basic shapes ---


def test_trivial_subgroup():
    g = build_subgroup_graph([], 2)
    assert g.num_vertices == 1
    assert g.num_edges == 0
    assert g.subgroup_rank() == 0
    assert g.contains(parse_word(""))
    assert not g.contains(parse_word("a"))
    assert not g.generates_whole_group()


def test_single_generator_loop():
    g = build_subgroup_graph(words("a"), 2)
    assert g.num_vertices == 1
    assert g.edges == ((0, 1, 0),)
    assert g.subgroup_rank() == 1
    assert not g.generates_whole_group()
    assert g.contains(parse_word("aaa"))
    assert g.contains(parse_word("A"))
    assert not g.contains(parse_word("b"))


def test_full_rose():
    g = build_subgroup_graph(words("a", "b"), 2)
    assert g.generates_whole_group()
    assert g.num_vertices == 1
    assert g.edges == ((0, 1, 0), (0, 2, 0))
    assert SubgroupGraph(2, 1, [(0, 2, 0), (0, 1, 0)]) == g
    # two loops of one label are not folded, so they are no graph at all
    with pytest.raises(ValueError):
        SubgroupGraph(2, 1, [(0, 1, 0), (0, 1, 0)])


def test_folding_collapses_to_rose():
    # a b and a generate everything
    g = build_subgroup_graph(words("ab", "a"), 2)
    assert g.generates_whole_group()


def test_square_and_letter():
    g = build_subgroup_graph(words("aa", "b"), 2)
    assert g.num_vertices == 2
    assert g.num_edges == 3
    assert g.subgroup_rank() == 2
    yes = ["", "aa", "b", "aab", "baa", "AA", "aabaa", "bAAb"]
    no = ["a", "A", "ab", "ba", "bab", "aba", "abA"]
    for t in yes:
        assert g.contains(parse_word(t)), t
    for t in no:
        assert not g.contains(parse_word(t)), t


def test_commutator_cycle():
    g = build_subgroup_graph(words("abAB"), 2)
    assert g.num_vertices == 4
    assert g.num_edges == 4
    assert g.subgroup_rank() == 1
    assert g.contains(parse_word("abAB"))
    assert g.contains(parse_word("abAB") ** 2)
    assert g.contains(parse_word("abAB") ** -1)
    assert not g.contains(parse_word("ab"))
    assert not g.contains(parse_word("baBA") * parse_word("ab"))


def test_conjugate_generator_keeps_hair():
    # the spur from the basepoint survives: reduced closed walks never
    # enter it except straight through the loop at its end
    g = build_subgroup_graph(words("abA"), 2)
    assert g.num_vertices == 2
    assert sorted(g.edges) == [(0, 1, 1), (1, 2, 1)]
    assert g.subgroup_rank() == 1
    assert g.contains(parse_word("abA"))
    assert g.contains(parse_word("abbA"))
    assert not g.contains(parse_word("b"))
    assert not g.contains(parse_word("a"))


def test_index_two_kernel():
    # even length words in rank 2: vertices split by parity
    g = build_subgroup_graph(words("aa", "bb", "ab"), 2)
    assert g.num_vertices == 2
    assert g.num_edges == 4
    assert g.subgroup_rank() == 3
    rng = random.Random(50)
    for _ in range(300):
        w = random_reduced(rng, 2, rng.randrange(0, 9))
        assert g.contains(w) == (len(w) % 2 == 0), w


def test_rank3_generators():
    g = build_subgroup_graph(words("ab", "c"), 3)
    assert g.subgroup_rank() == 2
    assert g.contains(parse_word("abc"))
    assert g.contains(parse_word("cab"))
    assert not g.contains(parse_word("a"))
    assert not g.generates_whole_group()
    assert build_subgroup_graph(words("ab", "b", "ca"), 3).generates_whole_group()


# --- membership closure under products ---


def test_contains_random_products():
    rng = random.Random(51)
    gen_sets = [
        words("aa", "b"),
        words("abAB"),
        words("ab", "ba"),
        words("aab", "bba", "c"),
    ]
    ranks = [2, 2, 2, 3]
    for gens, rank in zip(gen_sets, ranks):
        g = build_subgroup_graph(gens, rank)
        for _ in range(200):
            acc = Word([])
            for _ in range(rng.randrange(0, 6)):
                f = rng.choice(gens)
                acc = acc * (f if rng.random() < 0.5 else ~f)
            assert g.contains(acc), (gens, acc)


def test_membership_needs_closed_walk_at_base():
    # cyclic permutation of a member usually is not a member
    g = build_subgroup_graph(words("aab"), 2)
    assert g.contains(parse_word("aab"))
    assert not g.contains(parse_word("aba"))
    assert not g.contains(parse_word("baa"))


# --- confluence: merge order does not matter ---


def test_fold_order_confluence():
    # generator order and inversion change which merges the fold makes,
    # the seeds then pick among them; neither changes the subgroup
    rng = random.Random(52)
    for trial in range(60):
        rank = rng.choice([2, 3])
        gens = [
            random_reduced(rng, rank, rng.randrange(1, 8))
            for _ in range(rng.randrange(1, 5))
        ]
        reference = build_subgroup_graph(gens, rank)
        for seed in range(4):
            moved = [~g if rng.random() < 0.5 else g for g in gens]
            rng.shuffle(moved)
            shuffled = build_subgroup_graph(moved, rank, rng=random.Random(seed))
            assert shuffled == reference, (gens, moved, seed)
            assert hash(shuffled) == hash(reference)


class RecordingRandom(random.Random):
    """A Random that records each pick among two or more pending merges."""

    def __init__(self, seed):
        super().__init__(seed)
        self.choices = []

    def randrange(self, *args):
        pick = super().randrange(*args)
        if args[0] > 1:
            self.choices.append((args[0], pick))
        return pick


def test_seeds_take_different_merge_sequences():
    # rng picks the next pending merge, so different seeds must make
    # different choices on a fold that has choices to make, yet give the
    # same graph; a streamed fold has few, 64 of the 400 corpus sets
    seeded = [RecordingRandom(seed) for seed in range(6)]
    for rng in seeded:
        build_subgroup_graph(words("aaa", "aa", "abAB", "aBab"), 2, rng=rng)
        assert rng.choices
    assert len({tuple(rng.choices) for rng in seeded}) > 1
    with_choices = 0
    for rank, gens, _, default, _ in fold_corpus():
        histories = set()
        for seed in range(6):
            rng = RecordingRandom(seed)
            assert build_subgroup_graph(gens, rank, rng=rng) == default
            histories.add(tuple(rng.choices))
        if histories != {()}:
            with_choices += 1
            assert len(histories) > 1, gens
    assert with_choices > 0


def test_generator_order_irrelevant():
    a = build_subgroup_graph(words("aa", "bb", "ab"), 2)
    b = build_subgroup_graph(words("ab", "aa", "bb"), 2)
    assert a == b


def test_inverse_generators_same_graph():
    a = build_subgroup_graph(words("ab", "cb"), 3)
    b = build_subgroup_graph([~w for w in words("ab", "cb")], 3)
    assert a == b


# --- serialization ---


def test_dot_output():
    g = build_subgroup_graph(words("aa", "b"), 2)
    dot = g.to_dot()
    assert dot.startswith("digraph subgroup {")
    assert "0 [shape=doublecircle];" in dot
    assert '[label="e1"]' in dot
    assert '[label="e2"]' in dot
    assert dot.endswith("}\n")
    assert g.to_dot() == dot


def test_json_shape():
    g = build_subgroup_graph(words("aa", "b"), 2)
    d = g.to_json_dict()
    assert d["rank"] == 2
    assert d["num_vertices"] == 2
    assert d["subgroup_rank"] == 2
    assert sorted(d["edges"]) == [[0, 0, 2], [0, 1, 1], [1, 0, 1]]
    for u, v, label in d["edges"]:
        assert 0 <= u < 2 and 0 <= v < 2 and label in (1, 2)


# --- validation ---


def test_contains_refuses_input_that_is_no_word():
    g = build_subgroup_graph(words("ab"), 2)
    for bad, name in (("a", "str"), ((1,), "tuple"), ([1], "list")):
        with pytest.raises(TypeError, match=f"w must be Word, got {name}"):
            g.contains(bad)


def test_rejects_bad_input():
    with pytest.raises(ValueError):
        build_subgroup_graph(words("abc"), 2)
    with pytest.raises(ValueError):
        build_subgroup_graph([], 0)
    with pytest.raises(TypeError, match="generators must be Word, got str"):
        build_subgroup_graph(["ab"], 2)
    g = build_subgroup_graph(words("ab"), 2)
    with pytest.raises(ValueError):
        g.contains(parse_word("c"))
    with pytest.raises(ValueError):
        SubgroupGraph(2, 1, [(0, 3, 0)])
    with pytest.raises(ValueError):
        SubgroupGraph(2, 1, [(0, 1, 5)])
    with pytest.raises(ValueError):
        SubgroupGraph(2, 0, [])
    with pytest.raises(ValueError):
        SubgroupGraph(0, 1, [])


def test_constructor_refuses_floats_and_bools():
    # one letter test, words._is_letter, for the labels; vertex numbers and
    # the vertex count must be ints too, not floats or bools
    for label in (True, 1.0, 1.5):
        with pytest.raises(ValueError, match=re.escape(f"edge label {label} outside 1..2")):
            SubgroupGraph(2, 1, [(0, label, 0)])
    for end in (True, 1.0):
        with pytest.raises(ValueError, match="off the vertex range"):
            SubgroupGraph(1, 2, [(0, 1, end), (end, 1, 0)])
    for count in (2.5, 1.0, True):
        with pytest.raises(ValueError, match="vertex count must be an int"):
            SubgroupGraph(2, count, [])


def test_rank_must_be_an_int():
    # a float or bool rank used to pass: rank 2.5 came back on the graph,
    # and rank True made <a> the whole group
    for rank in (2.5, 1.0, True):
        with pytest.raises(ValueError, match="rank must be an int"):
            build_subgroup_graph([Word([1])], rank)
        with pytest.raises(ValueError, match="rank must be an int"):
            SubgroupGraph(rank, 1, [])


def test_constructor_rejects_unfolded_edges():
    # an unfolded edge set used to give wrong answers: the basepoint's a loop
    # was missed by contains, and a doubled loop counted twice in the rank
    with pytest.raises(ValueError):
        SubgroupGraph(1, 2, [(0, 1, 1), (0, 1, 0)])  # two a edges leave 0
    with pytest.raises(ValueError):
        SubgroupGraph(2, 1, [(0, 1, 0), (0, 1, 0)])
    with pytest.raises(ValueError):
        SubgroupGraph(1, 2, [(0, 1, 1), (1, 1, 1)])  # two a edges enter 1
    # a folded graph whose edges meet at one vertex with distinct labels
    g = SubgroupGraph(2, 2, [(0, 1, 1), (1, 2, 0), (1, 1, 0)])
    assert g == build_subgroup_graph(words("ab", "aa"), 2)


def test_constructor_needs_connected_edges():
    # an isolated vertex 1 used to count in the rank: <a> reported rank 0
    with pytest.raises(ValueError, match="cannot be reached from the basepoint"):
        SubgroupGraph(1, 2, [(0, 1, 0)])
    with pytest.raises(ValueError, match="cannot be reached"):
        SubgroupGraph(2, 3, [(0, 1, 0), (1, 2, 2), (2, 2, 1)])


def test_constructor_renumbers_canonically():
    # the graph of <a^3> numbered otherwise used to compare unequal
    g = SubgroupGraph(1, 3, [(0, 1, 2), (2, 1, 1), (1, 1, 0)])
    assert g == build_subgroup_graph([Word([1, 1, 1])], 1)
    assert g.edges == ((0, 1, 1), (1, 1, 2), (2, 1, 0))
    assert g.contains(Word([1, 1, 1])) and not g.contains(Word([1]))


def test_empty_generators_skipped():
    g = build_subgroup_graph([Word([]), parse_word("a")], 2)
    assert g.edges == ((0, 1, 0),)


# --- frozen corpus, scale and the no-hair invariant ---


def fold_corpus():
    """Seeded generator sets at ranks 1-4, with empty words, inverse pairs
    and duplicate generators; each is folded in the default and in a
    seeded merge order.  Yields (rank, gens, queries, default, seeded)."""
    rng = random.Random(53)
    for trial in range(400):
        rank = 1 + trial % 4
        gens = [
            random_reduced(rng, rank, rng.randrange(0, 9))
            for _ in range(rng.randrange(0, 5))
        ]
        if gens and trial % 5 == 1:
            gens.append(~rng.choice(gens))
        if gens and trial % 5 == 2:
            gens.append(rng.choice(gens))
        if trial % 7 == 3:
            gens.insert(rng.randrange(len(gens) + 1), Word([]))
        queries = list(gens) + [random_reduced(rng, rank, rng.randrange(0, 7)) for _ in range(4)]
        for _ in range(4):
            acc = Word([])
            for _ in range(rng.randrange(0, 4)):
                if gens:
                    f = rng.choice(gens)
                    acc = acc * (f if rng.random() < 0.5 else ~f)
            queries.append(acc)
        default = build_subgroup_graph(gens, rank)
        seeded = build_subgroup_graph(gens, rank, rng=random.Random(trial))
        yield rank, gens, queries, default, seeded


def test_fold_corpus_frozen():
    digest = hashlib.sha256()
    for rank, gens, queries, default, seeded in fold_corpus():
        for g in (default, seeded):
            record = (
                json.dumps(g.to_json_dict(), sort_keys=True),
                g.to_dot(),
                g.subgroup_rank(),
                g.generates_whole_group(),
                [g.contains(q) for q in queries],
            )
            digest.update(repr(record).encode())
    # frozen before the union-find fold replaced the re-sorting one
    assert digest.hexdigest() == FOLD_CORPUS_SHA256


def graph_answers(g, queries):
    return g.to_json_dict(), g.to_dot(), hash(g), [g.contains(q) for q in queries]


def test_numbering_independent_of_first_read():
    # the numbering is made on the first read of edges; reading the counts,
    # the rose test or contains first must not change any later answer
    reads = (
        lambda g: g.generates_whole_group(),
        lambda g: g.num_vertices,
        lambda g: g.num_edges,
        lambda g: g.contains(Word([1])),
    )
    for rank, gens, queries, default, _ in fold_corpus():
        default.edges  # the first read numbers it
        reference = graph_answers(default, queries)
        for read in reads:
            g = build_subgroup_graph(gens, rank)
            read(g)
            assert graph_answers(g, queries) == reference, gens
            assert g == default


def test_pickle_round_trip():
    for rank, gens, queries, g, _ in fold_corpus():
        loaded = pickle.loads(pickle.dumps(g))
        assert loaded == g
        assert graph_answers(loaded, queries) == graph_answers(g, queries)


def test_rose_test_numbers_only_candidate_roses():
    # every graph is folded, so the counts alone decide and none is numbered
    for rank, gens, _, g, _ in fold_corpus():
        g.generates_whole_group()
        assert g._edges is None, gens


def test_contains_never_numbers():
    # contains walks the folded tables, so membership numbers no graph
    for rank, gens, queries, g, _ in fold_corpus():
        for q in queries:
            g.contains(q)
        assert g._edges is None, gens


def test_rose_test_matches_edges_on_nielsen_ball():
    ball = list(iter_reduced_words(2, 6))
    for a in ball:
        for b in ball:
            if len(a) + len(b) > 6:
                break
            lazy = build_subgroup_graph([a, b], 2)
            whole = lazy.generates_whole_group()
            edges = build_subgroup_graph([a, b], 2).edges
            vertices = {0} | {u for u, _, _ in edges} | {v for _, _, v in edges}
            assert (lazy.num_vertices, lazy.num_edges) == (len(vertices), len(edges))
            labels = sorted(label for _, label, _ in edges)
            assert whole == (vertices == {0} and labels == [1, 2]), (a, b)


def test_no_hair_away_from_basepoint():
    for _, gens, _, g, _ in fold_corpus():
        degree = [0] * g.num_vertices
        for u, _, v in g.edges:
            degree[u] += 1
            degree[v] += 1
        assert all(d >= 2 for d in degree[1:]), gens


def test_fold_at_scale():
    # both took minutes when every merge re-sorted the edge set
    m = 200
    g = build_subgroup_graph([Word([1] * k + [2] + [-1] * k) for k in range(m + 1)], 2)
    assert (g.num_vertices, g.subgroup_rank()) == (m + 1, m + 1)
    assert g.contains(Word([1] * m + [2, 2] + [-1] * m))
    assert not g.contains(Word([1] * (m + 1) + [2] + [-1] * (m + 1)))
    assert not g.contains(Word([1]))
    k = 20000
    g = build_subgroup_graph([Word([1] * k + [2] + [-1] * k)], 2)
    assert (g.num_vertices, g.num_edges, g.subgroup_rank()) == (k + 1, k + 1, 1)
    assert g.contains(Word([1] * k + [2, 2, 2] + [-1] * k))
    assert not g.contains(Word([1] * (k - 1) + [2] + [-1] * (k - 1)))


# --- the streamed fold against the wedge it replaced ---


def wedge_then_fold(gens, rank):
    """Canonical edges of the fold as it was done before streaming: write
    the wedge of every generator's loop at the basepoint, then merge
    vertices until no two edges of one label leave or enter a vertex."""
    tables, pending = [{}], []

    def write(table, x, v):
        if table.setdefault(x, v) != v:
            pending.append((table[x], v))

    for gen in filter(len, gens):
        # the loop leaves the basepoint, passes len(gen) - 1 fresh vertices
        # and closes at the basepoint
        loop = [0, *range(len(tables), len(tables) + len(gen) - 1), 0]
        tables += [{} for _ in loop[2:]]
        for u, x, v in zip(loop, gen.letters, loop[1:]):
            write(tables[u], x, v)
            write(tables[v], -x, u)
    parent = list(range(len(tables)))
    find = lambda v: v if parent[v] == v else find(parent[v])  # noqa: E731
    while pending:
        a, b = map(find, pending.pop())
        if a != b:
            parent[b] = a
            for x, v in tables[b].items():
                write(tables[a], x, v)
    roots = sorted({find(v) for v in range(len(tables))}, key=lambda v: v != find(0))
    number = {v: i for i, v in enumerate(roots)}
    edges = {(number[v], x, number[find(w)]) for v in roots for x, w in tables[v].items() if x > 0}
    return SubgroupGraph(rank, len(roots), edges).edges


def test_stream_matches_the_wedge_on_the_corpus():
    for rank, gens, _, default, seeded in fold_corpus():
        reference = wedge_then_fold(gens, rank)
        assert default.edges == reference and seeded.edges == reference, gens


def test_stream_matches_the_wedge_on_nielsen_pairs():
    # every pair of the nielsen-xcheck claim: |a| + |b| <= 6 in rank 2
    ball = list(iter_reduced_words(2, 6, include_empty=True))
    pairs = 0
    for a in ball:
        for b in ball:
            if len(a) + len(b) > 6:
                break
            pairs += 1
            assert build_subgroup_graph([a, b], 2).edges == wedge_then_fold([a, b], 2), (a, b)
    assert pairs == 11665


def test_stream_matches_the_wedge_on_hypothesis_sets():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def generator_sets(draw):
        rank = draw(st.integers(1, 3))
        letter = st.integers(1, rank).flatmap(lambda i: st.sampled_from([i, -i]))
        return rank, draw(st.lists(st.lists(letter, max_size=12).map(Word), max_size=5))

    @hypothesis.settings(max_examples=300)
    @hypothesis.given(generator_sets())
    def check(case):
        rank, gens = case
        assert build_subgroup_graph(gens, rank).edges == wedge_then_fold(gens, rank)

    check()


def test_stream_writes_only_the_middles():
    # the prefix of a^k b a^-k up to a^(k-1) and its suffix from a^-(k-1)
    # are read along the folded graph, so each k writes two vertex tables
    # where the wedge wrote 2k; the wedge of m = 1000 wrote 1,001,001
    m = 1000
    family = [(1,) * k + (2,) + (-1,) * k for k in range(m + 1)]
    tables, find = _fold_letters(family)
    assert len(tables) <= 2 * (m + 1)
    assert len(tables) - tables.count(None) == m + 1
