"""Whitehead graph tests.

The cut vertex finder is pinned against a brute-force oracle: delete each
vertex in turn and recount connected components among the remaining ones.
The kernel itself, edge_matrix and _separation, is also checked on
arbitrary multigraphs, with loops, parallel edges and generators that
carry no edge, against a Counter of edge pairs and against networkx.
"""

import hashlib
import random
import re
import sys
from collections import Counter

import networkx as nx
import pytest

from freegroups.cli import main
from freegroups.whitehead_graph import (
    WhiteheadGraph,
    _separation,
    build_whitehead_graph,
    edge_matrix,
    whitehead_edges,
)
from freegroups.words import Word, format_word, iter_reduced_words, letter_key, parse_word


def brute_components(vertices, edges, removed=None):
    verts = [v for v in vertices if v != removed]
    adj = {v: set() for v in verts}
    for x, y in edges:
        if x != y and x != removed and y != removed:
            adj[x].add(y)
            adj[y].add(x)
    seen = set()
    comps = 0
    for start in verts:
        if start in seen:
            continue
        comps += 1
        stack = [start]
        seen.add(start)
        while stack:
            v = stack.pop()
            for u in adj[v]:
                if u not in seen:
                    seen.add(u)
                    stack.append(u)
    return comps


def brute_articulation(g):
    base = brute_components(g.vertices, g.edges)
    return sorted(
        (
            v
            for v in g.vertices
            if brute_components(g.vertices, g.edges, removed=v) > base
        ),
        key=letter_key,
    )


def random_reduced(rng, rank, length):
    out = []
    while len(out) < length:
        x = rng.choice([1, -1]) * rng.randint(1, rank)
        if out and out[-1] == -x:
            continue
        out.append(x)
    return Word(out)


# ------------------------------------------------------------ construction

def test_edges_of_non_cyclically_reduced_word():
    # abbA: wrap-around pair gives a loop at e1^-1
    g = build_whitehead_graph(parse_word("abbA"), 2)
    assert sorted(g.edges) == sorted([(1, 2), (1, -2), (2, -2), (-1, -1)])
    assert g.edge_count == 4


def test_edges_of_cyclic_word_form_a_cycle():
    # abba: the four edges make a single 4-cycle through all letters
    g = build_whitehead_graph(parse_word("abba"), 2)
    assert sorted(g.edges) == sorted([(1, -2), (2, -2), (-1, 2), (1, -1)])


def test_edges_of_five_letter_word():
    g = build_whitehead_graph(parse_word("ababa"), 2)
    assert sorted(g.edges) == sorted([(1, -2), (1, -2), (-1, 2), (-1, 2), (1, -1)])


def test_single_letter_word_has_single_edge():
    g = build_whitehead_graph(Word([1]), 2)
    assert g.edges == ((1, -1),)


def test_empty_word_has_no_edges():
    g = build_whitehead_graph(Word(), 2)
    assert g.edge_count == 0
    assert g.vertices == [1, -1, 2, -2]


def test_rejects_index_above_rank():
    with pytest.raises(ValueError):
        build_whitehead_graph(Word([1, 3]), 2)
    with pytest.raises(ValueError):
        WhiteheadGraph(0)


def test_rejects_edge_off_the_alphabet():
    with pytest.raises(ValueError, match="vertex 3 not a letter of rank 2"):
        WhiteheadGraph(2, [(3, 1)])
    with pytest.raises(ValueError, match="vertex 0 not a letter of rank 2"):
        WhiteheadGraph(2, [(1, 0)])


def test_degree_refuses_what_the_constructor_refuses():
    g = build_whitehead_graph(Word([1, 1]), 2)
    assert [g.degree(v) for v in g.vertices] == [2, 2, 0, 0]
    for v in (0, 3, -3, 99):
        with pytest.raises(ValueError, match=f"vertex {v} not a letter of rank 2"):
            g.degree(v)
        with pytest.raises(ValueError, match=f"vertex {v} not a letter of rank 2"):
            WhiteheadGraph(2, [(1, v)])


def test_refuses_float_and_bool_letters():
    # one letter test, words._is_letter: a letter is a nonzero int, as Word
    # says, and 1.5, 1.0 and True are not letters
    g = build_whitehead_graph(Word([1, 2]), 2)
    for v in (1.5, 1.0, True, False):
        message = re.escape(f"vertex {v} not a letter of rank 2")
        with pytest.raises(ValueError, match=message):
            WhiteheadGraph(2, [(v, 1)])
        with pytest.raises(ValueError, match=message):
            g.degree(v)


def test_builder_and_constructor_give_the_same_graph():
    # build_whitehead_graph skips the per-vertex test its check_rank made
    for w in iter_reduced_words(3, 4):
        built = build_whitehead_graph(w, 3)
        made = WhiteheadGraph(3, whitehead_edges(w.letters))
        assert built.edges == made.edges and built.find_cut_vertex() == made.find_cut_vertex()


def test_rank_must_be_an_int():
    for rank in (2.5, 2.0, True):
        with pytest.raises(ValueError, match="rank must be an int"):
            WhiteheadGraph(rank)
        with pytest.raises(ValueError, match="rank must be an int"):
            build_whitehead_graph(Word([1]), rank)


def test_builder_refuses_input_that_is_no_word():
    for bad, name in (("ab", "str"), ((1, 2), "tuple")):
        with pytest.raises(TypeError, match=f"a must be Word, got {name}"):
            build_whitehead_graph(bad, 2)


def test_edge_count_equals_length_random():
    rng = random.Random(21)
    for _ in range(2000):
        rank = rng.randint(1, 5)
        w = random_reduced(rng, rank, rng.randint(0, 40))
        g = build_whitehead_graph(w, rank)
        assert g.edge_count == len(w)
        assert sum(g.degree(v) for v in g.vertices) == 2 * g.edge_count


def graph_corpus():
    """Seeded words at ranks 1..5: the empty word, words over a random
    subset of the generators (so some generators are missing), and a share
    of conjugates that are not cyclically reduced."""
    rng = random.Random(25)
    out = []
    for rank in range(1, 6):
        out.append((Word(), rank))
        for _ in range(80):
            gens = rng.sample(range(1, rank + 1), rng.randint(1, rank))
            w = random_reduced(rng, max(gens), rng.randint(1, 14))
            w = Word(x if abs(x) in gens else gens[0] for x in w)
            if rng.random() < 0.3:
                g = random_reduced(rng, rank, rng.randint(1, 2))
                w = g * w * g.inverse()
            out.append((w, rank))
    return out


def canonical_edges(letters):
    # independent of the graph under test: each whitehead_edges pair put in
    # letter order, then the list sorted in letter order
    pairs = [
        (x, y) if letter_key(x) <= letter_key(y) else (y, x)
        for x, y in whitehead_edges(letters)
    ]
    return tuple(sorted(pairs, key=lambda p: (letter_key(p[0]), letter_key(p[1]))))


def test_graph_corpus_frozen(capsys):
    # sha256 frozen before WhiteheadGraph moved onto the edge-count matrix
    corpus = graph_corpus()
    assert len(corpus) == 405
    assert sum(not w.is_cyclically_reduced for w, _ in corpus) > 50
    assert sum(w.max_index < rank for w, rank in corpus) > 100
    dump = []
    for w, rank in corpus:
        g = build_whitehead_graph(w, rank)
        assert g.edges == canonical_edges(w.letters)
        dump.append(
            repr(
                (
                    repr(g),
                    g.edges,
                    g.edge_count,
                    [g.degree(v) for v in g.vertices],
                    g.find_cut_vertex(),
                    g.articulation_points(),
                    g.is_connected(),
                    g.to_dot(),
                )
            )
        )
        text = format_word(w, rank)
        for command in ("wgraph", "cutvertex"):
            code = main([command, text, "--rank", str(rank)])
            dump.append(f"{code} {capsys.readouterr().out}")
    digest = hashlib.sha256("\n".join(dump).encode()).hexdigest()
    assert digest == "8ec5f6f1ae75f15a810f2fcfa8eef99844b6f01bd0c4ea26806074412f350fc5"


# ------------------------------------------------------------ connectivity

def test_loop_vertex_disconnected():
    g = build_whitehead_graph(parse_word("abbA"), 2)
    assert not g.is_connected()  # e1^-1 sits alone on its loop


def test_cycle_graph_connected():
    assert build_whitehead_graph(parse_word("abba"), 2).is_connected()


def test_single_letter_disconnected_at_rank_2():
    assert not build_whitehead_graph(Word([1]), 2).is_connected()
    assert build_whitehead_graph(Word([1]), 1).is_connected()


# ------------------------------------------------------------ cut vertices

def test_cut_vertex_in_ababa():
    v = build_whitehead_graph(parse_word("ababa"), 2).find_cut_vertex()
    assert v.connected
    assert v.cut_vertex == 1  # removing e1 strands e2^-1
    assert v.separable


def test_no_cut_vertex_in_4_cycle():
    v = build_whitehead_graph(parse_word("abba"), 2).find_cut_vertex()
    assert v.connected
    assert v.cut_vertex is None
    assert not v.separable


def test_disconnected_is_separable():
    v = build_whitehead_graph(parse_word("abbA"), 2).find_cut_vertex()
    assert not v.connected
    assert v.separable


def test_articulation_matches_brute_force_rank2():
    seen = set()
    for w in iter_reduced_words(2, 8):
        g = build_whitehead_graph(w, 2)
        if g.edges in seen:
            continue
        seen.add(g.edges)
        assert g.articulation_points() == brute_articulation(g)


def test_articulation_matches_brute_force_rank3():
    seen = set()
    for w in iter_reduced_words(3, 6):
        g = build_whitehead_graph(w, 3)
        if g.edges in seen:
            continue
        seen.add(g.edges)
        assert g.articulation_points() == brute_articulation(g)


def test_articulation_matches_brute_force_rank3_longer_sample():
    rng = random.Random(22)
    for _ in range(3000):
        w = random_reduced(rng, 3, rng.randint(7, 8))
        g = build_whitehead_graph(w, 3)
        assert g.articulation_points() == brute_articulation(g)


def test_separation_matches_networkx():
    rng = random.Random(24)
    for _ in range(500):
        rank = rng.randint(1, 6)
        g = build_whitehead_graph(random_reduced(rng, rank, rng.randint(0, 30)), rank)
        simple = nx.Graph()
        simple.add_nodes_from(g.vertices)
        simple.add_edges_from((x, y) for x, y in g.edges if x != y)
        verdict = g.find_cut_vertex()
        assert verdict.connected == g.is_connected() == nx.is_connected(simple)
        expected = sorted(nx.articulation_points(simple), key=letter_key)
        assert g.articulation_points() == expected
        assert verdict.cut_vertex == (expected[0] if expected else None)


# ------------------------------------------------ the kernel on multigraphs

def counter_matrix(edges, gens):
    """The edge-count matrix written from a Counter of ordered pairs,
    independent of edge_matrix: vertex 2j is gens[j] and vertex 2j + 1 its
    inverse, and each edge counts once in each direction, so a loop counts
    twice on its diagonal entry."""
    names = [x for g in gens for x in (g, -g)]
    pairs = Counter()
    for x, y in edges:
        pairs[x, y] += 1
        pairs[y, x] += 1
    return [{names.index(y): c for (x, y), c in pairs.items() if x == name} for name in names]


def random_multigraph(rng):
    """(edges, gens): a few generators out of 1..8, some of whose letters,
    or both letters, carry no edge, joined by edges with loops and
    parallel edges in both orientations."""
    gens = sorted(rng.sample(range(1, 9), rng.randint(1, 5)))
    letters = [x for g in gens for x in (g, -g)]
    used = [x for x in letters if rng.random() < 0.6] or letters[:1]
    edges = []
    for _ in range(rng.randint(0, 16)):
        x = rng.choice(used)
        draw = rng.random()
        y = x if draw < 0.2 else rng.choice(used)
        edges.append((x, y))
        if draw > 0.8:
            edges.append(rng.choice([(x, y), (y, x)]))
    return edges, gens


def check_matrix(edges, gens):
    m = edge_matrix(edges, gens)
    assert m == counter_matrix(edges, gens)
    names = [x for g in gens for x in (g, -g)]
    for v, row in enumerate(m):
        assert all(m[u][v] == c for u, c in row.items())
        degree = sum((x == names[v]) + (y == names[v]) for x, y in edges)
        assert sum(row.values()) == degree


def check_separation(edges, gens, nx):
    names = [x for g in gens for x in (g, -g)]
    graph = nx.MultiGraph()
    graph.add_nodes_from(range(len(names)))
    graph.add_edges_from((names.index(x), names.index(y)) for x, y in edges)
    # fed the reference matrix, so a fault in edge_matrix cannot hide one here
    components, cuts = _separation(counter_matrix(edges, gens))
    assert components == nx.number_connected_components(graph)
    assert cuts == sorted(nx.articulation_points(graph))


# fixed multigraphs whose cut vertices hinge on a loop or on the DFS root
FIXED_MULTIGRAPHS = [
    ([], [1]),
    ([(1, 1)], [1]),
    ([(1, 1), (1, -1), (-1, 1)], [1, 2]),
    # a path through a looped middle vertex: the loop is no way round it
    ([(1, 2), (2, 2), (2, -1)], [1, 2]),
    # the root e1 has two children, e2 and e2^-1, and a loop listed first
    ([(1, 1), (1, 2), (1, -2)], [1, 2]),
    ([(1, 1), (1, 2), (1, -2), (2, -2)], [1, 2]),
    # two triangles sharing the looped vertex e1
    ([(1, 1), (1, 2), (2, -2), (-2, 1), (1, 3), (3, -3), (-3, 1)], [1, 2, 3]),
    # a path with a doubled edge and loops: neither is a way round e2 or e2^-1
    ([(-1, -1), (-1, 2), (2, -1), (2, -2), (-2, -2), (-2, 3)], [1, 2, 3]),
    # a generator that carries no edge, between two that do
    ([(1, -1), (-1, 3), (3, 3)], [1, 2, 3]),
]


def test_edge_matrix_matches_counter_on_multigraphs():
    rng = random.Random(28)
    seen = Counter()
    cases = FIXED_MULTIGRAPHS + [random_multigraph(rng) for _ in range(600)]
    for edges, gens in cases:
        check_matrix(edges, gens)
        seen["loop"] += any(x == y for x, y in edges)
        seen["parallel"] += len(set(map(frozenset, edges))) < len(edges)
        seen["missing"] += len({abs(x) for e in edges for x in e}) < len(gens)
    assert min(seen.values()) >= 100, seen


def test_separation_matches_networkx_on_multigraphs():
    rng = random.Random(29)
    cases = FIXED_MULTIGRAPHS + [random_multigraph(rng) for _ in range(600)]
    for edges, gens in cases:
        check_separation(edges, gens, nx)


def test_fixed_multigraph_cut_vertices():
    # the expected answers written out, so these cases rest on no library
    expected = [
        (2, []), (2, []), (3, []), (2, [2]), (2, [0]), (2, []), (2, [0]), (3, [2, 3]),
        (4, [1]),
    ]
    assert [_separation(edge_matrix(e, g)) for e, g in FIXED_MULTIGRAPHS] == expected


def test_separation_stays_iterative_on_long_paths_and_cycles():
    # 4,000 vertices, each DFS level one stack entry: far past the
    # recursion limit for a recursive DFS
    n = 4000
    assert n > sys.getrecursionlimit()
    names = [x for g in range(1, n // 2 + 1) for x in (g, -g)]
    path = list(zip(names, names[1:]))
    gens = range(1, n // 2 + 1)
    assert _separation(edge_matrix(path, gens)) == (1, list(range(1, n - 1)))
    cycle = path + [(names[-1], names[0])]
    assert _separation(edge_matrix(cycle, gens)) == (1, [])
    # the Whitehead graph of e1 e1 e2 e2 ... e2000 e2000 is one cycle
    # through all 4,000 letters
    g = build_whitehead_graph(Word([g for g in gens for _ in "xx"]), n // 2)
    assert g.is_connected() and g.articulation_points() == []


def test_connected_matches_component_count():
    rng = random.Random(23)
    for _ in range(500):
        rank = rng.randint(1, 4)
        w = random_reduced(rng, rank, rng.randint(0, 12))
        g = build_whitehead_graph(w, rank)
        assert g.is_connected() == (brute_components(g.vertices, g.edges) == 1)


# -------------------------------------------------------------------- DOT

def test_dot_lists_all_vertices_and_edges():
    g = build_whitehead_graph(parse_word("abba"), 2)
    dot = g.to_dot()
    assert dot.startswith("graph whitehead {")
    assert dot.count(" -- ") == 4
    assert '"e1^-1";' in dot


def test_dot_renders_loop():
    dot = build_whitehead_graph(parse_word("abbA"), 2).to_dot()
    assert '"e1^-1" -- "e1^-1";' in dot


def test_dot_keeps_parallel_edges_and_is_stable():
    g = build_whitehead_graph(parse_word("ababa"), 2)
    dot = g.to_dot()
    assert dot.count('"e1" -- "e2^-1";') == 2
    assert dot == g.to_dot()
