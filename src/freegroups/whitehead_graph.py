"""Whitehead graphs of words.

For a word u1 ... uk over a rank n free group, the Whitehead graph has the
2n letters e1, e1^-1, ..., en, en^-1 as vertices and one edge {ui, u_{i+1}^-1}
for every consecutive position, plus the wrap-around edge {uk, u1^-1}.  The
number of edges therefore equals the length of the word.  Loops (only ever
produced by the wrap-around pair of a non cyclically reduced word) and
parallel edges are both kept.

The point of the construction: a cyclically reduced word that is primitive
always has a separable graph, meaning disconnected or with a cut vertex.
That is a necessary condition only, and it is checked exhaustively by the
verification harness.

The graph is stored once, as the edge-count matrix of edge_matrix over the
generators that occur; the minimizer reads the same matrix.  The letters of
a missing generator are isolated, so the graph is then disconnected.  Cut
vertices come from the usual low-link DFS over the matrix rows,
_separation, with an explicit stack so that no rank reaches the recursion
limit; loops never affect separation and are skipped there.
_separability reads the verdict off any such matrix, so the sweeps in
verify test a matrix they built without a WhiteheadGraph.  Only vertices
and to_dot cost more with the rank.
"""

from __future__ import annotations

from .words import Word, _FrozenRecord, _is_letter, check_rank, letter_name, letter_order


class CutVertexVerdict(_FrozenRecord):
    """Outcome of the separability check.

    separable is True when the graph is disconnected or has a cut vertex;
    cut_vertex is the least such vertex in letter order, or None.
    """

    __slots__ = ("connected", "cut_vertex", "separable")

    def __init__(self, connected: bool, cut_vertex: int | None, separable: bool):
        object.__setattr__(self, "connected", connected)
        object.__setattr__(self, "cut_vertex", cut_vertex)
        object.__setattr__(self, "separable", separable)


class WhiteheadGraph:
    """Undirected multigraph on the 2n letters of a rank n free group."""

    def __init__(self, rank: int, edges=()):
        check_rank((), rank)
        edges = list(edges)
        for x, y in edges:
            for v in (x, y):
                if not _is_letter(v) or abs(v) > rank:
                    raise ValueError(f"vertex {v} not a letter of rank {rank}")
        self._set(rank, edges)

    def _set(self, rank: int, edges: list) -> None:
        """Keep the edge matrix of edges, whose letters fit under rank."""
        self.rank = rank
        gens = sorted({abs(v) for pair in edges for v in pair})
        self._names = vertex_letters(gens)
        self._matrix = edge_matrix(edges, gens)

    @property
    def vertices(self) -> list[int]:
        return letter_order(self.rank)

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """Every edge once as a pair in letter order, sorted in letter order;
        vertex order is letter order, so reading the rows in turn sorts."""
        names = self._names
        return tuple(
            (names[u], names[v])
            for u, row in enumerate(self._matrix)
            for v in sorted(row)
            if v >= u
            for _ in range(row[v] // 2 if v == u else row[v])
        )

    @property
    def edge_count(self) -> int:
        return sum(sum(row.values()) for row in self._matrix) // 2

    def degree(self, v: int) -> int:
        # a loop contributes 2; a letter of a generator that does not occur, 0
        if not _is_letter(v) or abs(v) > self.rank:
            raise ValueError(f"vertex {v} not a letter of rank {self.rank}")
        if v not in self._names:
            return 0
        return sum(self._matrix[self._names.index(v)].values())

    def is_connected(self) -> bool:
        return _separability(self._matrix, self.rank)[1]

    def articulation_points(self) -> list[int]:
        """Cut vertices, least first in letter order; loops never count."""
        return [self._names[v] for v in _separability(self._matrix, self.rank)[2]]

    def find_cut_vertex(self) -> CutVertexVerdict:
        separable, connected, cuts = _separability(self._matrix, self.rank)
        return CutVertexVerdict(
            connected=connected,
            cut_vertex=self._names[cuts[0]] if cuts else None,
            separable=separable,
        )

    def to_dot(self) -> str:
        """DOT text; multigraph, loops and parallel edges one line each."""
        lines = ["graph whitehead {"]
        for v in self.vertices:
            lines.append(f'  "{letter_name(v)}";')
        for x, y in self.edges:
            lines.append(f'  "{letter_name(x)}" -- "{letter_name(y)}";')
        lines.append("}")
        return "\n".join(lines) + "\n"

    def __repr__(self) -> str:
        return f"WhiteheadGraph(rank={self.rank}, edges={self.edge_count})"


def _separation(m: list[dict[int, int]]) -> tuple[int, list[int]]:
    """(number of components, cut vertices least first) of the multigraph
    of an edge-count matrix such as edge_matrix gives, from one low-link
    DFS per component over the matrix rows.  Loops never affect
    separation and are skipped."""
    disc = [-1] * len(m)
    low = [0] * len(m)
    count = 0
    cuts: set[int] = set()
    components = 0
    for root in range(len(m)):
        if disc[root] >= 0:
            continue
        components += 1
        disc[root] = low[root] = count
        count += 1
        root_children = 0
        stack = [(root, -1, iter(m[root]))]
        while stack:
            v, parent, nbrs = stack[-1]
            for u in nbrs:
                # a row holds each neighbour once, so skipping the parent
                # skips exactly the tree edge, whatever its multiplicity
                if u == v or u == parent:
                    continue
                if disc[u] >= 0:
                    low[v] = min(low[v], disc[u])
                else:
                    disc[u] = low[u] = count
                    count += 1
                    stack.append((u, v, iter(m[u])))
                    break
            else:
                stack.pop()
                if parent == root:
                    root_children += 1
                elif parent >= 0:
                    low[parent] = min(low[parent], low[v])
                    if low[v] >= disc[parent]:
                        cuts.add(parent)
        if root_children >= 2:
            cuts.add(root)
    return components, sorted(cuts)


def _separability(m: list[dict[int, int]], rank: int) -> tuple[bool, bool, list[int]]:
    """(separable, connected, cut vertices least first) of the Whitehead
    graph at the given rank whose edge-count matrix m, as edge_matrix
    gives it, spans the generators that occur.  The graph is connected
    when every generator occurs, len(m) == 2 * rank, and _separation finds
    one component; it is separable when it is not connected or has a cut
    vertex.  The cut vertices are rows of m.  This is the one separability
    test: WhiteheadGraph and the sweeps in verify both read it."""
    components, cuts = _separation(m)
    connected = len(m) == 2 * rank and components == 1
    return not connected or bool(cuts), connected, cuts


def whitehead_edges(letters: tuple[int, ...]) -> list[tuple[int, int]]:
    """Edge list for a letter sequence read cyclically: (ui, -u_{i+1}) for
    each position, the last letter pairing with the first.  The pairs are
    unordered; WhiteheadGraph puts each in letter order."""
    k = len(letters)
    return [(letters[i], -letters[(i + 1) % k]) for i in range(k)]


def vertex_letters(gens) -> list[int]:
    """The letter at each vertex of edge_matrix(edges, gens): vertex 2j is
    gens[j] and vertex 2j + 1 its inverse, so v ^ 1 is the inverse of v.
    With gens 1..n this is letter order, the order of letter_key.

    >>> vertex_letters([2, 5])
    [2, -2, 5, -5]
    """
    return [x for g in gens for x in (g, -g)]


def edge_matrix(edges, gens) -> list[dict[int, int]]:
    """A multigraph given by its edge pairs, such as whitehead_edges(core),
    as a sparse symmetric matrix of edge counts over the vertices of
    vertex_letters(gens), which must include every letter in edges.  Row v
    maps each neighbour of vertex v to the number of edges between them.  A
    loop adds 2 to its diagonal entry, so every row sums to the degree of
    its vertex.  This is the only builder of the cyclic Whitehead graph.

    >>> edge_matrix(whitehead_edges((1, 2, 1, 2)), [1, 2])
    [{3: 2}, {2: 2}, {1: 2}, {0: 2}]
    >>> edge_matrix(whitehead_edges((1, 3, 1, 3)), [1, 3]) == edge_matrix(
    ...     whitehead_edges((1, 2, 1, 2)), [1, 2])
    True
    """
    vertex = {x: v for v, x in enumerate(vertex_letters(gens))}
    m: list[dict[int, int]] = [{} for _ in vertex]
    for x, y in edges:
        u, v = vertex[x], vertex[y]
        m[u][v] = m[u].get(v, 0) + 1
        m[v][u] = m[v].get(u, 0) + 1
    return m


def build_whitehead_graph(a: Word, rank: int) -> WhiteheadGraph:
    """Whitehead graph of a word.  Indices must fit under rank.

    >>> g = build_whitehead_graph(Word([1, 2, 2, -1]), 2)
    >>> g.edge_count
    4
    """
    check_rank(a.letters, rank)
    # a Word holds only letters, and check_rank has fit them under rank
    g = object.__new__(WhiteheadGraph)
    g._set(rank, whitehead_edges(a.letters))
    return g
