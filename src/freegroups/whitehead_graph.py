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
verification harness.  Cut vertices are found with the usual low-link DFS,
run with an explicit stack so that no rank reaches the recursion limit;
loops are ignored for that purpose (they never affect separation) but stay
in the edge multiset for counting and rendering.
"""

from __future__ import annotations

from dataclasses import dataclass

from .words import Word, letter_key, letter_name


@dataclass(frozen=True)
class CutVertexVerdict:
    """Outcome of the separability check.

    separable is True when the graph is disconnected or has a cut vertex;
    cut_vertex is the least such vertex in letter order, or None.
    """

    connected: bool
    cut_vertex: int | None
    separable: bool


def _pair(x: int, y: int) -> tuple[int, int]:
    return (x, y) if letter_key(x) <= letter_key(y) else (y, x)


class WhiteheadGraph:
    """Undirected multigraph on the 2n letters of a rank n free group."""

    def __init__(self, rank: int, edges=()):
        if rank < 1:
            raise ValueError(f"rank must be >= 1, got {rank}")
        self.rank = rank
        canon = []
        for x, y in edges:
            for v in (x, y):
                if v == 0 or abs(v) > rank:
                    raise ValueError(f"vertex {v} not a letter of rank {rank}")
            canon.append(_pair(x, y))
        canon.sort(key=lambda p: (letter_key(p[0]), letter_key(p[1])))
        self.edges: tuple[tuple[int, int], ...] = tuple(canon)

    @property
    def vertices(self) -> list[int]:
        return [s * i for i in range(1, self.rank + 1) for s in (1, -1)]

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def degree(self, v: int) -> int:
        # a loop contributes 2
        return sum((x == v) + (y == v) for x, y in self.edges)

    def _simple_adjacency(self) -> dict[int, list[int]]:
        # loop-free simple graph; parallel edges collapse (they never change
        # which vertices separate the graph)
        adj: dict[int, set[int]] = {v: set() for v in self.vertices}
        for x, y in self.edges:
            if x != y:
                adj[x].add(y)
                adj[y].add(x)
        return {v: sorted(nbrs, key=letter_key) for v, nbrs in adj.items()}

    def _separation(self) -> tuple[bool, list[int]]:
        """(connected, cut vertices least first in letter order) from one
        low-link DFS per component over the simple adjacency."""
        adj = self._simple_adjacency()
        disc: dict[int, int] = {}
        low: dict[int, int] = {}
        cuts: set[int] = set()
        components = 0
        for root in self.vertices:
            if root in disc:
                continue
            components += 1
            disc[root] = low[root] = len(disc)
            root_children = 0
            stack = [(root, None, iter(adj[root]))]
            while stack:
                v, parent, nbrs = stack[-1]
                for u in nbrs:
                    # the simple graph has a single copy of the tree edge, so
                    # the plain parent skip is exact for the source multigraph
                    if u == parent:
                        continue
                    if u in disc:
                        low[v] = min(low[v], disc[u])
                    else:
                        disc[u] = low[u] = len(disc)
                        stack.append((u, v, iter(adj[u])))
                        break
                else:
                    stack.pop()
                    if parent == root:
                        root_children += 1
                    elif parent is not None:
                        low[parent] = min(low[parent], low[v])
                        if low[v] >= disc[parent]:
                            cuts.add(parent)
            if root_children >= 2:
                cuts.add(root)
        return components == 1, sorted(cuts, key=letter_key)

    def is_connected(self) -> bool:
        return self._separation()[0]

    def articulation_points(self) -> list[int]:
        """Cut vertices, least first in letter order; loops never count."""
        return self._separation()[1]

    def find_cut_vertex(self) -> CutVertexVerdict:
        connected, cuts = self._separation()
        cut = cuts[0] if cuts else None
        return CutVertexVerdict(
            connected=connected,
            cut_vertex=cut,
            separable=(not connected) or cut is not None,
        )

    def to_dot(self, name: str = "whitehead") -> str:
        """DOT text; multigraph, loops and parallel edges one line each."""
        lines = [f"graph {name} {{"]
        for v in self.vertices:
            lines.append(f'  "{letter_name(v)}";')
        for x, y in self.edges:
            lines.append(f'  "{letter_name(x)}" -- "{letter_name(y)}";')
        lines.append("}")
        return "\n".join(lines) + "\n"

    def __repr__(self) -> str:
        return f"WhiteheadGraph(rank={self.rank}, edges={self.edge_count})"


def whitehead_edges(letters: tuple[int, ...]) -> list[tuple[int, int]]:
    """Edge list for a letter sequence read cyclically: (ui, -u_{i+1}) for
    each position, the last letter pairing with the first.  The pairs are
    unordered; WhiteheadGraph puts each in letter order."""
    k = len(letters)
    return [(letters[i], -letters[(i + 1) % k]) for i in range(k)]


def vertex_letters(gens) -> list[int]:
    """The letter at each vertex of edge_matrix(letters, gens): vertex 2j is
    gens[j] and vertex 2j + 1 its inverse, so v ^ 1 is the inverse of v.
    With gens 1..n this is letter order, the order of letter_key.

    >>> vertex_letters([2, 5])
    [2, -2, 5, -5]
    """
    return [x for g in gens for x in (g, -g)]


def edge_matrix(letters: tuple[int, ...], gens) -> list[dict[int, int]]:
    """The multigraph of whitehead_edges as a sparse symmetric matrix of
    edge counts over the vertices of vertex_letters(gens), which must
    include every generator in letters.  Row v maps each neighbour of
    vertex v to the number of edges between them.  A loop adds 2 to its
    diagonal entry, so every row sums to the degree of its vertex.

    >>> edge_matrix((1, 2, 1, 2), [1, 2])
    [{3: 2}, {2: 2}, {1: 2}, {0: 2}]
    >>> edge_matrix((1, 3, 1, 3), [1, 3]) == edge_matrix((1, 2, 1, 2), [1, 2])
    True
    """
    vertex = {x: v for v, x in enumerate(vertex_letters(gens))}
    m: list[dict[int, int]] = [{} for _ in vertex]
    for x, y in whitehead_edges(letters):
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
    if rank < 1:
        raise ValueError(f"rank must be >= 1, got {rank}")
    for x in a.letters:
        if abs(x) > rank:
            raise ValueError(f"letter {letter_name(x)} exceeds rank {rank}")
    return WhiteheadGraph(rank, whitehead_edges(a.letters))
