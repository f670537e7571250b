"""Subgroup graphs built by folding.

A finitely generated subgroup of a free group is represented by a finite
labeled digraph with a basepoint: vertex 0, edges (u, label, v) with labels
in 1..rank, each edge read forwards as the generator and backwards as its
inverse.  The builder wedges one loop per generator word at the basepoint,
then folds until no vertex has two equally labeled edges in the same
direction, then trims degree 1 hairs away from the basepoint and renumbers
vertices by a breadth first scan.  Folding is confluent, so the result is
independent of the order merges happen in; the renumbering makes that
literal, and two graphs compare equal exactly when they are the same
labeled based graph.

Reduced words in the subgroup correspond one to one with reduced closed
walks at the basepoint, which is what contains() checks.  The subgroup's
rank is edges - vertices + 1, and the subgroup is everything exactly when
the graph is the rose: one vertex carrying one loop per generator.
"""

from __future__ import annotations

from collections import deque
from random import Random

from .words import Word, check_rank, letter_name

__all__ = ["SubgroupGraph", "build_subgroup_graph"]


class SubgroupGraph:
    """Folded, trimmed, canonically numbered subgroup graph.

    Instances come from build_subgroup_graph; the constructor only checks
    shape.  Vertex 0 is the basepoint.
    """

    __slots__ = ("rank", "num_vertices", "edges", "_trans")

    def __init__(self, rank: int, num_vertices: int, edges):
        check_rank((), rank)
        if num_vertices < 1:
            raise ValueError("need at least the basepoint vertex")
        edges = tuple(sorted(edges))
        for u, label, v in edges:
            if not (0 <= u < num_vertices and 0 <= v < num_vertices):
                raise ValueError(f"edge ({u}, {label}, {v}) off the vertex range")
            if not 1 <= label <= rank:
                raise ValueError(f"edge label {label} outside 1..{rank}")
        self.rank = rank
        self.num_vertices = num_vertices
        self.edges = edges
        self._trans = None

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def subgroup_rank(self) -> int:
        return self.num_edges - self.num_vertices + 1

    def generates_whole_group(self) -> bool:
        # the edge count first: the rank may be far larger than the graph
        return self.num_vertices == 1 and self.num_edges == self.rank and sorted(
            label for _, label, _ in self.edges
        ) == list(range(1, self.rank + 1))

    def _transitions(self) -> dict:
        if self._trans is None:
            trans = {}
            for u, label, v in self.edges:
                trans[u, label] = v
                trans[v, -label] = u
            self._trans = trans
        return self._trans

    def contains(self, w: Word) -> bool:
        """Whether the reduced word w lies in the subgroup."""
        check_rank(w.letters, self.rank)
        trans = self._transitions()
        cur = 0
        for x in w.letters:
            nxt = trans.get((cur, x))
            if nxt is None:
                return False
            cur = nxt
        return cur == 0

    def __eq__(self, other) -> bool:
        if not isinstance(other, SubgroupGraph):
            return NotImplemented
        return (
            self.rank == other.rank
            and self.num_vertices == other.num_vertices
            and self.edges == other.edges
        )

    def __hash__(self) -> int:
        return hash((self.rank, self.num_vertices, self.edges))

    def __repr__(self) -> str:
        return (
            f"SubgroupGraph(rank={self.rank}, vertices={self.num_vertices}, "
            f"edges={self.num_edges}, subgroup_rank={self.subgroup_rank()})"
        )

    def to_dot(self) -> str:
        lines = ["digraph subgroup {"]
        lines.append('  0 [shape=doublecircle];')
        for v in range(1, self.num_vertices):
            lines.append(f"  {v} [shape=circle];")
        for u, label, v in self.edges:
            lines.append(f'  {u} -> {v} [label="{letter_name(label)}"];')
        lines.append("}")
        return "\n".join(lines) + "\n"

    def to_json_dict(self) -> dict:
        return {
            "rank": self.rank,
            "num_vertices": self.num_vertices,
            "edges": [[u, v, label] for u, label, v in self.edges],
            "subgroup_rank": self.subgroup_rank(),
        }


def _fold(edges: set, rng: Random | None):
    """Merge vertices until the graph is folded.  Returns the folded edge
    set with endpoints replaced by class representatives."""
    parent: dict[int, int] = {}

    def find(x: int) -> int:
        root = x
        while parent.get(root, root) != root:
            root = parent[root]
        while parent.get(x, x) != x:
            parent[x], x = root, parent[x]
        return root

    while True:
        edges = {(find(u), label, find(v)) for u, label, v in edges}
        out_seen: dict = {}
        in_seen: dict = {}
        violations = []
        for u, label, v in sorted(edges):
            if (u, label) in out_seen and out_seen[u, label] != v:
                violations.append((out_seen[u, label], v))
            else:
                out_seen[u, label] = v
            if (v, label) in in_seen and in_seen[v, label] != u:
                violations.append((in_seen[v, label], u))
            else:
                in_seen[v, label] = u
        if not violations:
            return edges, find
        a, b = violations[rng.randrange(len(violations))] if rng else violations[0]
        parent[find(a)] = find(b)


def _trim(edges: set, base: int) -> set:
    # drop non-basepoint vertices of degree <= 1 until none remain; a loop
    # contributes 2, so loop-only components never shrink here (they cannot
    # occur anyway: every edge starts out on a path through the basepoint)
    while True:
        deg: dict[int, int] = {}
        for u, _, v in edges:
            deg[u] = deg.get(u, 0) + 1
            deg[v] = deg.get(v, 0) + 1
        drop = {x for x, d in deg.items() if x != base and d <= 1}
        if not drop:
            return edges
        edges = {e for e in edges if e[0] not in drop and e[2] not in drop}


def _renumber(edges: set, base: int):
    """Breadth first relabeling from the basepoint; neighbor order is by
    label, outgoing before incoming, so equal graphs get equal numbers."""
    adj: dict[int, list] = {}
    for u, label, v in edges:
        adj.setdefault(u, []).append((label, 0, v))
        adj.setdefault(v, []).append((label, 1, u))
    order = {base: 0}
    queue = deque([base])
    while queue:
        cur = queue.popleft()
        for _, _, other in sorted(adj.get(cur, ())):
            if other not in order:
                order[other] = len(order)
                queue.append(other)
    new_edges = tuple(sorted((order[u], label, order[v]) for u, label, v in edges))
    return new_edges, len(order)


def build_subgroup_graph(
    generators, rank: int, rng: Random | None = None
) -> SubgroupGraph:
    """Fold the wedge of generator loops into a subgroup graph.

    rng, when given, picks which violating edge pair to merge at each step;
    the result is the same graph regardless, which the test suite leans on.
    Empty generators are skipped; no generators at all gives the one vertex
    graph of the trivial subgroup.
    """
    check_rank((), rank)
    edges: set = set()
    fresh = 1
    for gen in generators:
        if not isinstance(gen, Word):
            raise TypeError(f"generators must be Word, got {type(gen).__name__}")
        letters = gen.letters
        if not letters:
            continue
        check_rank(letters, rank)
        cur = 0
        for i, x in enumerate(letters):
            nxt = 0 if i == len(letters) - 1 else fresh
            if nxt == fresh:
                fresh += 1
            if x > 0:
                edges.add((cur, x, nxt))
            else:
                edges.add((nxt, -x, cur))
            cur = nxt
    folded, find = _fold(edges, rng)
    base = find(0)
    trimmed = _trim(folded, base)
    new_edges, count = _renumber(trimmed, base)
    return SubgroupGraph(rank, count, new_edges)
