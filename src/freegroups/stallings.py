"""Subgroup graphs built by folding.

A finitely generated subgroup of a free group is represented by a finite
labeled digraph with a basepoint: vertex 0, edges (u, label, v) with labels
in 1..rank, each edge read forwards as the generator and backwards as its
inverse.  The builder wedges one loop per generator word at the basepoint,
then folds until no vertex has two equally labeled edges in the same
direction.  The vertices are renumbered by a breadth first scan on first
use, the first read of edges, ==, hash, contains, to_json_dict or to_dot;
until then the graph keeps the folded tables and knows only its counts.

Folding is one union-find pass (Touikan 2006; Kapovich and Myasnikov
2002).  Each vertex keeps a table from signed label to neighbour; writing
a label a table already holds queues the two neighbours for
identification, and merging two classes folds the smaller table into the
larger, queueing each clash in turn.  Nothing is rebuilt or sorted while
the queue drains, so the cost is near linear in the number of letters.
No trimming follows: every generator is a reduced word, so every edge
lies on a reduced closed walk at the basepoint and no other vertex can be
left with degree <= 1.  Folding is confluent, so the result is
independent of the order merges happen in; the renumbering makes that
literal, and two graphs compare equal exactly when they are the same
labeled based graph.

Reduced words in the subgroup correspond one to one with reduced closed
walks at the basepoint, which is what contains() checks.  The subgroup's
rank is edges - vertices + 1, and the subgroup is everything exactly when
the graph is the rose: one vertex carrying one loop per generator.  Every
graph is folded, so a one vertex graph carries each label at most once,
and the rose test reads the counts alone: it never numbers a graph.
"""

from __future__ import annotations

from random import Random

from .words import Word, check_rank, letter_key, letter_name

__all__ = ["SubgroupGraph", "build_subgroup_graph"]


class SubgroupGraph:
    """Folded subgroup graph.  Vertex 0 is the basepoint.

    Instances come from build_subgroup_graph, which hands over the folded
    label tables and the counts; the canonical numbering is made on the
    first read of edges and the tables are dropped then.  The public
    constructor takes edges in any numbering with the basepoint at 0 and
    checks their shape: the graph must be folded, with no two edges of one
    label leaving, or entering, one vertex, and connected, with every
    vertex reachable from the basepoint.  It then renumbers the edges
    canonically, so it equals the folded graph of the same subgroup.
    """

    __slots__ = ("rank", "num_vertices", "num_edges", "_edges", "_folded", "_trans")

    def __init__(self, rank: int, num_vertices: int, edges):
        check_rank((), rank)
        if num_vertices < 1:
            raise ValueError("need at least the basepoint vertex")
        tables: list[dict] = [{} for _ in range(num_vertices)]
        for u, label, v in edges:
            if not (0 <= u < num_vertices and 0 <= v < num_vertices):
                raise ValueError(f"edge ({u}, {label}, {v}) off the vertex range")
            if not 1 <= label <= rank:
                raise ValueError(f"edge label {label} outside 1..{rank}")
            for end, x, other in ((u, label, v), (v, -label, u)):
                if x in tables[end]:
                    raise ValueError(
                        f"vertex {end} has two edges labeled "
                        f"{letter_name(x)}: the graph is not folded"
                    )
                tables[end][x] = other
        edges = _renumber(tables, lambda v: v, 0)
        reached = 1 + max((max(u, v) for u, _, v in edges), default=0)
        if reached < num_vertices:
            raise ValueError(
                f"{num_vertices - reached} of {num_vertices} vertices cannot be "
                "reached from the basepoint"
            )
        self.rank = rank
        self.num_vertices = num_vertices
        self.num_edges = len(edges)
        self._edges = edges
        self._folded = None
        self._trans = None

    @classmethod
    def _from_tables(cls, rank: int, tables: list, find) -> "SubgroupGraph":
        """The graph of the folded label tables of _fold and its find."""
        g = object.__new__(cls)
        g.rank = rank
        g.num_vertices = len(tables) - tables.count(None)
        # each edge u -x-> v files +x in the table of u and -x in that of v
        g.num_edges = sum(map(len, filter(None, tables))) // 2
        g._edges = None
        g._folded = (tables, find)
        g._trans = None
        return g

    @property
    def edges(self) -> tuple:
        """The edges (u, label, v) in the canonical numbering, sorted."""
        if self._edges is None:
            tables, find = self._folded
            self._edges = _renumber(tables, find, find(0))
            self._folded = None
        return self._edges

    def subgroup_rank(self) -> int:
        return self.num_edges - self.num_vertices + 1

    def generates_whole_group(self) -> bool:
        # folded, so one vertex carries each of the rank labels at most once
        return self.num_vertices == 1 and self.num_edges == self.rank

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
            and self.num_edges == other.num_edges
            and self.edges == other.edges
        )

    def __hash__(self) -> int:
        return hash((self.rank, self.num_vertices, self.edges))

    def __reduce__(self):
        # pickle and copy the numbered graph, not the folded tables
        return SubgroupGraph, (self.rank, self.num_vertices, self.edges)

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


def _fold(tables: list, pending: list, rng: Random | None):
    """Fold the label tables until no identification is pending.

    tables[v] maps each signed label at vertex v to a neighbour: +x for an
    edge v -x-> w, -x for an edge w -x-> v.  pending holds pairs of
    vertices that must become one.  Merging two classes moves the smaller
    table into the larger, and every label both tables carry queues its
    two neighbours.  Neighbours are stored as they were when written and
    resolved through find when read.  rng, when given, picks the pending
    pair to merge next.  Returns find; the class representatives are the
    vertices whose table is not None.
    """
    parent = list(range(len(tables)))

    def find(x: int) -> int:
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    while pending:
        if rng is not None:
            i = rng.randrange(len(pending))
            pending[i], pending[-1] = pending[-1], pending[i]
        a, b = pending.pop()
        a, b = find(a), find(b)
        if a == b:
            continue
        big, small = tables[a], tables[b]
        if len(big) < len(small):
            a, b, big, small = b, a, small, big
        parent[b] = a
        tables[b] = None
        for x, w in small.items():
            held = big.setdefault(x, w)
            if held != w:
                pending.append((held, w))
    return find


def _renumber(tables: list, find, base: int) -> tuple:
    """Breadth first relabeling from the basepoint; neighbor order is by
    label, outgoing before incoming (letter_key order on signed labels),
    so equal graphs get equal numbers.  Vertices are numbered in the order
    they are scanned, and each lists its outgoing edges by label, so the
    edges come out sorted."""
    order = {base: 0}
    queue = [base]
    edges = []
    for u, cur in enumerate(queue):
        table = tables[cur]
        for x in sorted(table, key=letter_key):
            other = find(table[x])
            v = order.get(other)
            if v is None:
                v = order[other] = len(queue)
                queue.append(other)
            if x > 0:
                edges.append((u, x, v))
    return tuple(edges)


def build_subgroup_graph(
    generators, rank: int, rng: Random | None = None
) -> SubgroupGraph:
    """Fold the wedge of generator loops into a subgroup graph.

    The loops are written into per-vertex label tables, and one union-find
    pass over a queue of pending identifications folds them; see the
    module docstring for why no trim step is needed.  rng, when given,
    picks which pending identification to merge next; the result is the
    same graph regardless, which the test suite leans on.
    Empty generators are skipped; no generators at all gives the one vertex
    graph of the trivial subgroup.
    """
    check_rank((), rank)
    tables: list = [{}]
    pending: list = []
    for gen in generators:
        if not isinstance(gen, Word):
            raise TypeError(f"generators must be Word, got {type(gen).__name__}")
        letters = gen.letters
        if not letters:
            continue
        check_rank(letters, rank)
        cur = 0
        for x in letters[:-1]:
            nxt = len(tables)
            tables.append({-x: cur})  # a fresh vertex holds no label yet
            held = tables[cur].setdefault(x, nxt)
            if held != nxt:
                pending.append((held, nxt))
            cur = nxt
        x = letters[-1]  # the last letter closes the loop at the basepoint
        for v, y, w in ((cur, x, 0), (0, -x, cur)):
            held = tables[v].setdefault(y, w)
            if held != w:
                pending.append((held, w))
    find = _fold(tables, pending, rng)
    # No trim: a Word is freely reduced, so its loop folds onto a reduced
    # closed walk at the basepoint; every edge lies on such a walk, hence
    # no vertex but the basepoint is left with degree <= 1.
    return SubgroupGraph._from_tables(rank, tables, find)
