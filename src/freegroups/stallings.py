"""Subgroup graphs built by folding.

A finitely generated subgroup of a free group is represented by a finite
labeled digraph with a basepoint: vertex 0, edges (u, label, v) with labels
in 1..rank, each edge read forwards as the generator and backwards as its
inverse.  The builder wedges one loop per generator word at the basepoint,
then folds until no vertex has two equally labeled edges in the same
direction.  The graph keeps the folded tables for its whole life: the
counts are read off them and contains() walks them.  The vertices are
renumbered by a breadth first scan only on the first read of edges, ==,
hash, to_json_dict, to_dot or a pickle, and the numbering is kept beside
the tables.

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

from .words import Word, _is_letter, check_rank, letter_key, letter_name

__all__ = ["SubgroupGraph", "build_subgroup_graph"]


class SubgroupGraph:
    """Folded subgroup graph.  Vertex 0 is the basepoint.

    The label tables and their find are the one adjacency: the counts
    come from them, contains walks them, and the canonical numbering is
    made from them on the first read of edges and kept beside them.
    build_subgroup_graph hands over the tables and find of _fold.  The
    public constructor takes edges in any numbering with the basepoint at
    0, writes them into tables whose find is the identity, and checks
    their shape: the graph must be folded, with no two edges of one label
    leaving, or entering, one vertex, and connected, with every vertex
    reachable from the basepoint.  The numbering it makes for that check
    is canonical, so it equals the folded graph of the same subgroup.
    """

    __slots__ = ("rank", "num_vertices", "num_edges", "_tables", "_find", "_edges")

    def __init__(self, rank: int, num_vertices: int, edges):
        check_rank((), rank)
        if not _is_index(num_vertices):
            raise ValueError(f"vertex count must be an int, got {num_vertices!r}")
        if num_vertices < 1:
            raise ValueError("need at least the basepoint vertex")
        tables: list[dict] = [{} for _ in range(num_vertices)]
        for u, label, v in edges:
            if not all(_is_index(end) and 0 <= end < num_vertices for end in (u, v)):
                raise ValueError(f"edge ({u}, {label}, {v}) off the vertex range")
            if not _is_letter(label) or not 1 <= label <= rank:
                raise ValueError(f"edge label {label} outside 1..{rank}")
            for end, x, other in ((u, label, v), (v, -label, u)):
                if x in tables[end]:
                    raise ValueError(
                        f"vertex {end} has two edges labeled "
                        f"{letter_name(x)}: the graph is not folded"
                    )
                tables[end][x] = other
        edges = _renumber(tables, _same)
        reached = 1 + max((max(u, v) for u, _, v in edges), default=0)
        if reached < num_vertices:
            raise ValueError(
                f"{num_vertices - reached} of {num_vertices} vertices cannot be "
                "reached from the basepoint"
            )
        self._set(rank, tables, _same, edges)

    def _set(self, rank: int, tables: list, find, edges=None) -> None:
        """Keep the label tables and find; the counts are read off them."""
        self.rank = rank
        self.num_vertices = len(tables) - tables.count(None)
        # each edge u -x-> v files +x in the table of u and -x in that of v
        self.num_edges = sum(map(len, filter(None, tables))) // 2
        self._tables = tables
        self._find = find
        self._edges = edges

    @property
    def edges(self) -> tuple:
        """The edges (u, label, v) in the canonical numbering, sorted."""
        if self._edges is None:
            self._edges = _renumber(self._tables, self._find)
        return self._edges

    def subgroup_rank(self) -> int:
        return self.num_edges - self.num_vertices + 1

    def generates_whole_group(self) -> bool:
        # folded, so one vertex carries each of the rank labels at most once
        return self.num_vertices == 1 and self.num_edges == self.rank

    def contains(self, w: Word) -> bool:
        """Whether the reduced word w lies in the subgroup."""
        check_rank(w.letters, self.rank)
        tables, find = self._tables, self._find
        base = cur = find(0)
        for x in w.letters:
            nxt = tables[cur].get(x)
            if nxt is None:
                return False
            cur = find(nxt)
        return cur == base

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


def _is_index(v) -> bool:
    # a vertex number is an int; bool is an int subclass but no index
    return isinstance(v, int) and not isinstance(v, bool)


def _same(v: int) -> int:
    """The find of tables that were never folded: each vertex is its class."""
    return v


def _renumber(tables: list, find) -> tuple:
    """Breadth first relabeling from the basepoint's class find(0);
    neighbor order is by label, outgoing before incoming (letter_key order
    on signed labels), so equal graphs get equal numbers.  Vertices are
    numbered in the order they are scanned, and each lists its outgoing
    edges by label, so the edges come out sorted."""
    base = find(0)
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


def _fold_letters(words, rng: Random | None = None) -> tuple:
    """Write the wedge of one loop per letter tuple in words at the
    basepoint into label tables, fold it, and return (tables, find) as
    _fold leaves them.  Each tuple must be a reduced word, and empty ones
    are skipped; no letter is checked here.  The subgroup is the whole
    group exactly when the folded graph is the rose: one live table,
    find(0)'s, holding all 2 * rank signed labels.
    """
    tables: list = [{}]
    pending: list = []
    for letters in words:
        if not letters:
            continue
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
    # No trim: a reduced word's loop folds onto a reduced closed walk at
    # the basepoint; every edge lies on such a walk, hence no vertex but
    # the basepoint is left with degree <= 1.
    return tables, _fold(tables, pending, rng)


def build_subgroup_graph(
    generators, rank: int, rng: Random | None = None
) -> SubgroupGraph:
    """Fold the wedge of generator loops into a subgroup graph.

    The generators are checked here, then their letters go to
    _fold_letters: the loops are written into per-vertex label tables,
    and one union-find pass over a queue of pending identifications folds
    them; see the module docstring for why no trim step is needed.  rng,
    when given, picks which pending identification to merge next; the
    result is the same graph regardless, which the test suite leans on.
    Empty generators are skipped; no generators at all gives the one vertex
    graph of the trivial subgroup.
    """
    check_rank((), rank)
    words = []
    for gen in generators:
        if not isinstance(gen, Word):
            raise TypeError(f"generators must be Word, got {type(gen).__name__}")
        check_rank(gen.letters, rank)
        words.append(gen.letters)
    tables, find = _fold_letters(words, rng)
    g = object.__new__(SubgroupGraph)
    g._set(rank, tables, find)
    return g
