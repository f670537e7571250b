"""Subgroup graphs built by folding.

A finitely generated subgroup of a free group is represented by a finite
labeled digraph with a basepoint: vertex 0, edges (u, label, v) with labels
in 1..rank, each edge read forwards as the generator and backwards as its
inverse.  The builder folds one loop per generator word at the basepoint
into the graph, one generator at a time, until no vertex has two equally
labeled edges in the same direction.  The graph keeps the
folded tables for its whole life: the counts are read off them and
contains() walks them.  The vertices are renumbered by a breadth first
scan only on the first read of edges, ==, hash, to_json_dict, to_dot or a
pickle, and the numbering is kept beside the tables.

Folding streams the generators through one union-find (Kapovich and
Myasnikov 2002; Touikan 2006).  Each vertex keeps a table from signed
label to neighbour.  A generator's longest prefix is read along the
folded tables from the basepoint, and its longest suffix backwards; only
the letters in between are written as fresh vertices, or, when none are
left, the two ends are queued for identification.  Merging two classes
folds the smaller table into the larger, queueing each clash in turn,
and the queue is drained before the next generator.  Memory follows the
folded graph plus one generator, and nothing is rebuilt or sorted, so
the cost is near linear in the number of letters.
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
and the rose test, _is_rose, reads the label tables alone: it never
numbers a graph.  generates_whole_group and the sweeps in verify, which
fold letters without building a SubgroupGraph, both call it.
"""

from __future__ import annotations

from operator import neg
from random import Random

from .words import Word, _check_int, _is_int, _is_letter, _letters_of, check_rank
from .words import letter_key, letter_name

__all__ = ["SubgroupGraph", "build_subgroup_graph"]


class SubgroupGraph:
    """Folded subgroup graph.  Vertex 0 is the basepoint.

    The label tables and their find are the one adjacency: the counts
    come from them, contains walks them, and the canonical numbering is
    made from them on the first read of edges and kept beside them.
    build_subgroup_graph hands over the tables and find of _fold_letters.
    The public constructor takes edges in any numbering with the basepoint
    at 0, writes them into tables whose find is the identity, and checks
    their shape: the graph must be folded, with no two edges of one label
    leaving, or entering, one vertex, and connected, with every vertex
    reachable from the basepoint.  The numbering it makes for that check
    is canonical, so it equals the folded graph of the same subgroup.
    """

    __slots__ = ("rank", "num_vertices", "num_edges", "_tables", "_find", "_edges")

    def __init__(self, rank: int, num_vertices: int, edges):
        check_rank((), rank)
        _check_int("vertex count", num_vertices)
        if num_vertices < 1:
            raise ValueError("need at least the basepoint vertex")
        tables: list[dict] = [{} for _ in range(num_vertices)]
        for u, label, v in edges:
            if not all(_is_int(end) and 0 <= end < num_vertices for end in (u, v)):
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
        return _is_rose(self._tables, self._find, self.rank)

    def contains(self, w: Word) -> bool:
        """Whether the reduced word w lies in the subgroup."""
        letters = _letters_of(w, "w")
        check_rank(letters, self.rank)
        base = self._find(0)
        read, end = _walk(self._tables, self._find, base, letters)
        return read == len(letters) and end == base

    def __eq__(self, other) -> bool:
        if not isinstance(other, SubgroupGraph):
            return NotImplemented
        # the canonical edges of a connected graph fix both counts
        return self.rank == other.rank and self.edges == other.edges

    def __hash__(self) -> int:
        return hash((self.rank, self.edges))

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


def _walk(tables: list, find, cur: int, letters) -> tuple:
    """Read the iterable letters along folded label tables from the class
    cur until a label is missing.  Returns how many letters were read and
    the class reached.  contains() and both reads of a generator in
    _fold_letters are this walk, from the basepoint's class find(0).
    """
    read = 0
    for x in letters:
        nxt = tables[cur].get(x)
        if nxt is None:
            break
        cur = find(nxt)
        read += 1
    return read, cur


def _fold_letters(words, rng: Random | None = None) -> tuple:
    """Fold one loop per letter tuple in words at the basepoint into label
    tables, one generator at a time, and return (tables, find).

    tables[v] maps each signed label at vertex v to a neighbour: +x for an
    edge v -x-> w, -x for an edge w -x-> v.  Each generator's longest
    prefix is read along the folded tables from the basepoint, then its
    longest suffix backwards, no further than where the prefix read ended.
    Only the letters in between are written, as fresh vertices from the
    prefix's end u to the suffix's start v; when none are left, u and v
    are queued for identification.  The pending queue is drained before
    the next generator: merging two classes moves the smaller table into
    the larger, and every label both tables carry queues its two
    neighbours.  Neighbours are stored as they were when written and
    resolved through find when read.  rng, when given, picks the pending
    pair to merge next.  The class representatives are the vertices whose
    table is not None.  Each tuple must be a reduced word, and an empty one
    reads to the basepoint and adds nothing; no letter is checked here.
    _is_rose reads off the result whether the words generate the whole
    group.
    """
    tables: list = [{}]
    parent = [0]

    def find(x: int) -> int:
        while parent[x] != x:  # path halving
            parent[x] = x = parent[parent[x]]
        return x

    pending: list = []
    for letters in words:
        i = j = 0
        u = v = base = find(0)
        table = tables[base]  # a walk reads nothing unless its first label is here
        if letters and (letters[0] in table or -letters[-1] in table):
            i, u = _walk(tables, find, base, letters)
            j, v = _walk(tables, find, base, map(neg, reversed(letters[i:])))
        middle = letters[i : len(letters) - j]
        if middle:
            for x in middle[:-1]:
                nxt = len(tables)
                tables[u][x] = nxt  # the walks stopped where these labels are free
                tables.append({-x: u})
                parent.append(nxt)
                u = nxt
            x = middle[-1]
            tables[u][x] = v
            # -x at v clashes only when the middle starts at v with x^-1
            held = tables[v].setdefault(-x, u)
            if held != u:
                pending.append((held, u))
        elif u != v:
            pending.append((u, v))
        while pending:
            if rng is not None:
                k = rng.randrange(len(pending))
                pending[k], pending[-1] = pending[-1], pending[k]
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
    # No trim: a reduced word's loop folds onto a reduced closed walk at
    # the basepoint; every edge lies on such a walk, hence no vertex but
    # the basepoint is left with degree <= 1.
    return tables, find


def _is_rose(tables: list, find, rank: int) -> bool:
    """Whether folded label tables, with their find, are the rose, the
    graph of the whole group: one live table, find(0)'s, holding all
    2 * rank signed labels.  The tables are folded, so that table carries
    each label at most once.  The one rose test.
    """
    return len(tables) - tables.count(None) == 1 and len(tables[find(0)]) == 2 * rank


def build_subgroup_graph(
    generators, rank: int, rng: Random | None = None
) -> SubgroupGraph:
    """Fold the loops of the generators into a subgroup graph.

    The generators are checked here, then their letters go to
    _fold_letters, which folds each loop into per-vertex label tables as
    it arrives, writing only the letters the folded graph cannot read;
    see the module docstring for why no trim step is needed.  rng, when
    given, picks which pending identification to merge next; the result
    is the same graph regardless, which the test suite leans on.  Empty
    generators are skipped; no generators at all gives the one vertex
    graph of the trivial subgroup.
    """
    check_rank((), rank)
    words = []
    for gen in generators:
        letters = _letters_of(gen, "generators")
        check_rank(letters, rank)
        words.append(letters)
    tables, find = _fold_letters(words, rng)
    g = object.__new__(SubgroupGraph)
    g._set(rank, tables, find)
    return g
