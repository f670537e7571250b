"""Primitivity testing by cyclic length minimization.

A word is primitive when it is part of some basis, equivalently when some
automorphism carries it to a single generator.  The test minimizes the
cyclic core: while any kind 2 Whitehead automorphism strictly shortens it,
apply one and repeat.  Peak reduction guarantees the terminal length is
minimal over the whole automorphism orbit, so a nonempty word is primitive
exactly when the loop bottoms out at cyclic length 1.  Kind 1 moves never
change length and play no part in the descent.

The length change of a kind 2 move (A, a) on a cyclically reduced word is
read off the cyclic Whitehead graph: the number of edges crossing between
A and its complement, cross(A), minus the degree of a.  Each descent step
builds that graph once, as the edge-count matrix of edge_matrix, and both
ways of picking a move read only the matrix.  Its vertices are all 2n
letters when the move is picked in enumeration order, and otherwise only
the letters of the generators that occur in the word, so the cost of a
step does not grow with the rank.

Every member set A for a contains a and avoids a^-1, so cross(A) is at
least the minimum cut between a and a^-1, and the minimum over all the
member sets is exactly that cut (Roig, Ventura and Weil, "On the
complexity of the Whitehead minimization problem", IJAC 17, 2007).  One
max-flow per multiplier, stopped once it reaches deg(a), therefore tells
whether any set for a improves.  The two ways of picking the set are:

  * rank <= RANK_ENUM_LIMIT: the first improving set in kind 2
    enumeration order, with cross values updated one added letter at a
    time, which keeps the traces of the full scan;
  * larger ranks: the source side of the minimum cut nearest a, read off
    the same max-flow, which is the same set for every maximum flow.

Every applied step is re-measured on the actual word and checked against
the predicted length.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from .automorphisms import (
    MultiplierAut,
    _apply_k1_letters,
    _apply_k2_letters,
    _kind2_cached,
    enumerate_kind1,
    enumerate_kind2,
    letter_order,
)
from .whitehead_graph import edge_matrix, vertex_letters
from .words import (
    CyclicWord,
    Word,
    _cyclic_strip,
    are_conjugate,
    canonical_rotation,
    commutator,
    format_word,
    iter_reduced_words,
    letter_name,
)

RANK_ENUM_LIMIT = 5

ORACLE_RANK_CAP = 3
ORACLE_LEN_CAP = 10


@dataclass
class MinimizationTrace:
    """Record of one greedy descent.

    steps holds (automorphism, resulting cyclic length) pairs with strictly
    decreasing lengths; final is the terminal cyclic word, at which no
    kind 2 move shortens anything further.
    """

    start: Word
    steps: list[tuple[MultiplierAut, int]] = field(default_factory=list)
    final: CyclicWord = None  # type: ignore[assignment]

    def to_json_dict(self) -> dict:
        return {
            "start": format_word(self.start),
            "steps": [
                {"aut": aut.to_json_dict(), "length": length}
                for aut, length in self.steps
            ],
            "final": format_word(self.final.word),
        }


def _max_flow(cap: list[dict[int, int]], s: int, t: int, bound: float):
    """Maximum s-t flow in the multigraph of the sparse edge-count matrix
    cap, one unit of capacity per edge, by shortest augmenting paths.
    Stops once the flow reaches bound, which may be math.inf.

    Returns (flow, side).  Below the bound, flow is the minimum s-t cut and
    side is the set of vertices reachable from s in the residual graph: the
    source side of the minimum cut nearest s, the same for every maximum
    flow.  At the bound, flow equals bound and side is None.
    """
    res = [dict(row) for row in cap]
    flow = 0
    while flow < bound:
        parent = {s: s}
        queue = [s]
        for u in queue:
            for v, c in res[u].items():
                if c and v not in parent:
                    parent[v] = u
                    if v == t:
                        break
                    queue.append(v)
            else:
                continue
            break
        else:
            return flow, set(queue)
        push = bound - flow
        v = t
        while v != s:
            u = parent[v]
            push = min(push, res[u][v])
            v = u
        v = t
        while v != s:
            u = parent[v]
            res[u][v] -= push
            res[v][u] += push
            v = u
        flow += push
    return flow, None


def _member_crosses(cap: list[dict[int, int]], deg: list[int], a: int):
    """cross(A) for every member set A of the multiplier at vertex a, in
    enumerate_kind2 order when cap spans every generator.  deg holds the
    row sums of cap.  Adding vertex x to A changes cross by
    deg(x) - 2 * (edges from x into A) - cap[x][x]."""
    size = len(cap)
    dense = [[0] * size for _ in cap]
    for x, row in enumerate(cap):
        for y, count in row.items():
            dense[x][y] = count
    pairs = [(x, x ^ 1) for x in range(0, size, 2) if a not in (x, x ^ 1)]
    members = [a]

    def add(x: int, cross: int) -> int:
        row = dense[x]
        return cross + deg[x] - row[x] - 2 * sum(row[y] for y in members)

    def walk(level: int, cross: int):
        if level == len(pairs):
            yield cross
            return
        x, x_inv = pairs[level]
        with_x, with_inv = add(x, cross), add(x_inv, cross)
        yield from walk(level + 1, cross)
        members.append(x)
        yield from walk(level + 1, with_x)
        both = add(x_inv, with_x)
        members[-1] = x_inv
        yield from walk(level + 1, with_inv)
        members.append(x)
        yield from walk(level + 1, both)
        del members[-2:]

    return walk(0, deg[a] - dense[a][a])


def _find_move(core: tuple[int, ...], rank: int, use_cut: bool):
    """First improving kind 2 move on a cyclic core as (automorphism,
    length change), or None when no move shortens it."""
    # A generator missing from the core has degree 0 and never lies on the
    # cut's source side, so the cut engine leaves it out of the matrix.
    # The enum engine keeps every generator, because it walks the member
    # sets of enumerate_kind2.
    gens = sorted({abs(x) for x in core}) if use_cut else range(1, rank + 1)
    names = vertex_letters(gens)
    cap = edge_matrix(core, gens)
    deg = [sum(row.values()) for row in cap]
    # Vertices a and a^-1 have the same degree (every occurrence of a^{+-1}
    # meets both once) and the cut between them is symmetric, so a^-1 has
    # an improving set only when a, which comes first, already has one.
    for a in range(0, len(cap), 2):
        d = deg[a]
        if d == 0:
            continue
        cut, side = _max_flow(cap, a, a ^ 1, d)
        if cut == d:
            continue
        if use_cut:
            return MultiplierAut(names[a], frozenset(names[v] for v in side)), cut - d
        for k, cross in enumerate(_member_crosses(cap, deg, a)):
            if cross < d:
                first = letter_order(rank).index(names[a]) * 4 ** (rank - 1)
                return _kind2_cached(rank)[first + k], cross - d
        raise RuntimeError(f"min cut {cut} < {d} but no member set improves")
    return None


def _minimize_letters(letters: tuple[int, ...], rank: int, engine: str = "auto"):
    """Greedy descent on the cyclic core.  Returns (terminal core, steps)."""
    core = _cyclic_strip(letters)[0]
    steps: list[tuple[MultiplierAut, int]] = []
    use_cut = engine == "cut" or (engine == "auto" and rank > RANK_ENUM_LIMIT)
    while len(core) > 1:
        found = _find_move(core, rank, use_cut)
        if found is None:
            break
        aut, gain = found
        new_core = _cyclic_strip(
            _apply_k2_letters(aut.multiplier, aut.members, core)
        )[0]
        if len(new_core) != len(core) + gain:
            raise RuntimeError(
                f"predicted cyclic length {len(core) + gain} but got "
                f"{len(new_core)} applying {aut!r}"
            )
        steps.append((aut, len(new_core)))
        core = new_core
    return core, steps


def _check_rank(letters, rank: int):
    if rank < 1:
        raise ValueError(f"rank must be >= 1, got {rank}")
    for x in letters:
        if abs(x) > rank:
            raise ValueError(f"letter {letter_name(x)} exceeds rank {rank}")


def whitehead_minimize(w: Word, rank: int) -> MinimizationTrace:
    """Minimize the cyclic length of w by greedy kind 2 moves.

    >>> tr = whitehead_minimize(Word([1, 2, 1, 2, 1]), 2)
    >>> [length for _, length in tr.steps]
    [3, 2, 1]
    """
    _check_rank(w.letters, rank)
    core, steps = _minimize_letters(w.letters, rank)
    return MinimizationTrace(
        start=w, steps=steps, final=CyclicWord(Word._wrap(core, rank))
    )


def is_primitive(w: Word, rank: int) -> bool:
    """Whether w belongs to some basis of the rank n free group.

    The empty word is not primitive.  Conjugation invariant, since the test
    works on the cyclic core.
    """
    _check_rank(w.letters, rank)
    if not w.letters:
        return False
    core, _ = _minimize_letters(w.letters, rank)
    return len(core) == 1


_F2_COMMUTATOR = commutator(Word([1]), Word([2]))


def is_basis_pair_f2(a: Word, b: Word) -> bool:
    """Whether (a, b) is a basis of the rank 2 free group.

    Nielsen's criterion: the pair is a basis exactly when the commutator
    [a, b] is conjugate to [e1, e2] or to its inverse [e2, e1].
    """
    for x in a.letters + b.letters:
        if abs(x) > 2:
            raise ValueError(f"letter {letter_name(x)} exceeds rank 2")
    c = commutator(a, b)
    return are_conjugate(c, _F2_COMMUTATOR) or are_conjugate(
        c, _F2_COMMUTATOR.inverse()
    )


def primitive_orbit_oracle(rank: int, max_len: int) -> set[Word]:
    """Every primitive word of length <= max_len, found without the
    minimization machinery.

    Closes the set of length 1 cyclic words under all Whitehead
    automorphisms of both kinds, keeping cyclic cores of length <= max_len
    (no orbit path needs to leave that window to reach anything inside it),
    then returns all reduced words whose cyclic core landed in the closure.
    Exponential in max_len; capped to small ranks on purpose.
    """
    if not 1 <= rank <= ORACLE_RANK_CAP:
        raise ValueError(f"oracle rank cap is {ORACLE_RANK_CAP}, got {rank}")
    if not 1 <= max_len <= ORACLE_LEN_CAP:
        raise ValueError(f"oracle length cap is {ORACLE_LEN_CAP}, got {max_len}")
    kind1 = [t.images for t in enumerate_kind1(rank)]
    kind2 = [(t.multiplier, t.members) for t in enumerate_kind2(rank)]
    seen: set[tuple[int, ...]] = set()
    frontier: deque[tuple[int, ...]] = deque()
    for i in range(1, rank + 1):
        for g in (i, -i):
            seen.add((g,))
            frontier.append((g,))
    while frontier:
        cur = frontier.popleft()
        for images in kind1:
            img = _apply_k1_letters(images, cur)
            canon = canonical_rotation(img)  # permutations keep reducedness
            if canon not in seen and len(canon) <= max_len:
                seen.add(canon)
                frontier.append(canon)
        for a, members in kind2:
            core = _cyclic_strip(_apply_k2_letters(a, members, cur))[0]
            if not 1 <= len(core) <= max_len:
                continue
            canon = canonical_rotation(core)
            if canon not in seen:
                seen.add(canon)
                frontier.append(canon)
    out: set[Word] = set()
    for w in iter_reduced_words(rank, max_len, include_empty=False):
        if canonical_rotation(_cyclic_strip(w.letters)[0]) in seen:
            out.add(w)
    return out
