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
builds that graph once, as the edge-count matrix of _cyclic_matrix over
the letters of the generators that occur in the word, so the cost of a
step does not grow with the rank.

Every member set A for a contains a and avoids a^-1, so cross(A) is at
least the minimum cut between a and a^-1, and the minimum over all the
member sets is exactly that cut (Roig, Ventura and Weil, "On the
complexity of the Whitehead minimization problem", IJAC 17, 2007).  One
max-flow per multiplier, stopped once it reaches deg(a), therefore tells
whether any set for a improves, and every move is read off such capped
max-flows.  Two frozen policies pick the set of each step of a trace, as
whitehead_minimize returns it:

  * rank <= RANK_ENUM_LIMIT: the first improving set in kind 2
    enumeration order, which keeps the traces of the full scan.  Each
    other generator pair in turn takes its first pattern that still has
    an improving completion, tested by a max-flow with the fixed letters
    tied to a or a^-1, at most 3(k - 1) more flows for k generators;
  * larger ranks: the source side of the minimum cut nearest a, read off
    the same max-flow, which is the same set for every maximum flow.

The policies pin traces only.  Callers that need just the verdict
(is_primitive and the sweeps in verify) take the minimum cut side at
every rank, and apply a move that comes back on two steps in a row as a
power phi^m, m doubled while the cyclic length still drops.  A word like
b a^k then takes a handful of steps instead of one per letter.  Every applied step is re-measured on
the actual word and checked against the predicted length.

is_primitive first reads the Whitehead graph of the core it starts from.
A cyclically reduced word of length >= 2 whose graph is connected with
no cut vertex is not primitive (Whitehead's cut-vertex lemma: Whitehead,
Ann. of Math. 37, 1936; Stallings, "Whitehead graphs on handlebodies",
1999), so such a core is answered without any max-flow, and only the
other cores descend.  The lemma is applied in the free factor F(S')
spanned by the generators S' that occur in the core: the core is
primitive in the rank n group exactly when it is primitive in F(S'), so
a generator the core misses does not send it to the descent.  The
descent itself, _minimize_letters, and whitehead_minimize never use the
lemma, so the sweeps that check it (prop24, npbig) test it against the
descent alone.
"""

from __future__ import annotations

from collections import deque

from .automorphisms import (
    MultiplierAut,
    _apply_k1_letters,
    _apply_k2_letters,
    enumerate_kind1,
    enumerate_kind2,
)
from .whitehead_graph import _cyclic_matrix, _separability, vertex_letters
from .words import (
    CyclicWord,
    Word,
    _Record,
    _check_int,
    _commutator_letters,
    _cyclic_strip,
    _letters_of,
    _reduce_tuple,
    canonical_rotation,
    check_rank,
    format_word,
    iter_reduced_words,
)

RANK_ENUM_LIMIT = 5

ORACLE_RANK_CAP = 3
ORACLE_LEN_CAP = 10


class MinimizationTrace(_Record):
    """Record of one greedy descent.

    steps holds (automorphism, resulting cyclic length) pairs with strictly
    decreasing lengths; final is the terminal cyclic word, at which no
    kind 2 move shortens anything further.
    """

    __slots__ = ("start", "steps", "final")

    def __init__(
        self,
        start: Word,
        steps: list[tuple[MultiplierAut, int]] | None = None,
        final: CyclicWord | None = None,
    ):
        self.start = start
        self.steps = [] if steps is None else steps  # a fresh list per trace
        self.final = final

    def to_json_dict(self) -> dict:
        return {
            "start": format_word(self.start),
            "steps": [
                {"aut": aut.to_json_dict(), "length": length}
                for aut, length in self.steps
            ],
            "final": format_word(self.final.word),
        }


def _max_flow(res: list[dict[int, int]], s: int, t: int, bound: float):
    """Maximum s-t flow in the multigraph of the symmetric sparse
    edge-count matrix res, one unit of capacity per edge.  The flow is
    pushed through res in place, which is left as the residual matrix, so
    the caller passes a matrix it owns and no longer needs.  The direct
    edges s-t and the two-hop paths s-x-t are saturated first, and breadth
    first augmenting paths carry the rest.  Stops once the flow
    reaches bound, which may be math.inf.

    Returns (flow, side).  Below the bound, flow is the minimum s-t cut and
    side is the set of vertices reachable from s in the residual graph: the
    source side of the minimum cut nearest s, the same for every maximum
    flow.  At the bound, flow equals bound and side is None.
    """
    out = res[s]
    flow = 0
    # The edges s-t and the paths s-x-t share no edge, so they are
    # saturated in one sweep.  No augmenting path re-enters s or leaves t,
    # so the reverse residual edges of these paths would never be read and
    # are not written.  The loops compare with <, not min: on this hottest
    # path of the minimizer a builtin call per edge costs more than a test.
    for x, c in out.items():
        if flow >= bound:
            break
        if x == s or not c:
            continue
        push = c if c < bound - flow else bound - flow
        if x != t:
            row = res[x]
            c = row.get(t, 0)
            push = c if c < push else push
            if not push:
                continue
            row[t] -= push
        out[x] -= push
        flow += push
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
            c = res[u][v]
            push = c if c < push else push
            v = u
        v = t
        while v != s:
            u = parent[v]
            res[u][v] -= push
            res[v][u] += push
            v = u
        flow += push
    return flow, None


def _enum_order_set(cap: list[dict[int, int]], a: int, d: int, side: set[int], cross: int):
    """The first member set for vertex a in enumerate_kind2 order whose
    cross is below its degree d, as (set, cross), given one such set side
    with its cross.

    Each other generator pair is fixed in turn to the first pattern
    (neither, x, x^-1, both) that still has an improving completion.  A
    pattern is tested by a max-flow capped at d on a copy of cap in which
    every fixed vertex is joined to a (a member) or to a^-1 (not a
    member) by d parallel edges, so the flow stays below the cap
    exactly when some set that keeps the fixed choices improves.  The
    side of such a flow is the next witness, with the flow as its cross,
    and the witness's own pattern fits without a flow.
    """
    ties: list[tuple[int, int]] = []

    def tie(v: int, member) -> tuple[int, int]:
        return v, a if member else a ^ 1

    for x in range(0, len(cap), 2):
        if x == a:
            continue
        for p in range((x in side) + 2 * (x ^ 1 in side)):
            trial = [dict(row) for row in cap]
            for v, t in ties + [tie(x, p & 1), tie(x ^ 1, p & 2)]:
                trial[v][t] = trial[v].get(t, 0) + d
                trial[t][v] = trial[t].get(v, 0) + d
            flow, found = _max_flow(trial, a, a ^ 1, d)
            if flow < d:
                side, cross = found, flow
                break
        ties += [tie(x, x in side), tie(x ^ 1, x ^ 1 in side)]
    return side, cross


def _find_move(core: tuple[int, ...], use_cut: bool, cap: list[dict[int, int]] | None = None):
    """First improving kind 2 move on a cyclic core as (automorphism,
    length change), or None when no move shortens it.  The move is the
    source side of the minimum cut nearest the multiplier when use_cut
    holds, and otherwise the first improving set in enumerate_kind2
    order.  cap, when given, is the core's edge matrix as built below; it
    is read, never changed."""
    # The matrix spans only the generators in the core.  A missing
    # generator has degree 0, so it never lies on a cut's source side, and
    # its first pattern, neither, always fits.
    if cap is None:
        cap = _cyclic_matrix(core)
    # Vertices a and a^-1 have the same degree (every occurrence of a^{+-1}
    # meets both once) and the cut between them is symmetric, so a^-1 has
    # an improving set only when a, which comes first, already has one.
    for a in range(0, len(cap), 2):
        d = sum(cap[a].values())
        cut, side = _max_flow([dict(row) for row in cap], a, a ^ 1, d)
        if cut == d:
            continue
        if not use_cut:
            side, cut = _enum_order_set(cap, a, d, side, cut)
        names = vertex_letters(sorted({abs(x) for x in core}))
        return MultiplierAut(names[a], frozenset(names[v] for v in side)), cut - d
    return None


def _power_image(a: int, members: frozenset[int], core: tuple[int, ...]):
    """The image of a cyclic core under phi^m, where phi is the kind 2
    move with multiplier a and member set A = members, and m is doubled
    from 1 while the cyclic length of the image still drops, as
    (letters, predicted cyclic length).  The core must hold a letter
    other than a^{+-1}, as every core that some move shortens does.

    Write the core as x_1 a^k_1 ... x_r a^k_r with no x_i in {a, a^-1}.
    phi^m fixes a and sends x to a^-m x when x^-1 is a member and to x a^m
    when x is, so it keeps every x_i and turns k_i into k_i + m e_i, with
    e_i = [x_i in A] - [x_{i+1}^-1 in A] read cyclically.  Where x_{i+1}
    is x_i^-1, e_i is 0 and k_i stays nonzero, so no two x_i ever meet
    and cancel: the image is cyclically reduced, of length
    r + sum |k_i + m e_i|, and one trial costs O(r) for any m.
    """
    start = next(i for i, x in enumerate(core) if x != a and x != -a)
    xs: list[int] = []
    ks: list[int] = []
    for x in core[start:] + core[:start]:
        if x == a:
            ks[-1] += 1
        elif x == -a:
            ks[-1] -= 1
        else:
            xs.append(x)
            ks.append(0)
    es = [(x in members) - (-y in members) for x, y in zip(xs, xs[1:] + xs[:1])]
    fixed = len(xs) + sum(abs(k) for k, e in zip(ks, es) if not e)
    moving = [(k, e) for k, e in zip(ks, es) if e]

    def length(m: int) -> int:
        return fixed + sum(abs(k + m * e) for k, e in moving)

    m, best = 1, length(1)
    while (trial := length(2 * m)) < best:
        m, best = 2 * m, trial
    out: list[int] = []
    for x, k, e in zip(xs, ks, es):
        out.append(x)
        k += m * e
        out += [a] * k if k > 0 else [-a] * -k
    return out, best


def _minimize_letters(
    letters: tuple[int, ...],
    rank: int,
    verdict: bool = False,
    matrix: list[dict[int, int]] | None = None,
):
    """Greedy descent on the cyclic core.  Returns (terminal core, steps).

    matrix, when given, is the first step's edge matrix: that of the
    cyclic core of letters, _cyclic_matrix(core), which a caller that
    already built it hands over.  It is only read.  Every later step
    builds its own.

    Without verdict the steps are the trace: one move per step, chosen by
    the frozen policy of the rank.  With verdict only the terminal core
    is meant for use.  Every step then takes the minimum cut move, and a
    move found on two steps in a row is applied as its power phi^m from
    _power_image, so the steps are not a trace.  Any strictly shortening
    sequence of automorphisms ends at the orbit minimum (peak reduction:
    Higgins and Lyndon, J. London Math. Soc. 8, 1974), so the terminal
    length, and with it the verdict, does not depend on the moves taken.
    """
    core = _cyclic_strip(letters)[0]
    steps: list[tuple[MultiplierAut, int]] = []
    use_cut = verdict or rank > RANK_ENUM_LIMIT
    last = None
    while len(core) > 1:
        found = _find_move(core, use_cut, matrix)
        matrix = None
        if found is None:
            break
        aut, gain = found
        move = (aut.multiplier, aut.members)
        if verdict and move == last:
            image, predicted = _power_image(*move, core)
            new_core = _cyclic_strip(_reduce_tuple(image))[0]
        else:
            image = _apply_k2_letters(*move, core)
            new_core, predicted = _cyclic_strip(image)[0], len(core) + gain
        if len(new_core) != predicted:
            raise RuntimeError(
                f"predicted cyclic length {predicted} but got "
                f"{len(new_core)} applying {aut!r}"
            )
        steps.append((aut, len(new_core)))
        core, last = new_core, move
    return core, steps


def whitehead_minimize(w: Word, rank: int) -> MinimizationTrace:
    """Minimize the cyclic length of w by greedy kind 2 moves.

    >>> tr = whitehead_minimize(Word([1, 2, 1, 2, 1]), 2)
    >>> [length for _, length in tr.steps]
    [3, 2, 1]
    """
    letters = _letters_of(w, "w")
    check_rank(letters, rank)
    core, steps = _minimize_letters(letters, rank)
    return MinimizationTrace(start=w, steps=steps, final=CyclicWord(Word._wrap(core)))


def is_primitive(w: Word, rank: int) -> bool:
    """Whether w belongs to some basis of the rank n free group.

    Conjugation invariant, since the test works on the cyclic core.  A
    core of length 0 (the empty word) is not primitive and one of length
    1 is.  A longer core lies in the free factor F(S') of the generators
    S' it uses, and is primitive exactly when it is primitive there.  If
    its Whitehead graph over S' is connected with no cut vertex, it is not
    primitive by Whitehead's cut-vertex lemma at rank |S'|, which needs no
    max-flow; any other core is minimized, starting from the matrix the
    lemma read, and is primitive when it bottoms out at length 1.
    """
    letters = _letters_of(w, "w")
    check_rank(letters, rank)
    core = _cyclic_strip(letters)[0]
    if len(core) < 2:
        return len(core) == 1
    m = _cyclic_matrix(core)
    if not _separability(m, len(m) // 2)[0]:
        return False
    return len(_minimize_letters(core, rank, verdict=True, matrix=m)[0]) == 1


# least rotations of the cores of [e1, e2] and of its inverse [e2, e1]
_F2_COMMUTATOR_ROTATIONS = tuple(
    canonical_rotation(_commutator_letters((x,), (y,))) for x, y in ((1, 2), (2, 1))
)


def is_basis_pair_f2(a: Word, b: Word) -> bool:
    """Whether (a, b) is a basis of the rank 2 free group.

    Nielsen's criterion: the pair is a basis exactly when the commutator
    [a, b] = a^-1 b^-1 a b is conjugate to [e1, e2] or to its inverse
    [e2, e1], that is when its cyclic core has length 4 and the same least
    rotation as one of theirs.
    """
    a, b = _letters_of(a, "a"), _letters_of(b, "b")
    check_rank(a + b, 2)
    return _basis_pair_letters(a, b)


def _basis_pair_letters(a: tuple[int, ...], b: tuple[int, ...]) -> bool:
    """is_basis_pair_f2 on the letters of two reduced words of rank 2,
    which are not checked here."""
    core = _cyclic_strip(_commutator_letters(a, b))[0]
    return len(core) == 4 and canonical_rotation(core) in _F2_COMMUTATOR_ROTATIONS


def primitive_orbit_oracle(rank: int, max_len: int) -> set[Word]:
    """Every primitive word of length <= max_len, found without the
    minimization machinery.

    Closes the set of length 1 cyclic words under all Whitehead
    automorphisms of both kinds, keeping cyclic cores of length <= max_len
    (no orbit path needs to leave that window to reach anything inside it),
    then returns all reduced words whose cyclic core landed in the closure.
    Exponential in max_len; capped to small ranks on purpose.
    """
    _check_int("rank", rank)
    _check_int("max_len", max_len)
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
