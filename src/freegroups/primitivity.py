"""Primitivity testing by cyclic length minimization.

A word is primitive when it is part of some basis, equivalently when some
automorphism carries it to a single generator.  The test minimizes the
cyclic core: while any kind 2 Whitehead automorphism strictly shortens it,
apply one and repeat.  Peak reduction guarantees the terminal length is
minimal over the whole automorphism orbit, so a nonempty word is primitive
exactly when the loop bottoms out at cyclic length 1.  Kind 1 moves never
change length and play no part in the descent.

The length change of a kind 2 move (A, a) on a cyclically reduced word is
read off the cyclic Whitehead graph: edges crossing the cut between A and
its complement, minus the degree of a.  Two interchangeable engines find
improving moves with that formula:

  * rank <= RANK_ENUM_LIMIT: scan the full kind 2 enumeration in order and
    take the first improvement, which makes traces reproducible run to run;
  * larger ranks: the best cut for each multiplier a is a minimum cut
    separating a from a^-1, so one max-flow per multiplier replaces the
    4^(n-1) member set scan and finds an improving move whenever one exists.

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
from .whitehead_graph import whitehead_edges
from .words import (
    CyclicWord,
    Word,
    _cyclic_strip,
    are_conjugate,
    canonical_rotation,
    commutator,
    format_word,
    iter_reduced_words,
    letter_key,
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


def _degrees(pairs) -> dict[int, int]:
    deg: dict[int, int] = {}
    for x, y in pairs:
        deg[x] = deg.get(x, 0) + 1
        deg[y] = deg.get(y, 0) + 1
    return deg


def _gain(pairs, deg, aut: MultiplierAut) -> int:
    members = aut.members
    cross = sum(1 for x, y in pairs if (x in members) != (y in members))
    return cross - deg.get(aut.multiplier, 0)


def _find_move_enum(pairs, deg, rank: int):
    for aut in _kind2_cached(rank):
        if deg.get(aut.multiplier, 0) == 0:
            continue  # cut size is nonnegative, no improvement possible
        g = _gain(pairs, deg, aut)
        if g < 0:
            return aut, g
    return None


def _min_cut(pairs, s: int, t: int):
    """Minimum s-t cut in the multigraph given by pairs (unit capacity per
    edge instance).  Returns (cut value, source side vertex set)."""
    cap: dict[tuple[int, int], int] = {}
    nbrs: dict[int, set[int]] = {}
    for x, y in pairs:
        cap[x, y] = cap.get((x, y), 0) + 1
        cap[y, x] = cap.get((y, x), 0) + 1
        nbrs.setdefault(x, set()).add(y)
        nbrs.setdefault(y, set()).add(x)
    adj = {v: sorted(ns, key=letter_key) for v, ns in nbrs.items()}
    flow = 0
    while True:
        parent: dict[int, int | None] = {s: None}
        queue = deque([s])
        while queue and t not in parent:
            u = queue.popleft()
            for v in adj.get(u, ()):
                if v not in parent and cap.get((u, v), 0) > 0:
                    parent[v] = u
                    queue.append(v)
        if t not in parent:
            break
        path = []
        v = t
        while parent[v] is not None:
            u = parent[v]
            path.append((u, v))
            v = u
        bottleneck = min(cap[u, v] for u, v in path)
        for u, v in path:
            cap[u, v] -= bottleneck
            cap[v, u] = cap.get((v, u), 0) + bottleneck
        flow += bottleneck
    reachable = {s}
    queue = deque([s])
    while queue:
        u = queue.popleft()
        for v in adj.get(u, ()):
            if v not in reachable and cap.get((u, v), 0) > 0:
                reachable.add(v)
                queue.append(v)
    return flow, reachable


def _find_move_cut(pairs, deg, rank: int):
    for a in letter_order(rank):
        d = deg.get(a, 0)
        if d == 0:
            continue
        cut, side = _min_cut(pairs, a, -a)
        if cut < d:
            return MultiplierAut(a, frozenset(side)), cut - d
    return None


def _minimize_letters(letters: tuple[int, ...], rank: int, engine: str = "auto"):
    """Greedy descent on the cyclic core.  Returns (terminal core, steps)."""
    core = _cyclic_strip(letters)[0]
    steps: list[tuple[MultiplierAut, int]] = []
    use_cut = engine == "cut" or (engine == "auto" and rank > RANK_ENUM_LIMIT)
    while len(core) > 1:
        pairs = whitehead_edges(core)
        deg = _degrees(pairs)
        found = _find_move_cut(pairs, deg, rank) if use_cut else _find_move_enum(pairs, deg, rank)
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
