"""Batch checks that sweep word balls and report pass or fail.

Each checker covers an exhaustive ball of reduced words (never a
sample) and returns a VerificationReport.  fact1, npbig and fincov test
their claim on every word.  prop24 and primitive_density depend on a word's
cyclic core only up to symmetry (rotation, inversion and signed
generator permutations), so they walk one core per symmetry class and
count its words exactly.  prop24 names a failing class by that core, its
least necklace, so its report does not grow with the rank.  The walk
tells classes apart by the gap key, the least rotation of a core's
signed gaps back to the previous occurrence of each generator, a fact
about cyclic words that lives in words (_gap_key), where the orbit
oracle of primitivity reads it too.  nielsen-xcheck's three routes are
invariant under the signed permutations of e1 and e2, so it checks one
pair per class of them, counts the class's pairs exactly, and lists
every pair of a failing class.  It reads primitivity from a table of the
walk's class verdicts keyed by the gap keys of each class's core and of
its inverse, so every class verdict comes from the one walk.  The sweeps
build their words from letters they already know are valid, so they call
the letter-level routines beneath the public entries (_minimize_letters,
_basis_pair_letters, _fold_letters, _separability), and no word is
checked again per pair or per translate.  nielsen-xcheck and the stacked
families claimI and lemma38 ask whether letter tuples generate the whole
group one way: _fold_letters, read by _is_rose.  is_primitive answers
non-separable cores by Whitehead's cut-vertex lemma, so prop24 and
npbig, which check that lemma, and the class walk and fincov, call the
descent alone and never is_primitive.  Claim identifiers are short
opaque tags; the claim table at the end of this module fixes them, with
each claim's standard grid and caps.  A report stores no status: it
reads "pass" exactly when the counterexample list is empty, and "fail"
otherwise.

Reports serialize to stable JSON: keys sorted, two space indent, trailing
newline, and the measured wall time zeroed out, so a rerun with identical
parameters is byte identical.  The measured time stays on the in-memory
report for console display.
"""

from __future__ import annotations

import json
import time
from bisect import bisect_right
from functools import cache
from itertools import product
from math import perm
from typing import Callable, Iterator, NamedTuple

from .primitivity import _basis_pair_letters, _minimize_letters, is_primitive, whitehead_minimize
from .stallings import _fold_letters, _is_rose, build_subgroup_graph
from .whitehead_graph import (
    _cyclic_matrix,
    _separability,
    edge_matrix,
    vertex_letters,
    whitehead_edges,
)
from .words import (
    Word,
    _Record,
    _check_int,
    _cyclic_strip,
    _gap_key,
    _letters_of,
    count_reduced_words,
    format_word,
    iter_reduced_words,
)


def _status(counterexamples) -> str:
    """The pass rule: "pass" exactly when there is no counterexample."""
    return "fail" if counterexamples else "pass"


class VerificationReport(_Record):
    """One checked claim.  Its status is read from its counterexamples, so
    no report can disagree with them."""

    __slots__ = ("claim_id", "parameters", "counterexamples", "stats")

    def __init__(self, claim_id: str, parameters: dict, counterexamples: list, stats: dict):
        self.claim_id = claim_id
        self.parameters = parameters
        self.counterexamples = counterexamples
        self.stats = stats

    @property
    def status(self) -> str:
        return _status(self.counterexamples)

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    def to_json_dict(self) -> dict:
        stats = dict(self.stats)
        stats["seconds"] = 0.0  # wall time is noise; zeroed for determinism
        return {
            "claim_id": self.claim_id,
            "parameters": dict(self.parameters),
            "status": self.status,
            "counterexamples": list(self.counterexamples),
            "stats": stats,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, indent=2) + "\n"


def reports_to_json(reports) -> str:
    return json.dumps(
        [r.to_json_dict() for r in reports], sort_keys=True, indent=2
    ) + "\n"


# --- the covering family ---


def build_w(rank: int) -> Word:
    """The seed word e1^2 e_n^2 e1 e2^-1 e1 e2 e3^-1 e2 ... of length 3n+1."""
    _check_int("rank", rank)
    if rank < 2:
        raise ValueError(f"need rank >= 2, got {rank}")
    letters = [1, 1, rank, rank]
    for m in range(1, rank):
        letters += [m, -(m + 1), m]
    w = Word(letters)
    if len(w) != 3 * rank + 1:
        raise RuntimeError(f"seed word of rank {rank} cancelled to length {len(w)}")
    return w


def wij_family(rank: int) -> dict[tuple[int, int], Word]:
    """The n^2 translating words e_i w e_j of the seed word w, as a fresh
    dict keyed by (i, j)."""
    w = build_w(rank)
    return {
        (i, j): Word([i]) * w * Word([j])
        for i in range(1, rank + 1)
        for j in range(1, rank + 1)
    }


def select_wij(a: Word) -> tuple[int, int]:
    """Pick the least (i, j) whose translate e_i w e_j a is cyclically
    reduced with no cancellation at the junction.

    The rule only needs the magnitudes of the boundary letters of a: avoid
    i equal to the last one and j equal to the first one.  Signs do not
    matter, and the least index other than a given one is 1, or 2 when
    that one is 1, so the pick is the same at every rank >= 2, the ranks
    wij_family builds.  Empty a gets (1, 1).
    """
    letters = _letters_of(a, "a")
    if not letters:
        return (1, 1)
    return (1 + (abs(letters[-1]) == 1), 1 + (abs(letters[0]) == 1))


# --- individual claims ---


def verify_npbig(rank: int, max_len: int) -> VerificationReport:
    """Every word a in the ball has a selected translate w_ij a that is
    cyclically reduced, has non-separable Whitehead graph, and is not
    primitive."""
    return _CLAIMS["npbig"].run(rank=rank, max_len=max_len)


def _npbig(rank: int, max_len: int):
    """The npbig sweep, on the letters of words built from the ball.  The
    cut-vertex verdict and the minimizer's verdict on each translate are
    two computations that share only the edge matrix both read."""
    fam = wij_family(rank)
    counterexamples = []
    checked = 0
    for a in iter_reduced_words(rank, max_len, include_empty=True):
        checked += 1
        w, x = fam[select_wij(a)].letters, a.letters
        # w and a are reduced, so w a is reduced of length |w| + |a| exactly
        # when nothing cancels at the junction; w is never empty
        t = w + x
        ok = (not x or w[-1] != -x[0]) and t[0] != -t[-1]
        if ok:
            m = _cyclic_matrix(t)
            ok = not _separability(m, rank)[0]
            if ok:
                ok = len(_minimize_letters(t, rank, verdict=True, matrix=m)[0]) != 1
        if not ok:
            counterexamples.append(format_word(a))
    return counterexamples, {"words_checked": checked}


def verify_fincov(rank: int, max_len: int) -> VerificationReport:
    """Every word in the ball, the empty one included, has at least one
    non-primitive translate w_ij a.  Records how many of the n^2 pairs work
    per word, and how often the pair select_wij picks is not among them
    (never, when the stronger per-word claim holds)."""
    return _CLAIMS["fincov"].run(rank=rank, max_len=max_len)


@cache
def _block_table(letters: tuple[int, ...], rank: int) -> tuple[int | None, ...]:
    """For each start p of a covering word, the least end e such that the
    block letters[p:e] is certified, or None if no block from p is.

    A block is certified when its path graph, the edges (b_k, b_{k+1}^-1)
    with no wrap-around edge, spans all 2n letters, is connected and has
    no cut vertex.  Adding edges keeps all three, so every longer block
    letters[p':e'] with p' <= p and e' >= e is certified too.  The least
    end therefore never decreases as p grows, and once it is None it
    stays None, so one scan builds the table: it starts each search at
    the previous least end and stops when no end is left, which takes at
    most 2 |letters| certified-block checks.
    """

    def certified(p: int, e: int) -> bool:
        block = letters[p:e]
        # the cyclic edges of the block but the last, its wrap-around edge
        m = edge_matrix(whitehead_edges(block)[:-1], sorted({abs(x) for x in block}))
        return not _separability(m, rank)[0]

    table, e = [], 2
    for p in range(len(letters)):
        e = max(e, p + 2)
        while e <= len(letters) and not certified(p, e):
            e += 1
        table.append(e if e <= len(letters) else None)
    return tuple(table)


def _not_primitive(wij: Word, table: tuple[int | None, ...], a: Word, rank: int) -> bool:
    """Whether the translate wij * a is not primitive, given the
    _block_table of wij, decided by the first of two rungs that settles it:

    1. the cyclic core keeps a block of wij that the table certifies.
       The Whitehead graph of the core then contains the block's path
       graph, so it too is connected with no cut vertex, and the core is
       not primitive (Whitehead's cut-vertex lemma: Whitehead, Ann. of
       Math. 37, 1936; Stallings 1999).  Finding the block takes O(|a|)
       letter comparisons and forms no product: s letters of wij cancel
       against a, cyclic reduction strips c letters from each end of the
       product, and the block wij[c : min(|wij| - s, |product| - c)]
       survives;
    2. otherwise the minimizer's verdict on the core that rung 1 located.
       It decides 1.75 % of the translates at (2, 5), 0.53 % at (3, 3)
       and 0.63 % at (3, 6).

    Rung 1 needs rank >= 2: at rank 1 the graph of e1 is connected with
    no cut vertex, yet e1 is primitive.  Only the fincov sweep uses this
    ladder.  is_primitive applies the lemma to a whole core before it
    descends, but rung 2 here, like prop24 and npbig, which check the
    lemma, calls the descent alone and never is_primitive.
    """
    if rank < 2:
        raise ValueError(f"the non-primitivity ladder needs rank >= 2, got {rank}")
    w, x = wij.letters, a.letters
    s = 0
    while s < len(w) and s < len(x) and w[-1 - s] == -x[s]:
        s += 1
    # the product is w[:head] + x[s:]; read its letters in place
    head = len(w) - s
    n = head + len(x) - s
    c = 0
    while n - 2 * c >= 2:
        back = n - 1 - c
        front = w[c] if c < head else x[c - head + s]
        if front != -(w[back] if back < head else x[back - head + s]):
            break
        c += 1
    if c < head:
        end = table[c]
        if end is not None and end <= min(head, n - c):
            return True
    core = (w[:head] + x[s:])[c : n - c]
    return len(_minimize_letters(core, rank, verdict=True)[0]) != 1


def _fincov(rank: int, max_len: int):
    """The fincov sweep.  Each translate is settled by _not_primitive:
    first a certified block of w_ij that survives in the cyclic core, then
    the minimizer.  The block is read from the _block_table of w_ij,
    looked up once per sweep, so the first rung forms no product.  The
    keys of the translates that cover a word give its histogram entry,
    whether its selected pair covers it, and whether it is a
    counterexample, and words_checked is the histogram's total.  A word
    with no cover cannot hold its selected pair, so every counterexample
    also counts as a selected-pair failure."""
    translates = [
        (key, wij, _block_table(wij.letters, rank)) for key, wij in wij_family(rank).items()
    ]
    counterexamples = []
    histogram: dict[int, int] = {}
    selected_failures = 0
    for a in iter_reduced_words(rank, max_len, include_empty=True):
        covered = [key for key, wij, table in translates if _not_primitive(wij, table, a, rank)]
        histogram[len(covered)] = histogram.get(len(covered), 0) + 1
        if select_wij(a) not in covered:
            selected_failures += 1
        if not covered:
            counterexamples.append(format_word(a))
    return counterexamples, {
        "words_checked": sum(histogram.values()),
        "multiplicity_histogram": {str(k): histogram[k] for k in sorted(histogram)},
        "selected_pair_failures": selected_failures,
    }


def verify_fact1(rank: int = 4, max_m: int | None = None, max_k: int = 3) -> VerificationReport:
    """Positive power blocks e1^k1 ... e_m^km with every exponent >= 2 are
    non-primitive, and their minimization traces are empty: no single move
    shortens them at all."""
    max_m = rank if max_m is None else max_m
    return _CLAIMS["fact1"].run(rank=rank, max_m=max_m, max_k=max_k)


def _fact1(rank: int, max_m: int, max_k: int):
    counterexamples = []
    checked = 0
    for m in range(1, max_m + 1):
        for ks in product(range(2, max_k + 1), repeat=m):
            letters = []
            for idx, k in enumerate(ks, start=1):
                letters += [idx] * k
            word = Word(letters)
            checked += 1
            trace = whitehead_minimize(word, rank)
            if trace.steps or is_primitive(word, rank):
                counterexamples.append(format_word(word))
    return counterexamples, {"words_checked": checked}


def verify_prop24(rank: int, max_len: int) -> VerificationReport:
    """The Whitehead graph of every cyclically reduced primitive in the
    ball is separable: disconnected or carrying a cut vertex."""
    return _CLAIMS["prop24"].run(rank=rank, max_len=max_len)


def _prop24(rank: int, max_len: int):
    """The prop24 sweep, one descent and one separability test per
    symmetry class of cyclic cores.  A class that fails is named by its
    core, its least necklace, in the walk's order: by length, then in
    letter order, which is word_sort_key order."""
    counterexamples = []
    checked = 0
    primitives = 0
    distinct = 0
    for core, necklaces, words, primitive in _core_classes(rank, max_len):
        count = necklaces * sum(words)
        checked += count
        if not primitive:
            continue
        primitives += count
        distinct += necklaces
        if not _separability(_cyclic_matrix(core), rank)[0]:
            counterexamples.append(format_word(Word._wrap(core)))
    return counterexamples, {
        "words_checked": checked,
        "primitives_found": primitives,
        "distinct_cores": distinct,
    }


def _necklaces(rank: int, length: int) -> Iterator[tuple[tuple[int, ...], int]]:
    """The least rotation and the period of each relabel-normal rotation
    class of cyclically reduced words of the given length >= 1, in letter
    order.  A necklace is relabel-normal when its generators first occur
    in the order e1, e2, ..., each first as its positive letter.

    The Fredricksen-Kessler-Maiorana walk (Ruskey, Savage and Wang,
    J. Algorithms 13, 1992), depth first over the reduced prenecklaces: one
    of length t whose longest Lyndon prefix has length p grows by each
    letter x >= a[t-p] that does not cancel a[t-1], keeping p when
    x == a[t-p] and taking p = t + 1 otherwise.  At full length it is the
    least of its p distinct rotations exactly when p divides the length,
    and is kept when its last letter does not cancel its first.  The walk
    prunes every prenecklace that is not normal: one using m generators
    grows only by a letter of e1, ..., e_m or by e_{m+1}.  The least
    necklace of each symmetry class (rotation, signed generator
    permutation, inversion) is normal: relabel it by first occurrence and
    the first letter that changes gets smaller.  Lazy, with O(length)
    memory.

    >>> list(_necklaces(2, 3))
    [((1, 1, 1), 1), ((1, 1, 2), 3), ((1, 2, 2), 3)]
    """
    # a prenecklace shorter than length uses fewer than length generators,
    # so the walk never reaches past the first min(rank, length)
    alphabet = vertex_letters(range(1, min(rank, length) + 1))
    size = len(alphabet)
    # (prenecklace, its Lyndon prefix length, the generators it uses, its
    # untried next letters); letters are positions in the alphabet, x ^ 1
    # is the inverse of x, and 2 * used is the next generator's positive
    stack = [((), 0, 0, iter(range(1)))]
    while stack:
        a, p, used, untried = stack[-1]
        for x in untried:
            if a and x == a[-1] ^ 1:
                continue
            b = a + (x,)
            q = p if a and x == a[-p] else len(b)
            if len(b) < length:
                u = used + (x == 2 * used)
                stack.append((b, q, u, iter(range(b[-q], min(size, 2 * u + 1)))))
                break
            if length % q == 0 and x ^ 1 != b[0]:
                yield tuple(alphabet[y] for y in b), q
        else:
            stack.pop()


def _core_classes(rank: int, max_len: int) -> Iterator[tuple[tuple, int, list[int], bool]]:
    """(core, necklaces, words, primitive) for each symmetry class of
    nonempty cyclically reduced cores of length <= max_len, under
    rotation, signed generator permutations and inversion, in the order a
    sweep of the ball first meets them: by length, then in letter order.
    core is the least necklace of the class, necklaces counts the rotation
    classes it holds, and primitive is the descent's verdict on core.

    The walk meets the normal _necklaces only, and yields the first of
    each class, found by the gap keys of the core and of its inverse.  The
    gap key K fixes a core up to rotation and signed permutation, so a
    class using m of the n generators holds per(K) 2^m n!/(n-m)! cyclically
    reduced words, twice that when its inverse's key differs, and all of
    them share the core's period p.

    A reduced word is u c u^-1 for one cyclically reduced c, and such a
    product is reduced exactly when the last letter of u is neither c[0]^-1
    nor c[-1].  So each of the p rotations of a necklace is the core of
    (2n-2)(2n-1)^(k-1) words with |u| = k >= 1, and words[k] counts the
    words of the ball with |u| = k and core in one necklace of the class.
    Checks rank and max_len once, before the walk, and raises
    RuntimeError at the end unless the classes hold every nonempty word of
    the ball, which checks the class sizes too.
    """
    expected = count_reduced_words(rank, max_len) - 1
    n2 = 2 * rank
    conjugators = [1] + [(n2 - 2) * (n2 - 1) ** (k - 1) for k in range(1, max_len // 2 + 1)]
    counted = 0
    for length in range(1, max_len + 1):
        per_core = conjugators[: (max_len - length) // 2 + 1]
        met = set()
        for core, period in _necklaces(rank, length):
            key = _gap_key(core)
            if key in met:
                continue
            inverse_key = _gap_key(tuple(-x for x in reversed(core)))
            met.update((key, inverse_key))
            key_period = next(d for d in range(1, length + 1) if key[d:] + key[:d] == key)
            # a normal core uses e1, ..., e_m, each of them as a positive letter
            used = max(core)
            size = key_period * 2**used * perm(rank, used) * (1 if inverse_key == key else 2)
            necklaces = size // period
            words = [period * c for c in per_core]
            counted += necklaces * sum(words)
            primitive = len(_minimize_letters(core, rank, verdict=True)[0]) == 1
            yield core, necklaces, words, primitive
    if counted != expected:
        raise RuntimeError(
            f"the symmetry classes of the rank {rank} ball up to length {max_len}"
            f" hold {counted} words, not {expected}"
        )


def verify_nielsen_xcheck(max_pair_len: int) -> VerificationReport:
    """Three routes to "is (a, b) a basis of the rank 2 group" must agree
    on every pair with |a| + |b| within the bound: the commutator conjugacy
    test, folding to the rose, and (when they say yes) primitivity of both
    coordinates.  Each route is invariant under the signed permutations
    of e1 and e2, so the sweep checks one pair per class of them."""
    return _CLAIMS["nielsen-xcheck"].run(max_pair_len=max_pair_len)


def _relabel_extent(letters: tuple[int, ...], used: int) -> int | None:
    """k when a relabel-normal prefix using e1, ..., e_used followed by
    letters is relabel-normal and uses e1, ..., e_k, else None."""
    for x in letters:
        if abs(x) > used:
            if x != used + 1:
                return None
            used = x
    return used


def _pair_class(a: tuple[int, ...], b: tuple[int, ...]) -> list[tuple[tuple[int, ...], ...]]:
    """The images of the pair (a, b) under the 8 signed permutations of
    e1 and e2: its closure under inverting e1 and swapping e1 with e2,
    which generate them."""
    moves = ({1: -1, -1: 1, 2: 2, -2: -2}, {1: 2, -1: -2, 2: 1, -2: -1})
    images = [(a, b)]
    for pair in images:  # grows as it is read
        for move in moves:
            image = tuple(tuple(move[x] for x in w) for w in pair)
            if image not in images:
                images.append(image)
    return images


def _nielsen_xcheck(max_pair_len: int):
    """The nielsen-xcheck sweep, on the letters of the rank 2 ball, one
    pair per class under the signed permutations of e1 and e2: the pair
    whose concatenation a b is relabel-normal, the rule of _necklaces.  A
    checked pair using k generators stands for its 2^k 2!/(2-k)! images,
    which the stats count, and a failing one for all of them, listed in
    the order of a sweep of every pair: by the ball positions of a, then
    of b.  The routes agree on a class because an automorphism keeps a
    basis a basis and a word primitive, and relabels the fold and the
    commutator.  Raises RuntimeError unless the class sizes add up to the
    pairs of the ball.

    A word's primitivity is its class's verdict from the class walk,
    looked up by the gap key of its cyclic core: each class is filed
    under the keys of its core and of its inverse, which name it up to
    rotation, signed permutation and inversion.  Each word is looked up
    once per sweep."""
    ball = [w.letters for w in iter_reduced_words(2, max_pair_len, include_empty=True)]
    verdicts = {(): False}  # the empty core is not primitive
    for core, _, _, verdict in _core_classes(2, max_pair_len):
        inverse = tuple(-x for x in reversed(core))
        verdicts[_gap_key(core)] = verdicts[_gap_key(inverse)] = verdict

    @cache
    def primitive(letters: tuple[int, ...]) -> bool:
        return verdicts[_gap_key(_cyclic_strip(letters)[0])]

    sizes = [2**k * perm(2, k) for k in range(3)]
    position = {w: i for i, w in enumerate(ball)}
    failing = []
    checked = 0
    basis_pairs = 0
    for a in ball:
        # a uses e1, ..., e_m; a b uses e1, ..., e_k
        if (m := _relabel_extent(a, 0)) is None:
            continue
        budget = max_pair_len - len(a)
        for b in ball:
            if len(b) > budget:
                break  # ball is sorted by length
            if (k := _relabel_extent(b, m)) is None:
                continue
            checked += sizes[k]
            by_commutator = _basis_pair_letters(a, b)
            ok = by_commutator == _is_rose(*_fold_letters((a, b)), 2)
            if ok and by_commutator:
                basis_pairs += sizes[k]
                ok = primitive(a) and primitive(b)
            if not ok:
                failing += ((position[x], position[y]) for x, y in _pair_class(a, b))
    lengths = [len(w) for w in ball]
    pairs = sum(bisect_right(lengths, max_pair_len - n) for n in lengths)
    if checked != pairs:
        raise RuntimeError(
            f"the signed permutation classes of the rank 2 pairs up to length"
            f" {max_pair_len} hold {checked} pairs, not {pairs}"
        )
    counterexamples = [
        f"({format_word(Word._wrap(ball[i]))}, {format_word(Word._wrap(ball[j]))})"
        for i, j in sorted(failing)
    ]
    return counterexamples, {"words_checked": checked, "basis_pairs": basis_pairs}


# --- the two stacked generating families and their witnesses ---


def _power_tail(n: int) -> Word:
    # e2^3 ... e_{n+1}^3 e_{n+2}^2
    return Word._wrap(tuple(t for t in range(2, n + 2) for _ in range(3)) + (n + 2, n + 2))


def _c_word(k: int) -> Word:
    # e1 e2^3 ... e_k^3 e_{k+1}^2, whose prefix of 3j letters is c_j
    return Word._wrap((1,) + _power_tail(k - 1).letters)


def verify_claim_one(truncation: int) -> VerificationReport:
    """The chained generators b_i = e_i e_{i+1}^2: their partial products
    telescope to e1 e2^3 ... e_{n+1}^3 e_{n+2}^2 exactly, n of them plus
    e_{n+1} generate the whole rank n+1 group, yet the b_i alone span a
    rank N subgroup that misses e1."""
    return _CLAIMS["claimI"].run(truncation=truncation)


def _claim_one(truncation: int):
    """The claimI sweep.  Its generation test folds letter tuples with
    _fold_letters and reads the rose off them with _is_rose."""
    counterexamples = []
    checks = 0
    # b[i - 1] is b_i = e_i e_{i+1}^2
    b = [Word._wrap((i, i + 1, i + 1)) for i in range(1, truncation + 2)]
    prod = b[0]
    for n in range(1, truncation + 1):
        prod = prod * b[n]  # b_1 ... b_{n+1}
        checks += 1
        if prod != _c_word(n + 1):
            counterexamples.append(format_word(prod))
        checks += 1
        if not _is_rose(*_fold_letters([w.letters for w in b[:n]] + [(n + 1,)]), n + 1):
            counterexamples.append(format_word(b[n - 1]))
    graph = build_subgroup_graph(b[:truncation], truncation + 1)
    checks += 1
    if graph.contains(Word([1])):
        counterexamples.append(format_word(Word([1])))
    checks += 1
    if graph.subgroup_rank() != truncation:
        counterexamples.append(format_word(b[truncation - 1]))
    return counterexamples, {"words_checked": checks, "subgroup_rank": graph.subgroup_rank()}


def verify_claim_two(truncation: int) -> VerificationReport:
    """The contradiction witnesses: e2^3 ... e_{n+1}^3 e_{n+2}^2 and the
    bare square e_{n+2}^2 are both non-primitive in rank n+2."""
    return _CLAIMS["claimII"].run(truncation=truncation)


def _claim_two(truncation: int):
    counterexamples = []
    checks = 0
    for n in range(1, truncation + 1):
        rank = n + 2
        for witness in (_power_tail(n), Word([rank, rank])):
            checks += 1
            if is_primitive(witness, rank):
                counterexamples.append(format_word(witness))
    return counterexamples, {"words_checked": checks}


def verify_lemma38(truncation: int) -> VerificationReport:
    """The prefix-stacked family c_k = e1 e2^3 ... e_k^3 e_{k+1}^2: the
    first n of them plus e_{n+1} generate the whole rank n+1 group, while
    the witness e2^3 ... e_n^3 e_{n+1}^2 is non-primitive there."""
    return _CLAIMS["lemma38"].run(truncation=truncation)


def _lemma38(truncation: int):
    """The lemma38 sweep; its generation test is claimI's, on letters."""
    counterexamples = []
    checks = 0
    for n in range(1, truncation + 1):
        c = _c_word(n)
        # c_1, ..., c_n are the prefixes of c_n of 3, 6, ..., 3n letters
        gens = [c.letters[: 3 * k] for k in range(1, n + 1)] + [(n + 1,)]
        checks += 1
        if not _is_rose(*_fold_letters(gens), n + 1):
            counterexamples.append(format_word(c))
        witness = _power_tail(n - 1)  # e2^3 ... e_n^3 e_{n+1}^2
        checks += 1
        if is_primitive(witness, n + 1):
            counterexamples.append(format_word(witness))
    return counterexamples, {"words_checked": checks}


def verify_section3(truncation: int) -> VerificationReport:
    """All three stacked-family claims at once."""
    return _SECTION3.run(truncation=truncation)


def _section3(truncation: int):
    counterexamples = []
    checks = 0
    statuses = {}
    for claim_id, sweep in (
        ("claimI", _claim_one),
        ("claimII", _claim_two),
        ("lemma38", _lemma38),
    ):
        found, stats = sweep(truncation)
        counterexamples += found
        checks += stats["words_checked"]
        statuses[claim_id] = _status(found)
    return counterexamples, {"words_checked": checks, "subclaims": statuses}


def primitive_density(rank: int, max_len: int):
    """Exact per-length counts of primitives among all reduced words.

    Returns rows (length, primitives, total, ratio) for lengths 1 through
    max_len.
    """
    _check_caps(_DENSITY_CAPS, {"rank": rank, "max_len": max_len})
    totals = [0] * (max_len + 1)
    prims = [0] * (max_len + 1)
    for core, necklaces, words, primitive in _core_classes(rank, max_len):
        for k, count in enumerate(words):
            length = len(core) + 2 * k
            totals[length] += necklaces * count
            if primitive:
                prims[length] += necklaces * count
    return [
        (length, prims[length], totals[length], prims[length] / totals[length])
        for length in range(1, max_len + 1)
    ]


# --- the claim table ---


def _allowed(cap, params: dict):
    return cap(params["rank"]) if callable(cap) else cap


def _check_caps(caps: dict, params: dict) -> None:
    """Raise ValueError unless every capped parameter is an int with an
    allowed value."""
    for name, cap in caps.items():
        _check_int(name, params[name])
        allowed = _allowed(cap, params)
        if params[name] not in allowed:
            if isinstance(allowed, range):
                span = f"in {allowed.start}..{allowed[-1]}"
            else:
                span = " or ".join(map(str, allowed))
            raise ValueError(f"{name} must be {span}, got {params[name]}")


class _Claim(NamedTuple):
    """One claim: its sweep, its standard grid and the caps on its
    parameters.

    sweep takes the parameters by name and returns (counterexamples,
    stats).  A cap is a tuple of allowed values, a range, or a function of
    the rank giving either; _check_caps checks them.  length_param names
    the parameter that a max_len override sets.
    """

    claim_id: str
    sweep: Callable[..., tuple[list, dict]]
    grid: tuple[dict, ...]
    caps: dict
    length_param: str = "max_len"

    def run(self, **params) -> VerificationReport:
        _check_caps(self.caps, params)
        t0 = time.perf_counter()
        counterexamples, stats = self.sweep(**params)
        stats = {**stats, "seconds": time.perf_counter() - t0}
        return VerificationReport(self.claim_id, params, counterexamples, stats)

    def with_overrides(self, params: dict, max_len, truncation) -> dict:
        """params with the given overrides clamped into this claim's caps."""
        params = dict(params)
        for name, value in ((self.length_param, max_len), ("truncation", truncation)):
            if value is not None and name in params:
                _check_int(name, value)
                allowed = _allowed(self.caps[name], params)
                params[name] = max(allowed.start, min(value, allowed[-1]))
        return params


_TRANSLATE_RANKS = (2, 3)
_MAX_LEN = range(0, 7)
# the three stacked-family claims, which verify_section3 runs together
_STACKED_GRID = ({"truncation": 10},)
_STACKED_CAPS = {"truncation": range(2, 11)}
# primitive_density is no claim, but its caps are checked the same way
_DENSITY_CAPS = {"rank": range(1, 4), "max_len": range(1, 9)}

_CLAIMS = {
    c.claim_id: c
    for c in (
        _Claim(
            "fact1",
            _fact1,
            grid=({"rank": 4, "max_m": 4, "max_k": 3},),
            caps={
                "rank": range(1, 5),
                "max_m": lambda rank: range(1, rank + 1),
                "max_k": (2, 3),
            },
        ),
        _Claim(
            "prop24",
            _prop24,
            grid=({"rank": 2, "max_len": 8}, {"rank": 3, "max_len": 6}),
            caps={
                "rank": _TRANSLATE_RANKS,
                "max_len": lambda rank: range(0, 9) if rank == 2 else _MAX_LEN,
            },
        ),
        _Claim(
            "npbig",
            _npbig,
            grid=({"rank": 2, "max_len": 5}, {"rank": 3, "max_len": 3}),
            caps={"rank": _TRANSLATE_RANKS, "max_len": _MAX_LEN},
        ),
        _Claim(
            "fincov",
            _fincov,
            grid=({"rank": 2, "max_len": 5}, {"rank": 3, "max_len": 3}),
            caps={"rank": _TRANSLATE_RANKS, "max_len": _MAX_LEN},
        ),
        _Claim(
            "nielsen-xcheck",
            _nielsen_xcheck,
            grid=({"max_pair_len": 6},),
            caps={"max_pair_len": _MAX_LEN},
            length_param="max_pair_len",
        ),
        _Claim("claimI", _claim_one, grid=_STACKED_GRID, caps=_STACKED_CAPS),
        _Claim("claimII", _claim_two, grid=_STACKED_GRID, caps=_STACKED_CAPS),
        _Claim("lemma38", _lemma38, grid=_STACKED_GRID, caps=_STACKED_CAPS),
    )
}

CLAIM_IDS = tuple(_CLAIMS)
# the composite of the three stacked-family claims, kept out of CLAIM_IDS
_SECTION3 = _Claim("section3", _section3, grid=_STACKED_GRID, caps=_STACKED_CAPS)


def run_claims(
    claim_id: str | None = None,
    rank: int | None = None,
    max_len: int | None = None,
    truncation: int | None = None,
) -> list[VerificationReport]:
    """Run grid entries, optionally filtered to one claim id or one rank,
    with length and truncation overrides clamped to each claim's caps.

    claim_id None (or "all") runs everything; "section3" runs the composite
    stacked-family report instead of its three parts.
    """
    if claim_id == "section3":
        claims = [_SECTION3]
    elif claim_id in (None, "all"):
        claims = list(_CLAIMS.values())
    elif claim_id in _CLAIMS:
        claims = [_CLAIMS[claim_id]]
    else:
        raise ValueError(f"unknown claim id {claim_id!r}")
    if rank is not None:
        _check_int("rank", rank)
    reports = []
    for claim in claims:
        for params in claim.grid:
            if rank is not None and params.get("rank", rank) != rank:
                continue
            reports.append(claim.run(**claim.with_overrides(params, max_len, truncation)))
    return reports
