"""Batch checks that sweep word balls and report pass or fail.

Each checker covers an exhaustive ball of reduced words (never a
sample) and returns a VerificationReport.  Most test their claim on every
word; prop24 and primitive_density visit each rotation class of cyclic
cores once and count its words exactly, since their claims depend on the
core's class alone.  They and nielsen-xcheck settle primitivity once per
symmetry class (rotation, inversion and signed generator permutations),
through a classifier that lives for one sweep.  It names a core's class
by its gap key, the least rotation of its signed gaps back to the
previous occurrence of each generator, and files each verdict under two
keys, the core's and its inverse's, at every rank.  The sweeps build
their words from letters they already know are valid, so they call the
letter-level routines beneath the public entries
(_minimize_letters, _basis_pair_letters, _fold_letters, _separability),
and no word is checked again per pair or per translate.  is_primitive
answers non-separable cores by Whitehead's cut-vertex lemma, so prop24
and npbig, which check that lemma, and the classifier and fincov, call
the descent alone and never is_primitive.  Claim
identifiers are short opaque tags; the claim table at the end of this
module fixes them, with each claim's standard grid and caps.  Status is
"pass" exactly when the counterexample list is empty.

Reports serialize to stable JSON: keys sorted, two space indent, trailing
newline, and the measured wall time zeroed out, so a rerun with identical
parameters is byte identical.  The measured time stays on the in-memory
report for console display.
"""

from __future__ import annotations

import json
import time
from functools import cache
from itertools import product
from typing import Callable, Iterator, NamedTuple

from .primitivity import _basis_pair_letters, _minimize_letters, is_primitive, whitehead_minimize
from .stallings import _fold_letters, build_subgroup_graph
from .whitehead_graph import _cyclic_matrix, _separability, edge_matrix
from .words import (
    Word,
    _FrozenRecord,
    _Record,
    _cyclic_strip,
    canonical_rotation,
    count_reduced_words,
    format_word,
    iter_reduced_words,
    letter_order,
)


class VerificationReport(_Record):
    __slots__ = ("claim_id", "parameters", "status", "counterexamples", "stats")

    def __init__(
        self, claim_id: str, parameters: dict, status: str, counterexamples: list, stats: dict
    ):
        self.claim_id = claim_id
        self.parameters = parameters
        self.status = status
        self.counterexamples = counterexamples
        self.stats = stats

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


def make_report(claim_id, parameters, counterexamples, stats, seconds) -> VerificationReport:
    stats = dict(stats)
    stats["seconds"] = seconds
    return VerificationReport(
        claim_id=claim_id,
        parameters=dict(parameters),
        status="pass" if not counterexamples else "fail",
        counterexamples=list(counterexamples),
        stats=stats,
    )


def reports_to_json(reports) -> str:
    return json.dumps(
        [r.to_json_dict() for r in reports], sort_keys=True, indent=2
    ) + "\n"


# --- the covering family ---


def build_w(rank: int) -> Word:
    """The seed word e1^2 e_n^2 e1 e2^-1 e1 e2 e3^-1 e2 ... of length 3n+1."""
    if rank < 2:
        raise ValueError(f"need rank >= 2, got {rank}")
    letters = [1, 1, rank, rank]
    for m in range(1, rank):
        letters += [m, -(m + 1), m]
    w = Word(letters)
    if len(w) != 3 * rank + 1:
        raise RuntimeError(f"seed word of rank {rank} cancelled to length {len(w)}")
    return w


class _ReadOnlyDict(dict):
    """A dict that refuses every change once built.  A MappingProxyType can
    be neither pickled nor deep-copied; this goes through its constructor."""

    __slots__ = ()

    def _refuse(self, *args, **kwargs):
        raise TypeError("the table is read-only")

    __setitem__ = __delitem__ = __ior__ = clear = pop = popitem = setdefault = update = _refuse

    def __reduce__(self):
        return type(self), (dict(self),)


class WijFamily(_FrozenRecord):
    """The n^2 translating words e_i w e_j indexed by (i, j).  The family
    keeps a read-only copy of the table, and hashes by rank and w."""

    __slots__ = ("rank", "w", "table")

    def __init__(self, rank: int, w: Word, table: dict):
        if len(table) != rank * rank:
            raise ValueError(
                f"need {rank * rank} translates for rank {rank}, got {len(table)}"
            )
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "table", _ReadOnlyDict(table))

    def __hash__(self) -> int:
        return hash((self.rank, self.w))


def wij_family(rank: int) -> WijFamily:
    w = build_w(rank)
    table = {
        (i, j): Word([i]) * w * Word([j])
        for i in range(1, rank + 1)
        for j in range(1, rank + 1)
    }
    return WijFamily(rank=rank, w=w, table=table)


def select_wij(a: Word, fam: WijFamily) -> tuple[int, int]:
    """Pick the least (i, j) whose translate e_i w e_j a is cyclically
    reduced with no cancellation at the junction.

    The rule only needs the magnitudes of the boundary letters of a: avoid
    i equal to the last one and j equal to the first one.  Signs do not
    matter.  Empty a gets (1, 1).
    """
    if not a.letters:
        return (1, 1)
    first = abs(a.letters[0])
    last = abs(a.letters[-1])
    for i in range(1, fam.rank + 1):
        if i == last:
            continue
        for j in range(1, fam.rank + 1):
            if j == first:
                continue
            return (i, j)
    raise ValueError("no valid pair; family rank must be >= 2")


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
        w, x = fam.table[select_wij(a, fam)].letters, a.letters
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
    letters[p':e'] with p' <= p and e' >= e is certified too.
    """

    def certified(p: int, e: int) -> bool:
        edges = [(letters[k], -letters[k + 1]) for k in range(p, e - 1)]
        m = edge_matrix(edges, sorted({abs(x) for x in letters[p:e]}))
        return not _separability(m, rank)[0]

    n = len(letters)
    return tuple(
        next((e for e in range(p + 2, n + 1) if certified(p, e)), None) for p in range(n)
    )


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
    looked up once per sweep, so the first rung forms no product."""
    fam = wij_family(rank)
    translates = [
        (key, fam.table[key], _block_table(fam.table[key].letters, rank))
        for key in sorted(fam.table)
    ]
    counterexamples = []
    histogram: dict[int, int] = {}
    selected_failures = 0
    checked = 0
    for a in iter_reduced_words(rank, max_len, include_empty=True):
        checked += 1
        selected = select_wij(a, fam)
        multiplicity = 0
        selected_covers = False
        for key, wij, table in translates:
            if _not_primitive(wij, table, a, rank):
                multiplicity += 1
                if key == selected:
                    selected_covers = True
        histogram[multiplicity] = histogram.get(multiplicity, 0) + 1
        if not selected_covers:
            selected_failures += 1
        if multiplicity == 0:
            counterexamples.append(format_word(a))
    if selected_failures == 0 and counterexamples:
        raise RuntimeError(
            "a covering selected pair forces multiplicity >= 1 word by word, "
            f"yet {counterexamples[0]!r} has none"
        )
    return counterexamples, {
        "words_checked": checked,
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
    counterexamples = []
    checked = 0
    primitives = 0
    distinct = 0
    separable_by_class: dict = {}
    for core, words, cls, primitive in _core_classes(rank, max_len):
        count = sum(words)
        checked += count
        if not primitive:
            continue
        primitives += count
        distinct += 1
        separable = separable_by_class.get(cls)
        if separable is None:
            separable = _separability(_cyclic_matrix(core), rank)[0]
            separable_by_class[cls] = separable
        if not separable:
            counterexamples.append(format_word(Word._wrap(core)))
    return counterexamples, {
        "words_checked": checked,
        "primitives_found": primitives,
        "distinct_cores": distinct,
    }


def _necklaces(rank: int, length: int) -> Iterator[tuple[tuple[int, ...], int]]:
    """The least rotation and the period of each rotation class of
    cyclically reduced words of the given length >= 1, in letter order.

    The Fredricksen-Kessler-Maiorana walk (Ruskey, Savage and Wang,
    J. Algorithms 13, 1992), depth first over the reduced prenecklaces: one
    of length t whose longest Lyndon prefix has length p grows by each
    letter x >= a[t-p] that does not cancel a[t-1], keeping p when
    x == a[t-p] and taking p = t + 1 otherwise.  At full length it is the
    least of its p distinct rotations exactly when p divides the length,
    and is kept when its last letter does not cancel its first.  Lazy, with
    O(length) memory.

    >>> list(_necklaces(2, 2))  # doctest: +NORMALIZE_WHITESPACE
    [((1, 1), 1), ((1, 2), 2), ((1, -2), 2), ((-1, -1), 1), ((-1, 2), 2),
     ((-1, -2), 2), ((2, 2), 1), ((-2, -2), 1)]
    """
    alphabet = letter_order(rank)
    size = len(alphabet)
    # (prenecklace, its Lyndon prefix length, its untried next letters);
    # letters are positions in the alphabet, and x ^ 1 is the inverse of x
    stack = [((), 0, iter(range(size)))]
    while stack:
        a, p, untried = stack[-1]
        for x in untried:
            if a and x == a[-1] ^ 1:
                continue
            b = a + (x,)
            q = p if a and x == a[-p] else len(b)
            if len(b) < length:
                stack.append((b, q, iter(range(b[-q], size))))
                break
            if length % q == 0 and x ^ 1 != b[0]:
                yield tuple(alphabet[y] for y in b), q
        else:
            stack.pop()


def _gap_key(core: tuple[int, ...]) -> tuple[int, ...]:
    """The least rotation of the gap sequence of a cyclic core.

    Position i holds +g or -g, where g is the cyclic distance back to the
    previous occurrence of the same generator, signed + when it is the
    same letter and - when it is the inverse.  A signed generator
    permutation leaves the sequence unchanged and a rotation of the core
    rotates it.  The back links form one cycle per generator, and the
    signs fix the letters along each cycle up to one sign, so the
    sequence fixes the core up to a signed permutation.  The gaps are
    nonzero ints, which canonical_rotation orders like letters.

    >>> _gap_key((1, 2, -1, 2)), _gap_key((2, -1, -2, -1)), _gap_key((1, 2, 1, 2))
    ((2, -2, 2, -2), (2, -2, 2, -2), (2, 2, 2, 2))
    """
    n = len(core)
    # the last occurrence of each generator, as a negative index, is the
    # previous one of its first occurrence
    last = {abs(x): i - n for i, x in enumerate(core)}
    gaps = []
    for i, x in enumerate(core):
        g = abs(x)
        j = last[g]
        last[g] = i
        gaps.append(i - j if core[j] == x else j - i)
    return canonical_rotation(tuple(gaps))


def _symmetry_classifier(rank: int) -> Callable[[tuple[int, ...]], tuple[tuple, bool]]:
    """A function classify(core) -> (class, primitive) for the cyclically
    reduced cores of one sweep, one verdict per symmetry class.  Any
    rotation of a core may be passed.

    Primitivity is invariant under rotation, inversion and signed
    generator permutations, and so is the separability of the Whitehead
    graph: a permutation relabels its vertices and inversion keeps its
    edges.  A core's _gap_key names its class under rotations and signed
    permutations, and the key of its inverse adds inversion.  A class is
    named by the first of its cores classified.  A miss minimizes that
    core once and files the class under its key and its inverse's key,
    two keys per class at every rank.  The filed classes live in the
    closure: make one classifier per sweep.
    """
    filed: dict[tuple[int, ...], tuple[tuple, bool]] = {}

    def classify(core: tuple[int, ...]) -> tuple[tuple, bool]:
        key = _gap_key(core)
        entry = filed.get(key)
        if entry is None:
            entry = core, len(_minimize_letters(core, rank, verdict=True)[0]) == 1
            filed[key] = filed[_gap_key(tuple(-x for x in reversed(core)))] = entry
        return entry

    return classify


def _core_classes(rank: int, max_len: int) -> Iterator[tuple[tuple, list[int], tuple, bool]]:
    """(least rotation, words, class, primitive) for each rotation class
    of nonempty cyclically reduced cores of length <= max_len, in the
    order a sweep of the ball first meets them: by length, then in letter
    order.  class and primitive are the symmetry class of the core and its
    verdict, from one _symmetry_classifier per call: the class is named
    by its first core met, found by the gap key of each later one, and
    the verdict is the descent's on that first core.

    A reduced word is u c u^-1 for one cyclically reduced c, and such a
    product is reduced exactly when the last letter of u is neither c[0]^-1
    nor c[-1].  So each of the p rotations of a class of period p is the
    core of (2n-2)(2n-1)^(k-1) words with |u| = k >= 1, and words[k] counts
    the words of the ball with |u| = k and core in the class.  Raises
    RuntimeError at the end unless the classes hold every nonempty word of
    the ball.
    """
    n2 = 2 * rank
    conjugators = [1] + [(n2 - 2) * (n2 - 1) ** (k - 1) for k in range(1, max_len // 2 + 1)]
    classify = _symmetry_classifier(rank)
    counted = 0
    for length in range(1, max_len + 1):
        per_core = conjugators[: (max_len - length) // 2 + 1]
        for core, period in _necklaces(rank, length):
            words = [period * c for c in per_core]
            counted += sum(words)
            cls, primitive = classify(core)
            yield core, words, cls, primitive
    expected = count_reduced_words(rank, max_len) - 1
    if counted != expected:
        raise RuntimeError(
            f"the rotation classes of the rank {rank} ball up to length {max_len}"
            f" hold {counted} words, not {expected}"
        )


def verify_nielsen_xcheck(max_pair_len: int) -> VerificationReport:
    """Three routes to "is (a, b) a basis of the rank 2 group" must agree
    on every pair with |a| + |b| within the bound: the commutator conjugacy
    test, folding to the rose, and (when they say yes) primitivity of both
    coordinates."""
    return _CLAIMS["nielsen-xcheck"].run(max_pair_len=max_pair_len)


def _nielsen_xcheck(max_pair_len: int):
    """The nielsen-xcheck sweep, on the letters of the rank 2 ball."""
    ball = [w.letters for w in iter_reduced_words(2, max_pair_len, include_empty=True)]
    classify = _symmetry_classifier(2)

    def primitive(letters: tuple[int, ...]) -> bool:
        return classify(_cyclic_strip(letters)[0])[1]

    counterexamples = []
    checked = 0
    basis_pairs = 0
    for a in ball:
        budget = max_pair_len - len(a)
        a_primitive = None  # settled at the first basis pair (a, b)
        for b in ball:
            if len(b) > budget:
                break  # ball is sorted by length
            checked += 1
            by_commutator = _basis_pair_letters(a, b)
            # the rose: one live vertex, whose table holds all four labels
            tables, find = _fold_letters((a, b))
            by_rose = len(tables) - tables.count(None) == 1 and len(tables[find(0)]) == 4
            ok = by_commutator == by_rose
            if ok and by_commutator:
                basis_pairs += 1
                if a_primitive is None:
                    a_primitive = primitive(a)
                ok = a_primitive and primitive(b)
            if not ok:
                pair = ", ".join(format_word(Word._wrap(w)) for w in (a, b))
                counterexamples.append(f"({pair})")
    return counterexamples, {"words_checked": checked, "basis_pairs": basis_pairs}


# --- the two stacked generating families and their witnesses ---


def _b_word(i: int) -> Word:
    # e_i e_{i+1}^2
    return Word([i, i + 1, i + 1])


def _power_tail(n: int) -> Word:
    # e2^3 ... e_{n+1}^3 e_{n+2}^2
    letters = []
    for t in range(2, n + 2):
        letters += [t] * 3
    letters += [n + 2] * 2
    return Word(letters)


def _c_word(k: int) -> Word:
    # e1 e2^3 ... e_k^3 e_{k+1}^2
    return Word([1]) * _power_tail(k - 1)


def verify_claim_one(truncation: int) -> VerificationReport:
    """The chained generators b_i = e_i e_{i+1}^2: their partial products
    telescope to e1 e2^3 ... e_{n+1}^3 e_{n+2}^2 exactly, n of them plus
    e_{n+1} generate the whole rank n+1 group, yet the b_i alone span a
    rank N subgroup that misses e1."""
    return _CLAIMS["claimI"].run(truncation=truncation)


def _claim_one(truncation: int):
    counterexamples = []
    checks = 0
    for n in range(1, truncation + 1):
        prod = Word([])
        for i in range(1, n + 2):
            prod = prod * _b_word(i)
        checks += 1
        if prod != _c_word(n + 1):
            counterexamples.append(format_word(prod))
        gens = [_b_word(i) for i in range(1, n + 1)] + [Word([n + 1])]
        checks += 1
        if not build_subgroup_graph(gens, n + 1).generates_whole_group():
            counterexamples.append(format_word(_b_word(n)))
    graph = build_subgroup_graph(
        [_b_word(i) for i in range(1, truncation + 1)], truncation + 1
    )
    checks += 1
    if graph.contains(Word([1])):
        counterexamples.append(format_word(Word([1])))
    checks += 1
    if graph.subgroup_rank() != truncation:
        counterexamples.append(format_word(_b_word(truncation)))
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
    counterexamples = []
    checks = 0
    for n in range(1, truncation + 1):
        gens = [_c_word(k) for k in range(1, n + 1)] + [Word([n + 1])]
        checks += 1
        if not build_subgroup_graph(gens, n + 1).generates_whole_group():
            counterexamples.append(format_word(_c_word(n)))
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
        statuses[claim_id] = "fail" if found else "pass"
    return counterexamples, {"words_checked": checks, "subclaims": statuses}


def primitive_density(rank: int, max_len: int):
    """Exact per-length counts of primitives among all reduced words.

    Returns rows (length, primitives, total, ratio) for lengths 1 through
    max_len.
    """
    _check_caps(_DENSITY_CAPS, {"rank": rank, "max_len": max_len})
    totals = [0] * (max_len + 1)
    prims = [0] * (max_len + 1)
    for core, words, _, primitive in _core_classes(rank, max_len):
        for k, count in enumerate(words):
            length = len(core) + 2 * k
            totals[length] += count
            if primitive:
                prims[length] += count
    return [
        (length, prims[length], totals[length], prims[length] / totals[length])
        for length in range(1, max_len + 1)
    ]


# --- the claim table ---


def _allowed(cap, params: dict):
    return cap(params["rank"]) if callable(cap) else cap


def _check_int(name: str, value) -> None:
    # a bool is an int subclass, and 3.0 == 3, but neither is a count
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name} must be an int, got {value!r}")


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

    def allowed(self, name: str, params: dict):
        return _allowed(self.caps[name], params)

    def run(self, **params) -> VerificationReport:
        _check_caps(self.caps, params)
        t0 = time.perf_counter()
        counterexamples, stats = self.sweep(**params)
        return make_report(
            self.claim_id, params, counterexamples, stats, time.perf_counter() - t0
        )

    def with_overrides(self, params: dict, max_len, truncation) -> dict:
        """params with the given overrides clamped into this claim's caps."""
        params = dict(params)
        for name, value in ((self.length_param, max_len), ("truncation", truncation)):
            if value is not None and name in params:
                _check_int(name, value)
                allowed = self.allowed(name, params)
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
    reports = []
    for claim in claims:
        for params in claim.grid:
            if rank is not None and params.get("rank", rank) != rank:
                continue
            reports.append(claim.run(**claim.with_overrides(params, max_len, truncation)))
    return reports
