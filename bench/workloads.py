"""The three benchmark workloads: inputs from a seed, one timed pass, checks.

Inputs are built by this module's own letter arithmetic, never by the
program under test, so a change to the program cannot change its inputs.
A pass takes an ``api`` namespace of program entry points (traced or not)
and an ``item`` callback that tags the spans of each operation; it
returns a ``PassResult`` whose verdicts and digests the caller checks
against the frozen references.  An operation that raises counts as
failed, and its traceback goes to standard error.

Letters are nonzero integers as in freegroups: +i is generator i, -i its
inverse.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import traceback
from dataclasses import dataclass, field
from pathlib import Path

OUT_DIR = Path(__file__).resolve().parent / "out"


@dataclass
class PassResult:
    items: int = 0
    attempted: int = 0
    failed: int = 0
    # compared with the references: one character per operation ...
    verdicts: dict = field(default_factory=dict)
    # ... or (digest, number of operations it covers)
    digests: dict = field(default_factory=dict)


def free_reduce(seq) -> list[int]:
    out: list[int] = []
    for x in seq:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return out


def cyclic_core(seq) -> list[int]:
    i, j = 0, len(seq)
    while j - i >= 2 and seq[i] == -seq[j - 1]:
        i += 1
        j -= 1
    return list(seq[i:j])


def letter_text(word) -> str:
    """Plain letter form, one character per letter ("abA")."""
    return "".join(chr(96 + x) if x > 0 else chr(64 - x) for x in word)


def random_reduced(rng: random.Random, rank: int, length: int) -> list[int]:
    pool = [s * i for i in range(1, rank + 1) for s in (1, -1)]
    out: list[int] = []
    while len(out) < length:
        x = rng.choice(pool)
        if not out or out[-1] != -x:
            out.append(x)
    return out


def _digest(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()


def _verdict_text(verdicts) -> str:
    """One character per operation: 1 true, 0 false, x raised."""
    return "".join("x" if v is None else "1" if v else "0" for v in verdicts)


def _capture(cli_main, argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli_main(argv)
    return rc, buf.getvalue()


# --- grid ---


class Grid:
    """``freegroups verify all --json FILE`` through ``cli.main``.

    The grid has no free input, so the seed changes nothing here; it is
    still recorded with the result.
    """

    name = "grid"
    SEEDED = ()

    def __init__(self, seed: int):
        self.seed = seed
        self.json_path = OUT_DIR / "grid.json"

    def warm_up(self, api) -> None:
        _capture(api.cli_main, ["verify", "claimII", "--truncation", "2"])

    def prepare(self, api) -> None:
        OUT_DIR.mkdir(exist_ok=True)

    def run_pass(self, api, item) -> PassResult:
        res = PassResult(attempted=1)
        item(0)
        try:
            rc, _ = _capture(api.cli_main, ["verify", "all", "--json", str(self.json_path)])
        except Exception:
            traceback.print_exc()
            res.failed = 1
            return res
        data = self.json_path.read_bytes()
        res.digests["grid"] = (f"exit {rc} sha256 {hashlib.sha256(data).hexdigest()}", 1)
        res.items = sum(r["stats"]["words_checked"] for r in json.loads(data))
        return res


# --- long words ---


def build_w(rank: int) -> list[int]:
    """e1^2 e_n^2 e1 e2^-1 e1 e2 e3^-1 e2 ..., the fincov seed word."""
    letters = [1, 1, rank, rank]
    for m in range(1, rank):
        letters += [m, -(m + 1), m]
    return letters


def ball(rank: int, max_len: int):
    """Reduced words of length <= max_len, by length then letter order."""
    alphabet = [s * i for i in range(1, rank + 1) for s in (1, -1)]
    out = [()]
    frontier = [()]
    for _ in range(max_len):
        frontier = [
            stem + (x,) for stem in frontier for x in alphabet
            if not stem or stem[-1] != -x
        ]
        out += frontier
    return out


def selected_pair(a, rank: int) -> tuple[int, int]:
    """Least (i, j) with e_i w e_j a cyclically reduced without cancellation
    at the junction: i avoids |last letter|, j avoids |first letter|."""
    if not a:
        return (1, 1)
    first, last = abs(a[0]), abs(a[-1])
    return next(
        (i, j)
        for i in range(1, rank + 1) if i != last
        for j in range(1, rank + 1) if j != first
    )


def random_whitehead(rng: random.Random, rank: int, word) -> list[int]:
    """Image of a cyclic word under a random kind 2 Whitehead automorphism
    followed by a random signed permutation, cyclically reduced."""
    a = rng.choice([s * i for i in range(1, rank + 1) for s in (1, -1)])
    members = {a} | {
        x for i in range(1, rank + 1) if i != abs(a)
        for x in (i, -i) if rng.random() < 0.5
    }
    image: list[int] = []
    for x in word:
        if x in (a, -a):
            image.append(x)
            continue
        if -x in members:
            image.append(-a)
        image.append(x)
        if x in members:
            image.append(a)
    perm = list(range(1, rank + 1))
    rng.shuffle(perm)
    signs = [rng.choice((1, -1)) for _ in perm]
    return [
        perm[abs(x) - 1] * signs[abs(x) - 1] * (1 if x > 0 else -1)
        for x in cyclic_core(free_reduce(image))
    ]


def grow(rng: random.Random, rank: int, start, lo: int, hi: int) -> list[int]:
    """Apply random automorphisms to start until its cyclic length lands
    in lo..hi; restart from start whenever it overshoots."""
    while True:
        word = list(start)
        while len(word) < lo:
            word = random_whitehead(rng, rank, word)
        if len(word) <= hi:
            return word


# (rank, count, shortest, longest) of the seeded long words, half of each
# count primitive.  Rank 4 is kept short and rank 5 left out: the full
# move scan there costs 0.1 to 1.5 s per word of length 100 to 200,
# depending on where in the scan order the first improving move sits, and
# that would make the pass time swing with the seed.
LONG_WORDS = ((4, 4, 60, 100), (6, 12, 60, 200), (7, 12, 60, 200), (8, 12, 60, 200))
PRIMITIVE_START = (1,)
NON_PRIMITIVE_START = (1, 1, 2, 2)  # a^2 b^2: abelianizes to (2, 2), not unimodular


def long_words(seed: int):
    """[(rank, primitive by construction, letters)] for the seed.  Target
    lengths step evenly from shortest to longest within each rank."""
    rng = random.Random(seed)
    out = []
    for rank, count, lo, hi in LONG_WORDS:
        for k in range(count):
            primitive = k % 2 == 0
            start = PRIMITIVE_START if primitive else NON_PRIMITIVE_START
            target = lo + (hi - lo) * (k // 2) // (count // 2)
            out.append((rank, primitive, grow(rng, rank, start, target, hi)))
    return out


class LongWords:
    """All nine rank 3 covering translates w_ij a for a in the rank 3 ball
    up to length 4 (with a cut vertex check of the selected one), then the
    seeded long words through ``freegroups primitive --trace``."""

    name = "long-words"
    SEEDED = ("long_traces",)
    RANK = 3
    MAX_LEN = 4

    def __init__(self, seed: int):
        self.seed = seed
        n = self.RANK
        w = build_w(n)
        pairs = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
        self.translates = []  # per a: ([9 translate letters], selected index)
        for a in ball(n, self.MAX_LEN):
            ts = [free_reduce([i] + w + [j] + list(a)) for i, j in pairs]
            self.translates.append((ts, pairs.index(selected_pair(a, n))))
        self.long = long_words(seed)

    def warm_up(self, api) -> None:
        w = api.Word(build_w(self.RANK))
        api.is_primitive(w, self.RANK)
        api.build_whitehead_graph(w, self.RANK).find_cut_vertex()
        _capture(api.cli_main, ["primitive", "abcd", "--rank", "4", "--trace"])

    def prepare(self, api) -> None:
        self.words = [([api.Word(t) for t in ts], sel) for ts, sel in self.translates]
        self.argv = [
            ["primitive", letter_text(w), "--rank", str(rank), "--trace"]
            for rank, _, w in self.long
        ]

    def run_pass(self, api, item) -> PassResult:
        res = PassResult()
        n = self.RANK
        is_primitive = api.is_primitive
        build_graph = api.build_whitehead_graph
        verdicts = []
        separable = []
        k = 0
        for words, sel in self.words:
            for t in words:
                item(k)
                k += 1
                try:
                    verdicts.append(is_primitive(t, n))
                except Exception:
                    traceback.print_exc()
                    verdicts.append(None)
            item(k)
            k += 1
            try:
                separable.append(build_graph(words[sel], n).find_cut_vertex().separable)
            except Exception:
                traceback.print_exc()
                separable.append(None)
        traces = []
        for argv, (_, primitive, letters) in zip(self.argv, self.long):
            item(k)
            k += 1
            try:
                rc, out = _capture(api.cli_main, argv)
            except Exception:
                traceback.print_exc()
                rc, out = None, ""
            if not trace_consistent(out, rc, primitive, len(letters)):
                res.failed += 1
            traces.append((rc, out))
        res.attempted = k
        res.items = len(verdicts) + len(traces)
        res.verdicts["translate_verdicts"] = _verdict_text(verdicts)
        res.verdicts["selected_separable"] = _verdict_text(separable)
        res.digests["long_traces"] = (_digest(traces), len(traces))
        return res


def trace_consistent(out: str, rc, primitive: bool, length: int) -> bool:
    """Whether ``primitive --trace`` output agrees with the construction:
    the verdict and exit code, strictly falling lengths from the input's
    cyclic length, and a terminal word of the last length (1 exactly for
    primitives)."""
    lines = out.splitlines()
    if len(lines) < 2 or rc != (0 if primitive else 1):
        return False
    if lines[-1] != ("primitive" if primitive else "not primitive"):
        return False
    prefix = "terminal cyclic word: "
    if not lines[-2].startswith(prefix):
        return False
    current = length
    for line in lines[:-2]:
        before, _, rest = line.partition(" -> ")
        after = rest.split(" ", 1)[0]
        if not (before.isdigit() and after.isdigit()):
            return False
        if int(before) != current or not int(after) < current:
            return False
        current = int(after)
    terminal = lines[-2][len(prefix):]
    terminal_len = sum(
        int(part[1:]) if part.startswith("^") else 1
        for part in _letter_runs(terminal)
    )
    return terminal_len == current and (current == 1) == primitive


def _letter_runs(text: str):
    """Split letter form with ^k runs into tokens: a letter, or ^k which
    stands for k-1 further copies of the letter before it."""
    i = 0
    while i < len(text):
        if text[i] == "^":
            j = i + 1
            while j < len(text) and text[j].isdigit():
                j += 1
            yield "^" + str(int(text[i + 1:j]) - 1)
            i = j
        else:
            yield text[i]
            i += 1


# --- fold family ---


def conjugate_family(m: int) -> list[list[int]]:
    """a^k b a^-k for k = 0..m."""
    return [[1] * k + [2] + [-1] * k for k in range(m + 1)]


FAMILY_MS = (10, 20, 30, 40)
SMALL_SETS = 500  # each folded twice: default merge order and seeded order


def small_sets(seed: int):
    """[(rank, generators, member query, free query)] for the seed.  The
    member query is a product of generators, so it lies in the subgroup."""
    rng = random.Random(seed)
    out = []
    for _ in range(SMALL_SETS):
        rank = rng.choice((2, 3))
        gens = [random_reduced(rng, rank, rng.randint(1, 6)) for _ in range(rng.randint(1, 3))]
        member: list[int] = []
        for _ in range(rng.randint(1, 4)):
            g = rng.choice(gens)
            member += g if rng.random() < 0.5 else [-x for x in reversed(g)]
        free = random_reduced(rng, rank, rng.randint(1, 8))
        out.append((rank, gens, free_reduce(member), free))
    return out


class FoldFamily:
    """Stallings folding only: the conjugate family for each m in
    FAMILY_MS, then SMALL_SETS seeded generator sets folded in default
    and in seeded merge order, with membership queries."""

    name = "fold-family"
    SEEDED = ("small_folds",)

    def __init__(self, seed: int):
        self.seed = seed
        self.family = [(m, conjugate_family(m)) for m in FAMILY_MS]
        self.sets = small_sets(seed)
        self.merge_seeds = [seed * SMALL_SETS + k for k in range(SMALL_SETS)]

    def warm_up(self, api) -> None:
        g = api.build_subgroup_graph([api.Word([1, 1]), api.Word([2])], 2)
        g.contains(api.Word([1, 1, 2]))

    def prepare(self, api) -> None:
        Word = api.Word
        self.family_words = [
            (m, [Word(g) for g in gens], Word([1] * m + [2] + [-1] * m), Word([1]))
            for m, gens in self.family
        ]
        self.set_words = [
            (rank, [Word(g) for g in gens], Word(member), Word(free))
            for rank, gens, member, free in self.sets
        ]

    def run_pass(self, api, item) -> PassResult:
        res = PassResult()
        fold = api.build_subgroup_graph
        k = 0
        for m, gens, inside, outside in self.family_words:
            item(k)
            k += 1
            try:
                g = fold(gens, 2)
                ok = (
                    g.num_vertices == m + 1
                    and g.subgroup_rank() == m + 1
                    and g.contains(inside)
                    and not g.contains(outside)
                )
            except Exception:
                traceback.print_exc()
                ok = False
            res.failed += not ok
        graphs = []
        for (rank, gens, member, free), merge_seed in zip(self.set_words, self.merge_seeds):
            item(k)
            k += 2
            try:
                g = fold(gens, rank)
                shuffled = fold(gens, rank, random.Random(merge_seed))
                record = (g.num_vertices, g.edges, g.contains(member), g.contains(free))
                ok = shuffled == g and record[2]
            except Exception:
                traceback.print_exc()
                record, ok = None, False
            res.failed += 2 * (not ok)
            graphs.append(record)
        res.attempted = k
        res.items = k
        res.digests["small_folds"] = (_digest(graphs), 2 * len(graphs))
        return res


WORKLOADS = {w.name: w for w in (Grid, LongWords, FoldFamily)}
