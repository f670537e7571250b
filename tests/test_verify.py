"""Tests for the verification harness: the covering word family, each
claim checker at small parameters, report serialization, and the grid."""

import hashlib
import importlib
import inspect
import json
import pkgutil
import re
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import hypothesis
import networkx as nx
import pytest

import freegroups

from freegroups import primitivity, stallings, verify, words
from freegroups.primitivity import (
    _minimize_letters,
    is_primitive,
    primitive_orbit_oracle,
    whitehead_minimize,
)
from freegroups.stallings import build_subgroup_graph
from freegroups.verify import (
    _CLAIMS,
    _allowed,
    _block_table,
    _not_primitive,
    CLAIM_IDS,
    VerificationReport,
    build_w,
    primitive_density,
    reports_to_json,
    run_claims,
    select_wij,
    verify_claim_one,
    verify_claim_two,
    verify_fact1,
    verify_fincov,
    verify_lemma38,
    verify_nielsen_xcheck,
    verify_npbig,
    verify_prop24,
    verify_section3,
    wij_family,
)
from freegroups.words import (
    Word,
    _cyclic_strip,
    canonical_rotation,
    format_word,
    iter_reduced_words,
    parse_word,
    word_sort_key,
)


# --- seed word and family ---


def test_build_w_frozen():
    assert build_w(2).letters == (1, 1, 2, 2, 1, -2, 1)
    assert build_w(3).letters == (1, 1, 3, 3, 1, -2, 1, 2, -3, 2)
    for n in range(2, 7):
        assert len(build_w(n)) == 3 * n + 1
    with pytest.raises(ValueError):
        build_w(1)


@pytest.mark.parametrize("bad", [True, 2.0, 3.0])
def test_build_w_refuses_a_rank_that_is_no_int(bad):
    # a float rank would reach range(), and True would be refused as a
    # rank below 2
    message = f"^rank must be an int, got {re.escape(repr(bad))}$"
    with pytest.raises(ValueError, match=message):
        build_w(bad)
    with pytest.raises(ValueError, match=message):
        wij_family(bad)


def test_wij_family_shape():
    fam = wij_family(2)
    assert type(fam) is dict
    assert set(fam) == {(1, 1), (1, 2), (2, 1), (2, 2)}
    for (i, j), word in fam.items():
        assert len(word) == 9  # 3n + 3, no cancellation
        assert word.letters[0] == i
        assert word.letters[-1] == j
    fam3 = wij_family(3)
    assert len(fam3) == 9
    assert all(len(w) == 12 for w in fam3.values())


def test_wij_family_is_a_fresh_dict_per_call():
    # the sweeps build their own family, so a caller's changes to a
    # returned dict reach neither another call nor any report
    npbig, fincov = verify_npbig(2, 3).to_json(), verify_fincov(2, 3).to_json()
    fam, other = wij_family(2), wij_family(2)
    assert fam == other and fam is not other
    fam[1, 1] = Word([1])
    del fam[2, 2]
    fam[3, 3] = Word([3])
    assert other == wij_family(2) != fam and len(other) == 4
    assert verify_npbig(2, 3).to_json() == npbig
    assert verify_fincov(2, 3).to_json() == fincov


def test_public_names_frozen():
    # the names exported at the time __all__ was still written out by hand
    assert freegroups.__all__ == [
        "CLAIM_IDS", "CutVertexVerdict", "CyclicWord", "MinimizationTrace",
        "MultiplierAut", "PermutationAut", "SubgroupGraph", "VerificationReport",
        "WhiteheadGraph", "Word", "WordParseError", "apply_aut",
        "are_conjugate", "build_subgroup_graph", "build_w", "build_whitehead_graph",
        "canonical_rotation", "commutator", "count_reduced_words", "cyclically_reduce",
        "enumerate_kind1", "enumerate_kind2", "format_word", "is_basis_pair_f2",
        "is_primitive", "iter_reduced_words", "kind2_count", "letter_key", "letter_name",
        "letter_order", "parse_word", "primitive_density",
        "primitive_orbit_oracle", "run_claims", "select_wij", "verify_claim_one",
        "verify_claim_two", "verify_fact1", "verify_fincov", "verify_lemma38",
        "verify_nielsen_xcheck", "verify_npbig", "verify_prop24", "verify_section3",
        "whitehead_edges", "whitehead_minimize", "wij_family", "word_sort_key",
    ]
    namespace = {}
    exec("from freegroups import *", namespace)
    assert sorted(k for k in namespace if k != "__builtins__") == freegroups.__all__


def test_select_wij_frozen():
    assert select_wij(Word([])) == (1, 1)
    # first letter magnitude blocks j, last blocks i
    assert select_wij(parse_word("ba")) == (2, 1)
    assert select_wij(parse_word("A")) == (2, 2)
    assert select_wij(parse_word("BA")) == (2, 1)  # signs ignored
    assert select_wij(parse_word("ab")) == (1, 2)


def test_select_wij_refuses_input_that_is_no_word():
    for bad in ("ab", (1, 2), None):
        with pytest.raises(TypeError, match=f"^a must be Word, got {type(bad).__name__}$"):
            select_wij(bad)


def select_wij_by_search(a, rank):
    """The least (i, j) with i not the last index of a and j not its first,
    found by trying every pair in order."""
    if not a.letters:
        return (1, 1)
    first = abs(a.letters[0])
    last = abs(a.letters[-1])
    for i in range(1, rank + 1):
        if i == last:
            continue
        for j in range(1, rank + 1):
            if j == first:
                continue
            return (i, j)
    raise ValueError("no valid pair; family rank must be >= 2")


@pytest.mark.parametrize("rank,max_len", [(2, 7), (3, 5), (4, 4), (5, 3)])
def test_select_wij_matches_the_search(rank, max_len):
    for a in iter_reduced_words(rank, max_len):
        assert select_wij(a) == select_wij_by_search(a, rank), a


def test_selected_translate_always_clean():
    fam = wij_family(2)
    from freegroups.words import iter_reduced_words

    for a in iter_reduced_words(2, 4, include_empty=True):
        t = fam[select_wij(a)] * a
        assert len(t) == 9 + len(a)
        assert t.is_cyclically_reduced


# --- claim checkers at small scale ---


def test_npbig_small():
    r = verify_npbig(2, 2)
    assert r.passed
    assert r.counterexamples == []
    assert r.stats["words_checked"] == 17  # 1 + 4 + 12
    assert r.parameters == {"rank": 2, "max_len": 2}


def test_npbig_trivial_ball():
    r = verify_npbig(2, 0)
    assert r.passed
    assert r.stats["words_checked"] == 1


def test_npbig_rank3():
    assert verify_npbig(3, 1).passed


def test_npbig_caps():
    with pytest.raises(ValueError):
        verify_npbig(4, 2)
    with pytest.raises(ValueError):
        verify_npbig(2, 7)


def test_fincov_small():
    r = verify_fincov(2, 2)
    assert r.passed
    hist = r.stats["multiplicity_histogram"]
    assert sum(hist.values()) == r.stats["words_checked"] == 17
    assert "0" not in hist
    assert r.stats["selected_pair_failures"] == 0
    assert all(1 <= int(k) <= 4 for k in hist)


def test_npbig_implies_fincov():
    # the stronger per-word claim forces the cover, same parameters
    strong = verify_npbig(2, 3)
    cover = verify_fincov(2, 3)
    assert strong.passed
    assert cover.passed
    assert cover.stats["selected_pair_failures"] == 0


# --- the fincov non-primitivity ladder ---


# translates the block certificate leaves to the minimizer, per ball
MINIMIZED = {(2, 5): 34, (3, 4): 48}


@pytest.mark.parametrize("rank,max_len", sorted(MINIMIZED))
def test_ladder_matches_minimizer_on_every_translate(rank, max_len, monkeypatch):
    # every pair (i, j), not only the selected one, so translates that
    # cancel at the junction or are not cyclically reduced are covered
    minimize = verify._minimize_letters
    minimized = []

    def counting_minimize(letters, r, verdict=False):
        minimized.append(letters)
        return minimize(letters, r, verdict=verdict)

    monkeypatch.setattr(verify, "_minimize_letters", counting_minimize)
    fam = wij_family(rank)
    translates = not_reduced = 0
    for a in iter_reduced_words(rank, max_len, include_empty=True):
        for wij in fam.values():
            t = wij * a
            table = _block_table(wij.letters, rank)
            # the reference is the descent alone, since is_primitive itself
            # answers by the cut-vertex lemma that rung 1 relies on
            descent = primitivity._minimize_letters(t.letters, rank, verdict=True)[0]
            assert _not_primitive(wij, table, a, rank) == (len(descent) != 1), (wij, a)
            translates += 1
            not_reduced += not t.is_cyclically_reduced
    assert translates == len(fam) * sum(1 for _ in iter_reduced_words(rank, max_len))
    assert not_reduced > 0
    # a weaker block table would send more translates to the minimizer
    assert len(minimized) == MINIMIZED[rank, max_len]


def test_ladder_reads_the_block_after_both_trims():
    # the cyclic reduction of A Baba b ABAb . a runs past a into w_ij and
    # leaves the primitive core b; the block bABAb before that trim is
    # certified, so reading it would wrongly answer "not primitive"
    wij, a = parse_word("ABababABAb"), parse_word("a")
    t = wij * a
    assert t.cyclic_core().letters == (2,)
    assert _block_table(wij.letters, 2)[5] == len(wij)
    assert not _not_primitive(wij, _block_table(wij.letters, 2), a, 2)


def test_ladder_refuses_rank_1():
    # the graph of e1 in rank 1 is connected with no cut vertex, yet e1 is
    # primitive, so the cut-vertex rung would be wrong there
    with pytest.raises(ValueError, match="rank >= 2"):
        _not_primitive(Word([1]), (None,), Word([]), 1)


def test_independent_routes_never_use_the_ladder(monkeypatch):
    def refuse(*args, **kwargs):
        raise RuntimeError("non-primitivity ladder used")

    monkeypatch.setattr(verify, "_not_primitive", refuse)
    monkeypatch.setattr(verify, "_block_table", refuse)
    assert is_primitive(Word([1, 2, 1, 2, 1]), 2)
    assert not is_primitive(Word([1, 1, 2, 2]), 2)
    assert [n for _, n in whitehead_minimize(Word([1, 2, 1, 2, 1]), 2).steps] == [3, 2, 1]
    assert verify_prop24(2, 6).passed
    assert verify_npbig(3, 2).passed
    oracle = primitive_orbit_oracle(2, 6)
    assert Word([1, 2, 1, 2, 1]) in oracle and Word([1, 1]) not in oracle
    # the patch bites: the sweep that does use the ladder fails
    with pytest.raises(RuntimeError, match="ladder used"):
        verify_fincov(2, 1)


def test_fincov_reads_each_block_table_once(monkeypatch):
    # the sweep keeps each covering word's table beside its key, so the
    # cached table is read once per covering word, not once per translate
    reads = []

    def counting_table(letters, rank):
        reads.append(letters)
        return _block_table(letters, rank)

    monkeypatch.setattr(verify, "_block_table", counting_table)
    assert verify_fincov(3, 3).passed
    assert sorted(reads) == sorted(w.letters for w in wij_family(3).values())


def _refuse_ab(selected_only):
    """_not_primitive with a planted fault: no translate of ab is certified,
    or, when selected_only, only the one select_wij picks is not."""
    real, ab = _not_primitive, Word([1, 2])
    selected = wij_family(2)[select_wij(ab)]

    def refusing(wij, table, a, rank):
        if a == ab and (wij == selected or not selected_only):
            return False
        return real(wij, table, a, rank)

    return refusing


@pytest.mark.parametrize(
    "selected_only,status,counterexamples,histogram",
    [
        # a word with an empty cover list is a counterexample, lands on key
        # "0", and fails its selected pair, which no empty list holds
        (False, "fail", ["ab"], {"0": 1, "4": 16}),
        # a word that loses only its selected pair keeps three covers
        (True, "pass", [], {"3": 1, "4": 16}),
    ],
    ids=["no-cover", "selected-pair"],
)
def test_fincov_reports_a_planted_cover_fault(
    monkeypatch, selected_only, status, counterexamples, histogram
):
    assert verify_fincov(2, 2).to_json_dict()["stats"]["multiplicity_histogram"] == {"4": 17}
    monkeypatch.setattr(verify, "_not_primitive", _refuse_ab(selected_only))
    report = verify_fincov(2, 2).to_json_dict()
    assert (report["status"], report["counterexamples"]) == (status, counterexamples)
    assert report["stats"] == {
        "words_checked": 17,
        "multiplicity_histogram": histogram,
        "selected_pair_failures": 1,
        "seconds": 0.0,
    }


@pytest.mark.parametrize("rank", [2, 3, 4, 5])
def test_block_table_matches_networkx(rank, monkeypatch):
    # every block w_ij[p:e] of every covering word, judged by networkx on
    # the simple path graph with all 2n letters as nodes; the low-link
    # search under test is patched out while networkx decides
    from freegroups import whitehead_graph

    def refuse(*args, **kwargs):
        raise RuntimeError("_separation used")

    monkeypatch.setattr(whitehead_graph, "_separation", refuse)
    letters = [x for g in range(1, rank + 1) for x in (g, -g)]
    expected = {}
    for wij in wij_family(rank).values():
        w = wij.letters
        n = len(w)
        certified = {}
        for p in range(n):
            for e in range(p + 1, n + 1):
                g = nx.Graph()
                g.add_nodes_from(letters)
                g.add_edges_from((w[k], -w[k + 1]) for k in range(p, e - 1))
                certified[p, e] = nx.is_biconnected(g)
        # every longer block of a certified block is certified
        for (p, e), ok in certified.items():
            if ok and p > 0:
                assert certified[p - 1, e], (w, p, e)
            if ok and e < n:
                assert certified[p, e + 1], (w, p, e)
        expected[w] = tuple(
            next((e for e in range(p + 1, n + 1) if certified[p, e]), None) for p in range(n)
        )
    monkeypatch.undo()
    for w, ends in expected.items():
        assert _block_table(w, rank) == ends, w
    # the covering words themselves are certified, so the table is not empty
    assert all(ends[0] is not None for ends in expected.values())


def test_block_table_scan_is_monotone(monkeypatch):
    # the least certified end never falls as the start grows, so one cold
    # build makes at most 2 |w_ij| certified-block checks: one success per
    # start and at most |w_ij| failures in all.  A search from p + 2 at
    # every start makes up to 11.2 |w_ij| at these ranks
    calls = 0
    separability = verify._separability

    def counting(m, rank):
        nonlocal calls
        calls += 1
        return separability(m, rank)

    monkeypatch.setattr(verify, "_separability", counting)
    for rank in range(2, 8):
        for wij in wij_family(rank).values():
            _block_table.cache_clear()
            calls = 0
            _block_table(wij.letters, rank)
            assert 0 < calls <= 2 * len(wij), (wij, calls)
    _block_table.cache_clear()


# sha256 of fincov JSON beyond the grid, frozen before the ladder, and
# (3, 5) and (3, 6) before the block table, so that each is checked to
# change no byte of the reports; the criterion 9 hashes of verify all and
# section3 are in test_acceptance.py
FINCOV_JSON_SHA256 = {
    ("3", "4"): "44fa1ee4edbab45f0792ffa6ea40a316f26dbd6d682a62a2ec02e0460e774204",
    ("2", "6"): "4a06a8a5fad2b11c56c7e4c96d43649ebe343835c4eba5d68d39f8208e67a0ca",
    ("3", "5"): "f37a760b8c3117d915acc425428a1ee4e835b0a5f41ec89c59d5e63a6e0348e1",
    ("3", "6"): "130347ecd70fa647570055c73de07456fa5e91d884f953dc6c40198e2e4fd15a",
}


@pytest.mark.parametrize("rank,max_len", sorted(FINCOV_JSON_SHA256))
def test_fincov_json_frozen(rank, max_len, tmp_path):
    target = tmp_path / "fincov.json"
    proc = subprocess.run(
        [sys.executable, "-m", "freegroups", "verify", "fincov", "--rank", rank,
         "--max-len", max_len, "--json", str(target)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    digest = hashlib.sha256(target.read_bytes()).hexdigest()
    assert digest == FINCOV_JSON_SHA256[rank, max_len]


def test_fact1_small():
    r = verify_fact1(rank=2, max_m=2, max_k=3)
    assert r.passed
    assert r.stats["words_checked"] == 6  # 2 + 4 exponent vectors
    full = verify_fact1()
    assert full.passed
    assert full.stats["words_checked"] == 30
    assert full.parameters == {"rank": 4, "max_m": 4, "max_k": 3}


def test_fact1_caps():
    with pytest.raises(ValueError):
        verify_fact1(rank=5)
    with pytest.raises(ValueError):
        verify_fact1(rank=2, max_k=4)
    with pytest.raises(ValueError):
        verify_fact1(rank=2, max_m=3)


def test_prop24_small():
    r = verify_prop24(2, 4)
    assert r.passed
    assert r.stats["words_checked"] == 160  # nonempty ball
    assert r.stats["primitives_found"] > 0
    assert r.stats["distinct_cores"] <= r.stats["primitives_found"]


def test_prop24_caps():
    with pytest.raises(ValueError):
        verify_prop24(2, 9)
    with pytest.raises(ValueError):
        verify_prop24(3, 7)
    with pytest.raises(ValueError):
        verify_prop24(1, 2)


def reference_necklaces(rank, max_len):
    # length -> {least rotation: its distinct rotations}, keys in the order
    # the ball first meets them
    classes = {length: {} for length in range(1, max_len + 1)}
    for w in iter_reduced_words(rank, max_len, include_empty=False):
        core = _cyclic_strip(w.letters)[0]
        if core == w.letters:
            classes[len(core)].setdefault(canonical_rotation(core), set()).add(core)
    return classes


def relabel_normal(core):
    # generators first occur in the order e1, e2, ..., each first as its
    # positive letter
    seen = set()
    for x in core:
        if abs(x) not in seen:
            if x != len(seen) + 1:
                return False
            seen.add(x)
    return True


@pytest.mark.parametrize("rank,max_len", [(1, 8), (2, 8), (3, 7), (4, 4)])
def test_necklaces_match_brute_force(rank, max_len):
    for length, classes in reference_necklaces(rank, max_len).items():
        expected = [
            (key, len(rotations)) for key, rotations in classes.items() if relabel_normal(key)
        ]
        assert list(verify._necklaces(rank, length)) == expected, length


def brute_force_classes(rank, max_len):
    """The symmetry classes of the ball's necklaces, as sets of necklaces:
    the components under the moves that swap e_i and e_i+1, invert e1 or
    invert the whole core, each followed by the least rotation.  These
    moves generate the signed permutations and inversion."""
    necklaces = {key for classes in reference_necklaces(rank, max_len).values() for key in classes}

    def moves(core):
        for i in range(1, rank):
            swap = {i: i + 1, i + 1: i, -i: -i - 1, -i - 1: -i}
            yield tuple(swap.get(x, x) for x in core)
        yield tuple(-x if abs(x) == 1 else x for x in core)
        yield tuple(-x for x in reversed(core))

    classes = []
    while necklaces:
        block = {next(iter(necklaces))}
        todo = list(block)
        while todo:
            for image in map(canonical_rotation, moves(todo.pop())):
                if image not in block:
                    block.add(image)
                    todo.append(image)
        assert block <= necklaces
        necklaces -= block
        classes.append(block)
    return classes


def letter_sort_key(core):
    return word_sort_key(Word(core))


CLASS_BALLS = [(1, 8), (2, 8), (3, 6), (4, 5), (5, 4)]


@pytest.mark.parametrize("rank,max_len", CLASS_BALLS)
def test_core_classes_meet_each_brute_force_class_once(rank, max_len):
    # one yield per class, in the order the ball first meets the classes:
    # its least necklace and how many necklaces it holds
    classes = brute_force_classes(rank, max_len)
    expected = sorted(
        ((min(block, key=letter_sort_key), len(block)) for block in classes),
        key=lambda entry: letter_sort_key(entry[0]),
    )
    got = [(core, necklaces) for core, necklaces, _, _ in verify._core_classes(rank, max_len)]
    assert got == expected


def test_the_walk_at_a_huge_rank_sizes_its_alphabet_by_the_length():
    # a class of cores of length <= 4 uses at most 4 generators, so the
    # walk at rank 10^6 meets the cores it meets at rank 4, and allocates
    # nothing that grows with the rank
    tracemalloc.start()
    try:
        cores = [core for core, _, _, _ in verify._core_classes(10**6, 4)]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert cores == [core for core, _, _, _ in verify._core_classes(4, 4)]


def planted(old, new):
    """_core_classes with one fault planted in its source."""
    source = inspect.getsource(verify._core_classes)
    assert source.count(old) == 1, old
    namespace = dict(vars(verify))
    exec(source.replace(old, new), namespace)
    return namespace["_core_classes"]


@pytest.mark.parametrize(
    "old,new,counted",
    [
        # no inverse doubling
        ("(1 if inverse_key == key else 2)", "1", 4446),
        # off by one in the relabelings
        ("perm(rank, used)", "perm(rank, used - 1)", 3818),
        ("perm(rank, used)", "perm(rank + 1, used)", 15272),
        # the core's period in place of the gap key's
        ("key_period * 2**used", "period * 2**used", 5670),
        # the inverse's key never met, so its class comes again
        ("met.update((key, inverse_key))", "met.add(key)", 5166),
    ],
)
def test_the_count_check_refuses_a_wrong_class_size(old, new, counted):
    # the first class whose inverse has another gap key has length 5
    assert sum(n * sum(w) for _, n, w, _ in verify._core_classes(3, 5)) == 4686
    with pytest.raises(RuntimeError, match=f"hold {counted} words, not 4686"):
        list(planted(old, new)(3, 5))


def test_sweeps_refuse_a_lost_class(monkeypatch):
    necklaces = verify._necklaces

    def dropping(rank, length):
        found = necklaces(rank, length)
        if length == 3:
            next(found)  # e1^3, whose class is the cores of 4 words of length <= 4
        return found

    monkeypatch.setattr(verify, "_necklaces", dropping)
    with pytest.raises(RuntimeError, match="hold 156 words, not 160"):
        verify_prop24(2, 4)
    with pytest.raises(RuntimeError, match="not 160"):
        primitive_density(2, 4)
    with pytest.raises(RuntimeError, match="hold 156 words, not 160"):
        verify_nielsen_xcheck(4)


def test_prop24_lists_every_necklace_of_a_failing_class():
    # e1 is primitive, yet its graph at rank 1 is connected with no cut
    # vertex: the class of e1 fails, and of its two necklaces a and A it
    # is named by its core a; the stats still count both
    assert verify._prop24(1, 4) == (
        ["a"],
        {"words_checked": 8, "primitives_found": 2, "distinct_cores": 2},
    )


def fails_every_core_of_length_5(m, rank):
    # a fake separability test: the edge matrix of a cyclically reduced
    # core has one edge per letter
    return sum(sum(row.values()) for row in m) // 2 != 5, True, []


def test_prop24_names_failing_classes_at_a_huge_rank(monkeypatch):
    # a class of cores of length 5 uses at most 5 generators, so the
    # failing classes at rank 10^6 are those at rank 5, each named by its
    # core, in word_sort_key order, and naming them takes no time that
    # grows with the rank
    monkeypatch.setattr(verify, "_separability", fails_every_core_of_length_5)
    at_rank_5 = verify._prop24(5, 5)[0]
    start = time.perf_counter()
    at_huge_rank = verify._prop24(10**6, 5)[0]
    assert time.perf_counter() - start < 1
    assert at_huge_rank == at_rank_5
    assert len(at_rank_5) == 15
    ordered = [parse_word(text) for text in at_rank_5]
    assert ordered == sorted(ordered, key=word_sort_key)


def test_nielsen_xcheck_small():
    r = verify_nielsen_xcheck(3)
    assert r.passed
    # sum over |a| of N(|a|) * ball(3 - |a|)
    assert r.stats["words_checked"] == 1 * 53 + 4 * 17 + 12 * 5 + 36 * 1
    assert r.stats["basis_pairs"] > 0


def test_nielsen_xcheck_checks_one_pair_per_class(monkeypatch):
    # of the 11,665 pairs at 6, 1,480 have a relabel-normal concatenation
    # a b, one per class under the signed permutations of e1 and e2
    calls = {"_fold_letters": 0, "_basis_pair_letters": 0}
    for name in calls:

        def counted(*args, name=name, real=getattr(verify, name)):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(verify, name, counted)
    report = verify_nielsen_xcheck(6)
    assert report.passed and report.stats["words_checked"] == 11_665
    assert calls == {"_fold_letters": 1_480, "_basis_pair_letters": 1_480}


def test_nielsen_xcheck_refuses_wrong_class_sizes(monkeypatch):
    # the class walk reads perm too, so it is replayed from a clean run
    # and the pair sweep's own count check is what refuses the sizes
    classes = list(verify._core_classes(2, 6))
    monkeypatch.setattr(verify, "_core_classes", lambda rank, max_len: iter(classes))
    monkeypatch.setattr(verify, "perm", lambda n, k: 1)
    # the sizes become 1, 2 and 4 for pairs using 0, 1 and 2 generators
    with pytest.raises(RuntimeError, match="hold 5833 pairs, not 11665"):
        verify_nielsen_xcheck(6)


# --- the letter-level routes of npbig and nielsen-xcheck ---


def test_sweeps_check_ranks_once_not_per_word(monkeypatch):
    # the sweeps build their words from letters they know are valid, so
    # check_rank runs a fixed number of times, whatever the ball's size
    real = words.check_rank
    calls = []

    def counting(letters, rank):
        calls.append(rank)
        return real(letters, rank)

    patched = []
    for info in pkgutil.iter_modules(freegroups.__path__):
        if info.name.startswith("__"):
            continue
        module = importlib.import_module(f"freegroups.{info.name}")
        if getattr(module, "check_rank", None) is real:
            monkeypatch.setattr(module, "check_rank", counting)
            patched.append(info.name)
    assert {"words", "primitivity", "stallings", "whitehead_graph"} <= set(patched)

    def count(run, *args):
        calls.clear()
        result = run(*args)
        assert result.passed if isinstance(result, VerificationReport) else result
        return len(calls)

    # nielsen-xcheck(6) has 11,665 pairs; it made 46,136 calls when each
    # pair went through is_basis_pair_f2 and build_subgroup_graph
    assert count(verify_nielsen_xcheck, 1) == count(verify_nielsen_xcheck, 6) <= 3
    assert count(verify_npbig, 3, 0) == count(verify_npbig, 3, 3) <= 3
    # the class walk checks its rank once, not once per length
    assert count(verify_prop24, 2, 1) == count(verify_prop24, 2, 8) <= 1
    assert count(primitive_density, 3, 1) == count(primitive_density, 3, 8) <= 1


def word_nielsen_xcheck(max_pair_len):
    """nielsen-xcheck on every pair of the ball, reading verify's letter
    routes at call time, so that a fault planted in verify reaches it
    too.  A word's primitivity is the minimizer's verdict on it."""
    ball = [w.letters for w in iter_reduced_words(2, max_pair_len, include_empty=True)]
    primitive = {w: len(verify._minimize_letters(w, 2, verdict=True)[0]) == 1 for w in ball}
    counterexamples = []
    checked = basis_pairs = 0
    for a in ball:
        for b in ball:
            if len(a) + len(b) > max_pair_len:
                break  # ball is sorted by length
            checked += 1
            by_commutator = verify._basis_pair_letters(a, b)
            ok = by_commutator == verify._is_rose(*verify._fold_letters((a, b)), 2)
            if ok and by_commutator:
                basis_pairs += 1
                ok = primitive[a] and primitive[b]
            if not ok:
                counterexamples.append(f"({format_word(Word(a))}, {format_word(Word(b))})")
    stats = {"words_checked": checked, "basis_pairs": basis_pairs}
    return VerificationReport(
        "nielsen-xcheck", {"max_pair_len": max_pair_len}, counterexamples, stats
    )


def _fold_first_only(loops, rng=None):
    return stallings._fold_letters(loops[:1], rng)


@pytest.mark.parametrize(
    "name,fake,claim,params",
    [
        # the commutator route: no pair is a basis
        ("_basis_pair_letters", lambda a, b: False, "nielsen-xcheck", {"max_pair_len": 2}),
        # the rose route: fold a alone, so (a, b) never folds to the rose
        ("_fold_letters", _fold_first_only, "nielsen-xcheck", {"max_pair_len": 2}),
        # the minimizer: every core is a generator, so every word primitive
        (
            "_minimize_letters",
            lambda letters, rank, verdict=False, matrix=None: ((1,), []),
            "npbig",
            {"rank": 2, "max_len": 2},
        ),
        # and no core is, so no basis pair has primitive coordinates
        (
            "_minimize_letters",
            lambda letters, rank, verdict=False, matrix=None: ((1, 1), []),
            "nielsen-xcheck",
            {"max_pair_len": 2},
        ),
        # the cut-vertex route: every graph separable, then none
        ("_separability", lambda m, rank: (True, False, []), "npbig", {"rank": 2, "max_len": 2}),
        ("_separability", lambda m, rank: (False, True, []), "prop24", {"rank": 2, "max_len": 2}),
    ],
)
def test_each_letter_route_is_consulted(monkeypatch, name, fake, claim, params):
    assert _CLAIMS[claim].run(**params).passed
    monkeypatch.setattr(verify, name, fake)
    assert _CLAIMS[claim].run(**params).status == "fail"
    if claim == "nielsen-xcheck":
        # these faults respect the signed permutations of e1 and e2, so the
        # sweep of one pair per class lists the word sweep's failing pairs
        for size in (2, 4):
            report = verify_nielsen_xcheck(size)
            assert report.to_json() == word_nielsen_xcheck(size).to_json()


@pytest.mark.parametrize(
    "claim,generators",
    [("claimI", ["ab^2", "bc^2", "cd^2"]), ("lemma38", ["ab^2", "ab^3c^2", "ab^3c^3d^2"])],
)
def test_stacked_generation_reads_the_fold(monkeypatch, claim, generators):
    # the generation test folds letters as nielsen-xcheck does: when only
    # the first generator is folded, no n generates, and each n reports
    # its own b_n or c_n
    assert _CLAIMS[claim].run(truncation=3).passed
    monkeypatch.setattr(verify, "_fold_letters", _fold_first_only)
    assert _CLAIMS[claim].run(truncation=3).counterexamples == generators


# --- planted faults reach each claim's counterexample branch ---


@pytest.mark.parametrize(
    "claim,params,expected",
    [
        # every power block, in sweep order
        (
            "fact1",
            {"rank": 2, "max_m": 2, "max_k": 3},
            ["a^2", "a^3", "a^2b^2", "a^2b^3", "a^3b^2", "a^3b^3"],
        ),
        ("claimII", {"truncation": 2}, ["b^3c^2", "c^2", "b^3c^3d^2", "d^2"]),
        # each witness e2^3 ... e_n^3 e_{n+1}^2; the generation test holds
        ("lemma38", {"truncation": 3}, ["b^2", "b^3c^2", "b^3c^3d^2"]),
    ],
)
def test_a_primitivity_fault_reaches_the_witness_branch(monkeypatch, claim, params, expected):
    assert _CLAIMS[claim].run(**params).passed
    monkeypatch.setattr(verify, "is_primitive", lambda word, rank: True)
    report = _CLAIMS[claim].run(**params)
    assert (report.status, report.counterexamples) == ("fail", expected)


@pytest.mark.parametrize(
    "name,fake,expected",
    [
        # c_3 read as c_2, so the telescoping check lists b_1 b_2 b_3
        ("_c_word", lambda k, real=verify._c_word: real(2 if k == 3 else k), ["ab^3c^3d^2"]),
        # e1 folded in too: the subgroup holds e1 and has rank N + 1, not N
        (
            "build_subgroup_graph",
            lambda gens, rank, real=build_subgroup_graph: real([*gens, Word([1])], rank),
            ["a", "cd^2"],
        ),
        # b_N left out: the subgroup misses e1 but has rank N - 1
        (
            "build_subgroup_graph",
            lambda gens, rank, real=build_subgroup_graph: real(gens[:-1], rank),
            ["cd^2"],
        ),
    ],
    ids=["telescoping", "e1-folded-in", "rank-short"],
)
def test_claim_one_faults_reach_each_branch(monkeypatch, name, fake, expected):
    monkeypatch.setattr(verify, name, fake)
    report = _CLAIMS["claimI"].run(truncation=3)
    assert (report.status, report.counterexamples) == ("fail", expected)


# --- abelianization: a third route for "no" ---


def exponent_sums(letters, rank):
    """The image of a word in Z^rank: the exponent sum of each generator."""
    sums = [0] * rank
    for x in letters:
        sums[abs(x) - 1] += 1 if x > 0 else -1
    return sums


def test_pairs_off_an_abelian_basis_fail_both_routes():
    # n words generate F_n only when their exponent sums span Z^n, that is
    # when the determinant is +-1; every pair of the nielsen-xcheck ball
    # whose determinant is not must fail the commutator and the rose tests
    ball = [w.letters for w in iter_reduced_words(2, 6, include_empty=True)]
    pairs = non_bases = refuted = 0
    for a in ball:
        for b in ball:
            if len(a) + len(b) > 6:
                break  # ball is sorted by length
            pairs += 1
            by_commutator = primitivity._basis_pair_letters(a, b)
            non_bases += not by_commutator
            (p, q), (r, s) = exponent_sums(a, 2), exponent_sums(b, 2)
            if abs(p * s - q * r) != 1:
                refuted += 1
                assert not by_commutator, (a, b)
                assert not stallings._is_rose(*stallings._fold_letters((a, b)), 2), (a, b)
    assert (pairs, non_bases, refuted) == (11_665, 10_761, 9_897)


def test_claim_one_misses_e1_by_exponent_sums():
    # b_i = e_i e_{i+1}^2 is the last b with a nonzero sum at e_i, and that
    # sum is 1, so coordinates 1 .. N fix the only coefficients c_i that
    # could give e1, one at a time: c_1 = 1 and c_i = -2 c_{i-1}.
    # Coordinate N + 1 then reads 2 c_N, not 0, so e1 is not in the span
    # of b_1 .. b_N, as the fold finds
    for n in range(1, 11):
        b = [(i, i + 1, i + 1) for i in range(1, n + 1)]
        sums = [exponent_sums(letters, n + 1) for letters in b]
        e1 = exponent_sums((1,), n + 1)
        c = []
        for i in range(n):
            assert sums[i][i] == 1 and all(v[i] == 0 for v in sums[i + 1 :])
            c.append(e1[i] - sum(cj * v[i] for cj, v in zip(c, sums)))
        assert c[-1] == (-2) ** (n - 1)
        assert sum(cj * v[n] for cj, v in zip(c, sums)) == 2 * c[-1] != e1[n]
        graph = build_subgroup_graph([Word(letters) for letters in b], n + 1)
        assert not graph.contains(Word([1]))


# --- Nielsen reduction: an independent route for "yes" ---


def length_reducing_move(gens):
    """(i, u) for the first Nielsen move u_i -> u_i u_j^+-1 or
    u_j^+-1 u_i that makes u_i shorter, with u the new u_i, or None."""
    for i, u in enumerate(gens):
        for j, v in enumerate(gens):
            if i == j:
                continue
            for w in (v, tuple(-x for x in reversed(v))):
                for product in (u + w, w + u):
                    reduced = Word(product).letters
                    if len(reduced) < len(u):
                        return i, reduced
    return None


def nielsen_reduces_to_letters(gens, rank):
    """Whether greedy Nielsen reduction carries the letter tuples gens to
    rank distinct letters, which proves them a basis of F_rank (Nielsen
    1921; Lyndon and Schupp, Ch. I.2).  Only moves that shorten a
    generator are made, so the reduction can get stuck on a basis that
    needs a move of equal length first; the checks below count that as a
    failure."""
    gens = list(gens)
    while (move := length_reducing_move(gens)) is not None:
        i, gens[i] = move
    letters = [u[0] for u in gens if len(u) == 1]
    return len(letters) == len(gens) and sorted(map(abs, letters)) == list(range(1, rank + 1))


def fold_says_basis(gens, rank):
    return stallings._is_rose(*stallings._fold_letters(gens), rank)


def stacked_generation_failures(truncation):
    """(claim, n) for each generating set of claimI, (b_1, ..., b_n,
    e_{n+1}), and of lemma38, (c_1, ..., c_n, e_{n+1}), that Nielsen
    reduction does not carry to n + 1 distinct letters, or that the fold
    does not call a basis."""
    failures = []
    for n in range(1, truncation + 1):
        families = {
            "claimI": [(i, i + 1, i + 1) for i in range(1, n + 1)],
            "lemma38": [verify._c_word(k).letters for k in range(1, n + 1)],
        }
        for claim, gens in families.items():
            gens = gens + [(n + 1,)]
            if not (nielsen_reduces_to_letters(gens, n + 1) and fold_says_basis(gens, n + 1)):
                failures.append((claim, n))
    return failures


def pair_ball_disagreements(max_pair_len):
    """(pairs that the fold and Nielsen reduction judge differently, the
    pairs the fold calls a basis) over the nielsen-xcheck ball.  A pair
    that reduces to two letters is a basis, and a basis the reduction gets
    stuck on disagrees with the fold too."""
    ball = [w.letters for w in iter_reduced_words(2, max_pair_len, include_empty=True)]
    disagreements = []
    bases = 0
    for a in ball:
        for b in ball:
            if len(a) + len(b) > max_pair_len:
                break  # ball is sorted by length
            by_fold = fold_says_basis((a, b), 2)
            bases += by_fold
            if by_fold != nielsen_reduces_to_letters((a, b), 2):
                disagreements.append((a, b))
    return disagreements, bases


def test_nielsen_reduction_confirms_the_stacked_families():
    assert stacked_generation_failures(10) == []


def test_nielsen_reduction_agrees_with_the_fold_on_the_pair_ball():
    # 11,665 pairs, of which 10,761 are no basis by the commutator test
    assert pair_ball_disagreements(6) == ([], 11_665 - 10_761)


def skipping_one_merge():
    """_fold_letters with one fault planted in its source: each fold skips
    the first merge it pops."""
    source = inspect.getsource(stallings._fold_letters)
    for old, new in (
        ("    pending: list = []\n", "    pending: list = []\n    skipped = []\n"),
        (
            "            a, b = pending.pop()\n",
            "            a, b = pending.pop()\n"
            "            if not skipped:\n"
            "                skipped.append((a, b))\n"
            "                continue\n",
        ),
    ):
        assert source.count(old) == 1, old
        source = source.replace(old, new)
    namespace = dict(vars(stallings))
    exec(source, namespace)
    return namespace["_fold_letters"]


def test_a_skipped_merge_fails_the_nielsen_checks(monkeypatch):
    monkeypatch.setattr(stallings, "_fold_letters", skipping_one_merge())
    assert stacked_generation_failures(10)
    assert pair_ball_disagreements(6)[0]


# --- the two stacked families span one subgroup ---


def test_the_stacked_families_fold_to_one_graph():
    # c_k = c_{k-1} b_k with b_k = e_k e_{k+1}^2, so <c_1, ..., c_n> and
    # <b_1, ..., b_n> are one subgroup, and so are the two with e_{n+1};
    # folding either family must give one graph
    for n in range(1, 41):
        b = [Word((i, i + 1, i + 1)) for i in range(1, n + 1)]
        c = [verify._c_word(k) for k in range(1, n + 1)]
        for extra in ([], [Word([n + 1])]):
            graphs = [build_subgroup_graph(gens + extra, n + 1) for gens in (b, c)]
            assert graphs[0] == graphs[1], (n, extra)


def test_npbig_hands_the_minimizer_the_matrix_it_tested(monkeypatch):
    # the two verdicts share the first Whitehead matrix and nothing else
    tested, handed = [], []
    separability, minimize = verify._separability, verify._minimize_letters

    def spy_separability(m, rank):
        tested.append(m)
        return separability(m, rank)

    def spy_minimize(letters, rank, verdict=False, matrix=None):
        handed.append(matrix)
        return minimize(letters, rank, verdict, matrix)

    monkeypatch.setattr(verify, "_separability", spy_separability)
    monkeypatch.setattr(verify, "_minimize_letters", spy_minimize)
    assert verify_npbig(2, 3).passed
    assert len(handed) == len(tested) == 1 + 4 + 12 + 36
    assert all(m is n for m, n in zip(tested, handed))


def test_first_matrix_handoff_changes_nothing():
    # _minimize_letters given the first step's matrix returns the same core
    # and steps as without it, in the verdict mode and in the trace mode
    st = hypothesis.strategies

    def signed(rank):
        return st.integers(1, rank).flatmap(lambda i: st.sampled_from([i, -i]))

    cases = st.integers(2, 6).flatmap(
        lambda rank: st.tuples(st.just(rank), st.lists(signed(rank), max_size=16))
    )

    @hypothesis.given(cases)
    def handoff_is_invisible(case):
        rank, letters = case
        letters = Word(letters).letters
        core = _cyclic_strip(letters)[0]
        for verdict in (True, False):
            m = verify._cyclic_matrix(core)
            before = [dict(row) for row in m]
            got = _minimize_letters(letters, rank, verdict, m)
            assert got == _minimize_letters(letters, rank, verdict)
            assert m == before  # only read

    handoff_is_invisible()


def test_claim_one_small():
    r = verify_claim_one(3)
    assert r.passed
    assert r.stats["subgroup_rank"] == 3
    assert r.parameters == {"truncation": 3}


def test_claim_two_small():
    r = verify_claim_two(3)
    assert r.passed
    assert r.stats["words_checked"] == 6


def test_lemma38_small():
    r = verify_lemma38(3)
    assert r.passed
    assert r.stats["words_checked"] == 6


def test_stacked_family_words():
    # c_k = e1 e2^3 ... e_k^3 e_{k+1}^2 and the witness tail e2^3 ... e_{n+1}^3 e_{n+2}^2
    assert [verify._c_word(k) for k in (1, 2, 3)] == [
        parse_word(t) for t in ("ab^2", "ab^3c^2", "ab^3c^3d^2")
    ]
    assert [verify._power_tail(n) for n in (0, 1, 2)] == [
        parse_word(t) for t in ("b^2", "b^3c^2", "b^3c^3d^2")
    ]


def test_stacked_family_prefixes():
    # lemma38 reads c_1, ..., c_n as the prefixes of c_n of 3, 6, ..., 3n letters
    for n in range(1, 12):
        c = verify._c_word(n).letters
        assert [c[: 3 * k] for k in range(1, n + 1)] == [
            verify._c_word(k).letters for k in range(1, n + 1)
        ]

def test_section3_composite():
    r = verify_section3(2)
    assert r.passed
    assert r.claim_id == "section3"
    assert r.stats["subclaims"] == {
        "claimI": "pass",
        "claimII": "pass",
        "lemma38": "pass",
    }


def test_truncation_caps():
    for bad in (1, 11):
        with pytest.raises(ValueError):
            verify_claim_one(bad)
        with pytest.raises(ValueError):
            verify_claim_two(bad)
        with pytest.raises(ValueError):
            verify_lemma38(bad)


@pytest.mark.parametrize("bad", [True, False, 3.0, "3"])
def test_caps_refuse_a_value_that_is_no_int(bad):
    # True == 1 and 3.0 == 3 sit inside the ranges; they must not pass
    cases = [
        (lambda: verify_npbig(2, bad), "max_len"),
        (lambda: verify_npbig(bad, 2), "rank"),
        (lambda: verify_prop24(2, bad), "max_len"),
        (lambda: verify_fincov(2, bad), "max_len"),
        (lambda: verify_fact1(4, bad, 3), "max_m"),
        (lambda: verify_fact1(4, 2, bad), "max_k"),
        (lambda: verify_nielsen_xcheck(bad), "max_pair_len"),
        (lambda: verify_claim_one(bad), "truncation"),
        (lambda: verify_section3(bad), "truncation"),
        (lambda: primitive_density(2, bad), "max_len"),
        (lambda: primitive_density(bad, 3), "rank"),
    ]
    for call, name in cases:
        with pytest.raises(ValueError, match=f"^{name} must be an int, got {re.escape(repr(bad))}$"):
            call()


@pytest.mark.parametrize("bad", [True, 3.0, 10.5])
def test_overrides_refuse_a_value_that_is_no_int(bad):
    # run_claims clamps an override into the caps, so min(True, 6) would
    # run the claim at max_len True, and min(10.5, 6) at 6
    with pytest.raises(ValueError, match="^max_len must be an int"):
        run_claims("npbig", max_len=bad)
    with pytest.raises(ValueError, match="^max_pair_len must be an int"):
        run_claims("nielsen-xcheck", max_len=bad)
    with pytest.raises(ValueError, match="^truncation must be an int"):
        run_claims("section3", truncation=bad)
    # an int still clamps
    assert run_claims("npbig", rank=2, max_len=-3)[0].parameters == {"rank": 2, "max_len": 0}


def test_density_frozen_rows():
    rows = primitive_density(2, 3)
    assert rows[0] == (1, 4, 4, 1.0)
    assert rows[1][:3] == (2, 8, 12)
    lengths = [row[0] for row in rows]
    assert lengths == [1, 2, 3]
    with pytest.raises(ValueError):
        primitive_density(4, 3)
    with pytest.raises(ValueError):
        primitive_density(2, 9)


@pytest.mark.parametrize(
    "rank,max_len,message",
    [
        (0, 3, "rank must be in 1..3, got 0"),
        (4, 3, "rank must be in 1..3, got 4"),
        (4, 9, "rank must be in 1..3, got 4"),
        (2, 0, "max_len must be in 1..8, got 0"),
        (2, 9, "max_len must be in 1..8, got 9"),
    ],
)
def test_density_cap_messages(rank, max_len, message):
    with pytest.raises(ValueError) as info:
        primitive_density(rank, max_len)
    assert str(info.value) == message


# --- reports ---


def test_report_pass_iff_no_counterexamples():
    r = verify_npbig(2, 1)
    assert r.passed and r.counterexamples == []
    fabricated = VerificationReport(
        claim_id="npbig",
        parameters={},
        counterexamples=["aa"],
        stats={"words_checked": 1, "seconds": 0.5},
    )
    assert not fabricated.passed and fabricated.status == "fail"


def test_report_status_is_read_from_its_counterexamples():
    failing = VerificationReport("npbig", {}, ["aa"], {})
    assert failing.status == "fail" and not failing.passed
    assert failing.to_json_dict()["status"] == "fail"
    passing = VerificationReport("npbig", {}, [], {})
    assert passing.status == "pass" and passing.passed
    assert passing.to_json_dict()["status"] == "pass"


def test_report_takes_no_status():
    # the five-argument form could store a status its counterexamples deny
    with pytest.raises(TypeError):
        VerificationReport("npbig", {}, "pass", ["aa"], {})
    with pytest.raises(TypeError):
        VerificationReport("npbig", {}, status="pass", counterexamples=["aa"], stats={})
    with pytest.raises(AttributeError):
        VerificationReport("npbig", {}, ["aa"], {}).status = "pass"

def test_report_json_normalizes_seconds():
    r = verify_npbig(2, 1)
    assert r.stats["seconds"] >= 0.0
    d = r.to_json_dict()
    assert d["stats"]["seconds"] == 0.0
    assert d["stats"]["words_checked"] == 5
    assert r.to_json().endswith("\n")


def test_report_roundtrip():
    r = verify_fincov(2, 1)
    d = r.to_json_dict()
    assert d["claim_id"] == "fincov"
    parsed = json.loads(r.to_json())
    assert parsed == d


def test_report_json_deterministic():
    a = verify_npbig(2, 2).to_json()
    b = verify_npbig(2, 2).to_json()
    assert a == b


# --- grid ---


def test_run_claims_all_small():
    reports = run_claims(max_len=1, truncation=2)
    assert [r.claim_id for r in reports] == [
        "fact1",
        "prop24",
        "prop24",
        "npbig",
        "npbig",
        "fincov",
        "fincov",
        "nielsen-xcheck",
        "claimI",
        "claimII",
        "lemma38",
    ]
    assert all(r.passed for r in reports)
    # overrides landed
    assert reports[1].parameters["max_len"] == 1
    assert reports[8].parameters["truncation"] == 2


@pytest.mark.parametrize("bad", ["2", True, 2.0])
def test_run_claims_refuses_a_rank_that_is_no_int(bad):
    # the rank filters the grid entries, so a rank that is no int must not
    # silently select some of them
    with pytest.raises(ValueError, match=f"^rank must be an int, got {re.escape(repr(bad))}$"):
        run_claims(rank=bad)


def test_run_claims_rank_filter():
    # entries pinned to another rank drop out; rank-free entries stay
    reports = run_claims(rank=2, max_len=1, truncation=2)
    ids = [r.claim_id for r in reports]
    assert ids == [
        "prop24",
        "npbig",
        "fincov",
        "nielsen-xcheck",
        "claimI",
        "claimII",
        "lemma38",
    ]
    for r in reports:
        if "rank" in r.parameters:
            assert r.parameters["rank"] == 2
    with_fact1 = run_claims(rank=4, max_len=1, truncation=2)
    assert [r.claim_id for r in with_fact1] == [
        "fact1",
        "nielsen-xcheck",
        "claimI",
        "claimII",
        "lemma38",
    ]


def test_run_claims_single_and_section3():
    only = run_claims("npbig", max_len=1)
    assert [r.claim_id for r in only] == ["npbig", "npbig"]
    composite = run_claims("section3", truncation=2)
    assert len(composite) == 1
    assert composite[0].claim_id == "section3"
    with pytest.raises(ValueError):
        run_claims("nonsense")


def test_run_claims_clamps_overrides():
    reports = run_claims("npbig", max_len=99)
    assert all(r.parameters["max_len"] == 6 for r in reports)
    composite = run_claims("section3", truncation=99)
    assert composite[0].parameters["truncation"] == 10


def test_reports_to_json_stable():
    reports = run_claims("claimII", truncation=2)
    text = reports_to_json(reports)
    assert text == reports_to_json(run_claims("claimII", truncation=2))
    data = json.loads(text)
    assert isinstance(data, list) and data[0]["claim_id"] == "claimII"


def test_claim_id_registry():
    assert set(CLAIM_IDS) == {
        "fact1",
        "prop24",
        "npbig",
        "fincov",
        "nielsen-xcheck",
        "claimI",
        "claimII",
        "lemma38",
    }


def _cap_values(spec: str, rank):
    # "2 or 3" is a tuple of values, "0..8" and "1..rank" inclusive ranges
    if " or " in spec:
        return tuple(int(x) for x in spec.split(" or "))
    low, high = spec.split("..")
    return range(int(low), (rank if high == "rank" else int(high)) + 1)


def test_readme_claim_table_matches_claims():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    rows = {
        m[1]: (m[2], m[3])
        for line in readme.read_text().splitlines()
        if (m := re.fullmatch(r"\| `([\w-]+)` \| [^|]+ \| ([^|]+) \| ([^|]+) \|", line))
    }
    assert list(rows) == list(CLAIM_IDS)
    for claim_id, (grid_text, caps_text) in rows.items():
        claim = _CLAIMS[claim_id]
        grid = [
            {name: int(value) for name, value in (pair.split(" ") for pair in entry.split(", "))}
            for entry in re.sub(r" \(.*\)$", "", grid_text).split("; ")
        ]
        assert grid == list(claim.grid), claim_id
        caps = dict(item.split(" ", 1) for item in caps_text.split("; "))
        assert list(caps) == list(claim.caps), claim_id
        for rank in claim.caps.get("rank", [None]):
            suffix = f" at rank {rank}"
            for name, text in caps.items():
                specs = text.split(", ")
                if len(specs) > 1:
                    specs = [s.removesuffix(suffix) for s in specs if s.endswith(suffix)]
                assert len(specs) == 1, (claim_id, name, rank)
                allowed = _allowed(claim.caps[name], {"rank": rank})
                parsed = _cap_values(specs[0], rank)
                assert (type(parsed), parsed) == (type(allowed), allowed), (claim_id, name, rank)
