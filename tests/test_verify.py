"""Tests for the verification harness: the covering word family, each
claim checker at small parameters, report serialization, and the grid."""

import hashlib
import importlib
import json
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import freegroups

from freegroups import primitivity, stallings, verify, words
from freegroups.primitivity import (
    _minimize_letters,
    is_primitive,
    primitive_orbit_oracle,
    whitehead_minimize,
)
from freegroups.verify import (
    _CLAIMS,
    _block_table,
    _not_primitive,
    CLAIM_IDS,
    VerificationReport,
    WijFamily,
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
    iter_reduced_words,
    parse_word,
)


# --- seed word and family ---


def test_build_w_frozen():
    assert build_w(2).letters == (1, 1, 2, 2, 1, -2, 1)
    assert build_w(3).letters == (1, 1, 3, 3, 1, -2, 1, 2, -3, 2)
    for n in range(2, 7):
        assert len(build_w(n)) == 3 * n + 1
    with pytest.raises(ValueError):
        build_w(1)


def test_wij_family_shape():
    fam = wij_family(2)
    assert set(fam.table) == {(1, 1), (1, 2), (2, 1), (2, 2)}
    for (i, j), word in fam.table.items():
        assert len(word) == 9  # 3n + 3, no cancellation
        assert word.letters[0] == i
        assert word.letters[-1] == j
    fam3 = wij_family(3)
    assert len(fam3.table) == 9
    assert all(len(w) == 12 for w in fam3.table.values())
    with pytest.raises(ValueError):
        WijFamily(rank=3, w=Word([1]), table={})


def test_public_names_frozen():
    # the names exported at the time __all__ was still written out by hand
    assert freegroups.__all__ == [
        "CLAIM_IDS", "CutVertexVerdict", "CyclicWord", "MinimizationTrace",
        "MultiplierAut", "PermutationAut", "SubgroupGraph", "VerificationReport",
        "WhiteheadGraph", "WijFamily", "Word", "WordParseError", "apply_aut",
        "are_conjugate", "build_subgroup_graph", "build_w", "build_whitehead_graph",
        "canonical_rotation", "commutator", "count_reduced_words", "cyclically_reduce",
        "enumerate_kind1", "enumerate_kind2", "format_word", "is_basis_pair_f2",
        "is_primitive", "iter_reduced_words", "kind2_count", "letter_key", "letter_name",
        "letter_order", "make_report", "parse_word", "primitive_density",
        "primitive_orbit_oracle", "run_claims", "select_wij", "verify_claim_one",
        "verify_claim_two", "verify_fact1", "verify_fincov", "verify_lemma38",
        "verify_nielsen_xcheck", "verify_npbig", "verify_prop24", "verify_section3",
        "whitehead_edges", "whitehead_minimize", "wij_family", "word_sort_key",
    ]
    namespace = {}
    exec("from freegroups import *", namespace)
    assert sorted(k for k in namespace if k != "__builtins__") == freegroups.__all__


def test_select_wij_frozen():
    fam2 = wij_family(2)
    fam3 = wij_family(3)
    assert select_wij(Word([]), fam2) == (1, 1)
    # first letter magnitude blocks j, last blocks i
    assert select_wij(parse_word("ba"), fam2) == (2, 1)
    assert select_wij(parse_word("A"), fam3) == (2, 2)
    assert select_wij(parse_word("BA"), fam2) == (2, 1)  # signs ignored
    assert select_wij(parse_word("ab"), fam2) == (1, 2)


def test_select_wij_refuses_a_rank_1_family():
    # wij_family(1) refuses, so build the family by hand
    fam = WijFamily(1, Word([1]), {(1, 1): Word([1])})
    assert select_wij(Word(), fam) == (1, 1)
    with pytest.raises(ValueError, match="family rank must be >= 2"):
        select_wij(Word([1]), fam)


def test_selected_translate_always_clean():
    fam = wij_family(2)
    from freegroups.words import iter_reduced_words

    for a in iter_reduced_words(2, 4, include_empty=True):
        i, j = select_wij(a, fam)
        t = fam.table[i, j] * a
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
        for wij in fam.table.values():
            t = wij * a
            table = _block_table(wij.letters, rank)
            # the reference is the descent alone, since is_primitive itself
            # answers by the cut-vertex lemma that rung 1 relies on
            descent = primitivity._minimize_letters(t.letters, rank, verdict=True)[0]
            assert _not_primitive(wij, table, a, rank) == (len(descent) != 1), (wij, a)
            translates += 1
            not_reduced += not t.is_cyclically_reduced
    assert translates == len(fam.table) * sum(1 for _ in iter_reduced_words(rank, max_len))
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
    assert sorted(reads) == sorted(w.letters for w in wij_family(3).table.values())


@pytest.mark.parametrize("rank", [2, 3, 4, 5])
def test_block_table_matches_networkx(rank, monkeypatch):
    # every block w_ij[p:e] of every covering word, judged by networkx on
    # the simple path graph with all 2n letters as nodes; the low-link
    # search under test is patched out while networkx decides
    nx = pytest.importorskip("networkx")
    from freegroups import whitehead_graph

    def refuse(*args, **kwargs):
        raise RuntimeError("_separation used")

    monkeypatch.setattr(whitehead_graph, "_separation", refuse)
    letters = [x for g in range(1, rank + 1) for x in (g, -g)]
    expected = {}
    for wij in wij_family(rank).table.values():
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


@pytest.mark.parametrize("rank,max_len", [(1, 8), (2, 8), (3, 7), (4, 4)])
def test_necklaces_match_brute_force(rank, max_len):
    for length, classes in reference_necklaces(rank, max_len).items():
        expected = [(key, len(rotations)) for key, rotations in classes.items()]
        assert list(verify._necklaces(rank, length)) == expected, length


def test_sweeps_refuse_a_lost_class(monkeypatch):
    necklaces = verify._necklaces

    def dropping(rank, length):
        found = necklaces(rank, length)
        if length == 3:
            next(found)  # e1^3, the core of one word of length <= 4
        return found

    monkeypatch.setattr(verify, "_necklaces", dropping)
    with pytest.raises(RuntimeError, match="hold 159 words, not 160"):
        verify_prop24(2, 4)
    with pytest.raises(RuntimeError, match="not 160"):
        primitive_density(2, 4)


def test_nielsen_xcheck_small():
    r = verify_nielsen_xcheck(3)
    assert r.passed
    # sum over |a| of N(|a|) * ball(3 - |a|)
    assert r.stats["words_checked"] == 1 * 53 + 4 * 17 + 12 * 5 + 36 * 1
    assert r.stats["basis_pairs"] > 0


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
        assert run(*args).passed
        return len(calls)

    # nielsen-xcheck(6) has 11,665 pairs; it made 46,136 calls when each
    # pair went through is_basis_pair_f2 and build_subgroup_graph
    assert count(verify_nielsen_xcheck, 1) == count(verify_nielsen_xcheck, 6) <= 3
    assert count(verify_npbig, 3, 0) == count(verify_npbig, 3, 3) <= 3


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
    hypothesis = pytest.importorskip("hypothesis")
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
        status="fail",
        counterexamples=["aa"],
        stats={"words_checked": 1, "seconds": 0.5},
    )
    assert not fabricated.passed


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
                allowed = claim.allowed(name, {"rank": rank})
                parsed = _cap_values(specs[0], rank)
                assert (type(parsed), parsed) == (type(allowed), allowed), (claim_id, name, rank)
