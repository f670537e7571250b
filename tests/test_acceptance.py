"""Acceptance suite: one test per criterion, each printing a PASS line.

The two exhaustive primitivity sweeps (rank 2 up to length 8, rank 3 up to
length 6) feed three criteria, so they are computed once at module scope
and shared.
"""

import hashlib
import json
import random
import subprocess
import sys
import time

from freegroups.automorphisms import (
    apply_aut,
    enumerate_kind1,
    enumerate_kind2,
)
from freegroups.primitivity import is_primitive, primitive_orbit_oracle
from freegroups.stallings import build_subgroup_graph
from freegroups.verify import (
    verify_fact1,
    verify_fincov,
    verify_nielsen_xcheck,
    verify_npbig,
    verify_section3,
)
from freegroups.whitehead_graph import build_whitehead_graph, whitehead_edges
from freegroups.words import Word, cyclically_reduce, iter_reduced_words

_SWEEPS: dict = {}


def _sweep(rank, max_len):
    """(oracle set, {word: minimizer verdict}, elapsed seconds) for a ball."""
    key = (rank, max_len)
    if key not in _SWEEPS:
        t0 = time.perf_counter()
        oracle = primitive_orbit_oracle(rank, max_len)
        verdicts = {
            w: is_primitive(w, rank)
            for w in iter_reduced_words(rank, max_len, include_empty=False)
        }
        _SWEEPS[key] = (oracle, verdicts, time.perf_counter() - t0)
    return _SWEEPS[key]


def random_reduced(rng, rank, length):
    pool = [i for i in range(1, rank + 1)] + [-i for i in range(1, rank + 1)]
    letters = []
    while len(letters) < length:
        x = rng.choice(pool)
        if letters and x == -letters[-1]:
            continue
        letters.append(x)
    return Word(letters)


def test_criterion_1_oracle_equivalence():
    total_seconds = 0.0
    for rank, max_len, expected_count in ((2, 8, 13120), (3, 6, 23436)):
        oracle, verdicts, seconds = _sweep(rank, max_len)
        total_seconds += seconds
        assert len(verdicts) == expected_count
        mismatches = [w for w, v in verdicts.items() if v != (w in oracle)]
        assert mismatches == [], mismatches[:5]
    assert total_seconds <= 600.0
    print(
        "criterion 1: PASS  minimizer agrees with the orbit oracle on all "
        f"36556 words ({total_seconds:.1f}s)"
    )


def test_criterion_2_primitive_graphs_separable():
    bad_cores = []
    cores_seen = set()
    for rank, max_len in ((2, 8), (3, 6)):
        _, verdicts, _ = _sweep(rank, max_len)
        for w, primitive in verdicts.items():
            if not primitive:
                continue
            core, _ = cyclically_reduce(w)
            if (rank, core) in cores_seen:
                continue
            cores_seen.add((rank, core))
            verdict = build_whitehead_graph(core.word, rank).find_cut_vertex()
            if not verdict.separable:
                bad_cores.append((rank, core.word))
    assert bad_cores == [], bad_cores[:5]
    print(
        "criterion 2: PASS  every primitive core in both sweeps has a "
        f"separable Whitehead graph ({len(cores_seen)} cores)"
    )


def test_criterion_3_power_blocks():
    total = 0
    for rank in (1, 2, 3, 4):
        report = verify_fact1(rank=rank)
        assert report.passed, report.counterexamples
        total += report.stats["words_checked"]
    assert total == 2 + 6 + 14 + 30
    print(
        "criterion 3: PASS  all positive power blocks non-primitive with "
        f"zero-step traces ({total} words)"
    )


def test_criterion_4_npbig_grid():
    for rank, max_len in ((2, 5), (3, 3)):
        report = verify_npbig(rank, max_len)
        assert report.passed, report.counterexamples
    print(
        "criterion 4: PASS  selected translates cyclically reduced, "
        "non-separable, non-primitive on both grids"
    )


def test_criterion_5_fincov_grid():
    for rank, max_len in ((2, 5), (3, 3)):
        report = verify_fincov(rank, max_len)
        assert report.passed, report.counterexamples
        hist = report.stats["multiplicity_histogram"]
        assert "0" not in hist
        assert sum(hist.values()) == report.stats["words_checked"]
        assert report.stats["selected_pair_failures"] == 0
    print(
        "criterion 5: PASS  every word, the empty one included, has a "
        "non-primitive translate on both grids"
    )


def test_criterion_6_nielsen_crosscheck():
    report = verify_nielsen_xcheck(6)
    assert report.passed, report.counterexamples
    print(
        "criterion 6: PASS  commutator test, rose folding, and primitivity "
        f"agree on {report.stats['words_checked']} rank 2 pairs"
    )


def test_criterion_7_stacked_families():
    report = verify_section3(10)
    assert report.passed, report.counterexamples
    assert report.stats["subclaims"] == {
        "claimI": "pass",
        "claimII": "pass",
        "lemma38": "pass",
    }
    print(
        "criterion 7: PASS  product identities, roses, exclusion of e1, "
        "subgroup rank 10, and non-primitive witnesses at truncation 10"
    )


def test_criterion_8_structural_invariants():
    rng = random.Random(80)
    # edge count of the Whitehead graph equals word length
    for _ in range(10_000):
        rank = rng.choice([2, 3, 4])
        w = random_reduced(rng, rank, rng.randrange(0, 12))
        assert len(whitehead_edges(w.letters)) == len(w)
    # automorphisms respect products and invert cleanly
    for _ in range(500):
        rank = rng.choice([2, 3])
        auts = enumerate_kind1(rank) + enumerate_kind2(rank)
        aut = auts[rng.randrange(len(auts))]
        u = random_reduced(rng, rank, rng.randrange(0, 8))
        v = random_reduced(rng, rank, rng.randrange(0, 8))
        assert apply_aut(aut, u * v) == apply_aut(aut, u) * apply_aut(aut, v)
        assert apply_aut(aut.inverse(), apply_aut(aut, u)) == u
    # folding confluence: generator order and inversion, then the merge order
    for trial in range(1_000):
        rank = rng.choice([2, 3])
        gens = [
            random_reduced(rng, rank, rng.randrange(1, 6))
            for _ in range(rng.randrange(1, 4))
        ]
        reference = build_subgroup_graph(gens, rank)
        moved = [~g if rng.random() < 0.5 else g for g in gens]
        rng.shuffle(moved)
        shuffled = build_subgroup_graph(moved, rank, rng=random.Random(trial))
        assert shuffled == reference, (gens, moved)
    print(
        "criterion 8: PASS  edge counts (10^4), automorphism laws (500), "
        "folding confluence (10^3)"
    )


# sha256 of the JSON files, frozen so that refactors of the claim grid are
# checked to change no byte of the reports
ALL_JSON_SHA256 = "b639d638ea16a0d53b06fbd38f4d7d89969b0c0e281b25e8507056a90743166e"
SECTION3_JSON_SHA256 = "66f175bc11346065b4f344420e311a3979fff52ac42e4f5e79b6f0f713e04da5"


def _verify_json(target, *claim_args):
    proc = subprocess.run(
        [sys.executable, "-m", "freegroups", "verify", *claim_args, "--json", str(target)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    return target.read_bytes()


def test_criterion_9_determinism(tmp_path):
    args = ("all", "--max-len", "2", "--truncation", "3")
    outputs = [
        _verify_json(tmp_path / name, *args) for name in ("first.json", "second.json")
    ]
    assert outputs[0] == outputs[1]
    assert hashlib.sha256(outputs[0]).hexdigest() == ALL_JSON_SHA256
    section3 = _verify_json(tmp_path / "section3.json", "section3", "--truncation", "3")
    assert hashlib.sha256(section3).hexdigest() == SECTION3_JSON_SHA256
    reports = json.loads(outputs[0])
    assert len(reports) == 11
    assert all(r["status"] == "pass" for r in reports)
    # in process as well
    assert verify_npbig(2, 3).to_json() == verify_npbig(2, 3).to_json()
    print("criterion 9: PASS  verify all twice is byte-identical JSON")


def test_criterion_9_overwrites_in_place(tmp_path):
    # a longer file already at the path must leave no stale tail
    target = tmp_path / "report.json"
    target.write_bytes(random.Random(9).randbytes(10 * 1024))
    args = ("all", "--max-len", "2", "--truncation", "3")
    for _ in range(2):
        assert hashlib.sha256(_verify_json(target, *args)).hexdigest() == ALL_JSON_SHA256
    print("criterion 9: PASS  verify all over 10 KB of junk, twice, is the pinned JSON")
