"""Tests for the verification harness: the covering word family, each
claim checker at small parameters, report serialization, and the grid."""

import ast
import json
from pathlib import Path

import pytest

import freegroups

from freegroups.verify import (
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
from freegroups.words import Word, parse_word


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


def test_package_has_no_assert_statements():
    # invariants must hold under python -O, which strips assert statements
    package = Path(freegroups.__file__).parent
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_select_wij_frozen():
    fam2 = wij_family(2)
    fam3 = wij_family(3)
    assert select_wij(Word([]), fam2) == (1, 1)
    # first letter magnitude blocks j, last blocks i
    assert select_wij(parse_word("ba"), fam2) == (2, 1)
    assert select_wij(parse_word("A"), fam3) == (2, 2)
    assert select_wij(parse_word("BA"), fam2) == (2, 1)  # signs ignored
    assert select_wij(parse_word("ab"), fam2) == (1, 2)


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


def test_nielsen_xcheck_small():
    r = verify_nielsen_xcheck(3)
    assert r.passed
    # sum over |a| of N(|a|) * ball(3 - |a|)
    assert r.stats["words_checked"] == 1 * 53 + 4 * 17 + 12 * 5 + 36 * 1
    assert r.stats["basis_pairs"] > 0


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
    back = VerificationReport.from_json_dict(d)
    assert back.to_json_dict() == d
    assert back.claim_id == "fincov"
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
