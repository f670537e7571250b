"""The symmetry-class verdicts of the exhaustive sweeps.

verify._symmetry_classifier settles each class of cyclic cores once.  It
must give the plain minimizer's verdict word for word, leave every report
unchanged, live for one sweep only, and stay out of the routes that check
the minimizer independently.  The cacheless references below are the
sweeps as they read before the class verdicts, calling is_primitive once
per word.
"""

import pytest

from freegroups import verify
from freegroups.primitivity import (
    is_basis_pair_f2,
    is_primitive,
    primitive_orbit_oracle,
    whitehead_minimize,
)
from freegroups.stallings import build_subgroup_graph
from freegroups.verify import (
    make_report,
    primitive_density,
    verify_nielsen_xcheck,
    verify_prop24,
)
from freegroups.whitehead_graph import build_whitehead_graph
from freegroups.words import (
    Word,
    _cyclic_strip,
    canonical_rotation,
    cyclically_reduce,
    format_word,
    iter_reduced_words,
)


def separable_by_graph(word, rank):
    return build_whitehead_graph(word, rank).find_cut_vertex().separable


def reference_prop24(rank, max_len, separable=separable_by_graph):
    counterexamples = []
    checked = 0
    primitives = 0
    separable_by_core = {}
    for w in iter_reduced_words(rank, max_len, include_empty=False):
        checked += 1
        if not is_primitive(w, rank):
            continue
        primitives += 1
        core, _ = cyclically_reduce(w)
        if core in separable_by_core:
            continue
        separable_by_core[core] = separable(core.word, rank)
        if not separable_by_core[core]:
            counterexamples.append(format_word(core.word))
    stats = {
        "words_checked": checked,
        "primitives_found": primitives,
        "distinct_cores": len(separable_by_core),
    }
    return make_report("prop24", {"rank": rank, "max_len": max_len}, counterexamples, stats, 0.0)


def reference_density(rank, max_len):
    totals = [0] * (max_len + 1)
    prims = [0] * (max_len + 1)
    for w in iter_reduced_words(rank, max_len, include_empty=False):
        totals[len(w)] += 1
        prims[len(w)] += is_primitive(w, rank)
    return [(k, prims[k], totals[k], prims[k] / totals[k]) for k in range(1, max_len + 1)]


def reference_nielsen_xcheck(max_pair_len):
    ball = list(iter_reduced_words(2, max_pair_len, include_empty=True))
    counterexamples = []
    checked = 0
    basis_pairs = 0
    for a in ball:
        for b in ball:
            if len(a) + len(b) > max_pair_len:
                break
            checked += 1
            by_commutator = is_basis_pair_f2(a, b)
            ok = by_commutator == build_subgroup_graph([a, b], 2).generates_whole_group()
            if ok and by_commutator:
                basis_pairs += 1
                ok = is_primitive(a, 2) and is_primitive(b, 2)
            if not ok:
                counterexamples.append(f"({format_word(a)}, {format_word(b)})")
    stats = {"words_checked": checked, "basis_pairs": basis_pairs}
    return make_report(
        "nielsen-xcheck", {"max_pair_len": max_pair_len}, counterexamples, stats, 0.0
    )


@pytest.mark.parametrize("rank,max_len", [(2, 7), (3, 5)])
def test_cached_verdicts_match_minimizer(rank, max_len):
    classify = verify._symmetry_classifier(rank)
    classes = set()
    words = 0
    for w in iter_reduced_words(rank, max_len, include_empty=False):
        words += 1
        cls, primitive = classify(canonical_rotation(_cyclic_strip(w.letters)[0]))
        classes.add(cls)
        assert primitive == is_primitive(w, rank), w
    # far fewer classes than words, or the classes save nothing
    assert 0 < len(classes) < words // 10


@pytest.mark.parametrize("rank,max_len", [(2, 6), (3, 4)])
def test_classes_do_not_depend_on_walk_order(rank, max_len):
    # a class must be filed the same whichever of its cores comes first
    necklaces = [
        core for length in range(1, max_len + 1) for core, _ in verify._necklaces(rank, length)
    ]

    def partition(order):
        classify = verify._symmetry_classifier(rank)
        blocks = {}
        verdicts = {}
        for core in order:
            cls, verdicts[core] = classify(core)
            blocks.setdefault(cls, set()).add(core)
        return {frozenset(block) for block in blocks.values()}, verdicts

    forward = partition(necklaces)
    assert forward == partition(necklaces[::-1])
    # classes join necklaces, and both verdicts occur
    assert len(forward[0]) < len(necklaces)
    assert set(forward[1].values()) == {True, False}


@pytest.mark.parametrize("rank,max_len", [(2, 7), (3, 5), (2, 8), (3, 6)])
def test_prop24_report_matches_cacheless_reference(rank, max_len):
    assert verify_prop24(rank, max_len).to_json() == reference_prop24(rank, max_len).to_json()


def test_prop24_counterexamples_match_reference(monkeypatch):
    # a fake separability test that fails every core of length 5; length is
    # a class invariant, so the class-level verdicts must reproduce the
    # per-core counterexample list, each core as first met.  The sweep
    # reads separability off the edge matrix of the core, which has one
    # edge per letter of a cyclically reduced core.
    def fake_separability(m, rank):
        return sum(sum(row.values()) for row in m) // 2 != 5, True, []

    def fake_separable(word, rank):
        return len(word) != 5

    monkeypatch.setattr(verify, "_separability", fake_separability)
    for rank, max_len in ((2, 6), (3, 5)):
        got = verify_prop24(rank, max_len)
        assert got.counterexamples
        assert got.to_json() == reference_prop24(rank, max_len, fake_separable).to_json()


@pytest.mark.parametrize("rank,max_len", [(1, 6), (2, 7), (3, 5), (2, 8), (3, 6)])
def test_density_matches_cacheless_reference(rank, max_len):
    assert primitive_density(rank, max_len) == reference_density(rank, max_len)


def test_nielsen_xcheck_report_matches_cacheless_reference():
    assert verify_nielsen_xcheck(5).to_json() == reference_nielsen_xcheck(5).to_json()


def test_each_sweep_builds_its_own_cache(monkeypatch):
    minimize = verify._minimize_letters
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return minimize(*args, **kwargs)

    monkeypatch.setattr(verify, "_minimize_letters", counting)
    first = verify_prop24(2, 5)
    first_calls = len(calls)
    second = verify_prop24(2, 5)
    # the second sweep started cold and settled every class again
    assert len(calls) - first_calls == first_calls > 0
    assert first.to_json() == second.to_json()


def test_independent_routes_never_touch_the_cache(monkeypatch):
    def refuse(*args, **kwargs):
        raise RuntimeError("verdict cache used")

    monkeypatch.setattr(verify, "_symmetry_classifier", refuse)
    oracle = primitive_orbit_oracle(2, 6)
    assert Word([1, 2, 1, 2, 1]) in oracle and Word([1, 1]) not in oracle
    assert is_primitive(Word([1, 2, 1, 2, 1]), 2)
    assert not is_primitive(Word([1, 1, 2, 2]), 2)
    assert [n for _, n in whitehead_minimize(Word([1, 2, 1, 2, 1]), 2).steps] == [3, 2, 1]
    # the patch bites: a sweep that does use the cache fails
    with pytest.raises(RuntimeError, match="verdict cache used"):
        verify_prop24(2, 2)
