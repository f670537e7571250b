"""The symmetry-class verdicts of the exhaustive sweeps.

verify._symmetry_classifier settles each class of cyclic cores once.  It
names a core's class by its gap key, the least rotation of its signed
gaps back to the previous occurrence of each generator, and files a
verdict under the key of the core and of its inverse.  It must give the
plain minimizer's verdict word for word, join exactly the cores that
the kind 1 filing joins, leave every report unchanged, live for one
sweep only, and stay out of the routes that check the minimizer
independently.  The references below are the sweeps as they read before
the class verdicts, calling is_primitive once per word, and the kind 1
filing, which files each class under the least rotation of every signed
permutation image of the core and of its inverse.
"""

import hashlib
import json

import pytest

from freegroups import verify
from freegroups.automorphisms import _apply_k1_letters, enumerate_kind1
from freegroups.primitivity import (
    _minimize_letters,
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


def reference_classifier(rank):
    """The kind 1 filing: a miss files the class under the least rotation
    of each signed permutation image of the core and of its inverse,
    2 * n! * 2^n keys."""
    kind1 = [t.images for t in enumerate_kind1(rank)]
    filed = {}

    def classify(key):
        entry = filed.get(key)
        if entry is None:
            entry = key, len(_minimize_letters(key, rank, verdict=True)[0]) == 1
            for images in kind1:
                image = _apply_k1_letters(images, key)
                filed[canonical_rotation(image)] = entry
                filed[canonical_rotation(tuple(-x for x in reversed(image)))] = entry
        return entry

    return classify


def filed_keys(classify):
    """The dict of filed keys in a classifier's closure."""
    (filed,) = [c.cell_contents for c in classify.__closure__ if isinstance(c.cell_contents, dict)]
    return filed


@pytest.mark.parametrize("rank,max_len", [(1, 6), (2, 8), (3, 6), (4, 5), (5, 4)])
def test_gap_key_classes_match_the_kind1_filing(rank, max_len):
    # both name a class by its first core met, so equal answers on the same
    # walk mean the same partition and the same verdicts
    classify, reference = verify._symmetry_classifier(rank), reference_classifier(rank)
    classes = set()
    for length in range(1, max_len + 1):
        for core, _ in verify._necklaces(rank, length):
            got = classify(core)
            assert got == reference(core), core
            classes.add(got[0])
    assert len(filed_keys(classify)) <= 2 * len(classes)


def inverse(core):
    return tuple(-x for x in reversed(core))


def symmetric_images(core, shift, images):
    """A rotation of core, its inverse and a signed relabeling of it."""
    rotation = core[shift:] + core[:shift]
    relabeled = tuple(images[x - 1] if x > 0 else -images[-x - 1] for x in core)
    return rotation, inverse(core), relabeled


def assert_one_class(rank, core, shift, images):
    # whichever comes first names the class, and one minimization and two
    # keys serve them all
    cores = (core,) + symmetric_images(core, shift, images)
    for first in cores:
        classify = verify._symmetry_classifier(rank)
        entry = classify(first)
        for other in cores:
            assert classify(other) is entry, other
        assert len(filed_keys(classify)) <= 2
    return entry


# (rank, core, a rotation shift, the images of the generators); the
# inverse of each core has another gap key, so the class needs both keys
SYMMETRIC_CASES = [
    (3, (1, 2, 1, -2, 3), 3, (-3, 1, -2)),
    (2, (1, 1, 2, 1, -2, -2), 4, (-2, 1)),
    (5, (1, 2, 3, 4, -1, 2, 5, 5), 6, (4, -5, 3, -1, 2)),
]


@pytest.mark.parametrize("rank,core,shift,images", SYMMETRIC_CASES)
def test_a_core_its_rotation_inverse_and_relabeling_share_one_class(rank, core, shift, images):
    assert verify._gap_key(inverse(core)) != verify._gap_key(core)
    _, primitive = assert_one_class(rank, core, shift, images)
    assert primitive == is_primitive(Word(core), rank)


def test_symmetric_images_share_one_class():
    # the derandomized draws can miss a rare shape, so the fixed cases above
    # stand beside this property
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    def signed(rank):
        return st.integers(1, rank).flatmap(lambda i: st.sampled_from([i, -i]))

    cases = st.integers(1, 7).flatmap(
        lambda rank: st.tuples(
            st.just(rank),
            st.lists(signed(rank), min_size=1, max_size=20),
            st.integers(0, 19),
            st.permutations(range(1, rank + 1)),
            st.lists(st.sampled_from([1, -1]), min_size=rank, max_size=rank),
        )
    )

    @hypothesis.given(cases)
    def one_class(case):
        rank, letters, shift, perm, signs = case
        core = _cyclic_strip(Word(letters).letters)[0]
        hypothesis.assume(core)
        images = tuple(s * p for s, p in zip(signs, perm))
        assert_one_class(rank, core, shift % len(core), images)

    one_class()


def test_signs_and_lengths_split_classes():
    classify = verify._symmetry_classifier(2)
    # (ab)^2 and a b a^-1 b differ only in the sign of one gap
    cores = [(1, 2, 1, 2), (1, 2, -1, 2), (1, 2), (1, 1, 2), (1, 2, 2)]
    classes = [classify(core)[0] for core in cores]
    assert classes == [(1, 2, 1, 2), (1, 2, -1, 2), (1, 2), (1, 1, 2), (1, 1, 2)]


def test_the_empty_core_is_not_primitive():
    classify = verify._symmetry_classifier(2)
    assert classify(()) == ((), False)
    assert classify((1,)) == ((1,), True) == classify((-2,))


# the reports of the kind 1 filing past the caps, where it filed
# 2 * n! * 2^n keys per class: 92,160 at rank 6
PROP24_PINS = [
    (4, 7, "785d1d5a19fb1202ee6127947ea179726e506f6eeddff108f93ed3be7ab89c18"),
    (5, 6, "a5ed3f2bca64fccac0b8419e46258d8d6472d2b7e19135d688708f6c14c1f4a2"),
    (6, 5, "e343c046c029315696b9d92650c4471d21642559f22ca0c073cfb7d6cb736948"),
]


@pytest.mark.parametrize("rank,max_len,digest", PROP24_PINS)
def test_prop24_reports_beyond_the_caps_are_pinned(rank, max_len, digest):
    report = json.dumps(verify._prop24(rank, max_len), sort_keys=True)
    assert hashlib.sha256(report.encode()).hexdigest() == digest


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
