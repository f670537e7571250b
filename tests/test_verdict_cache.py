"""The symmetry-class verdicts of the exhaustive sweeps.

Every class verdict comes by one route: the class walk,
verify._core_classes, which settles each class of cyclic cores once, on
its least necklace.  prop24 and density read the walk directly;
nielsen-xcheck reads it for the coordinates of one pair per class of
pairs under the signed permutations of e1 and e2, through a table that
files each class's verdict under its gap-key pair: the gap keys of its
core and of its inverse, where a gap key (words._gap_key) is the least
rotation of a core's signed gaps back to the previous occurrence of each
generator.  A word's verdict is then the one filed under the gap key of
its cyclic core.  It must be the plain minimizer's verdict word for
word, the gap-key pairs must join exactly the cores that the kind 1
filing joins, every report must stay unchanged, each sweep must walk
afresh, and the routes that check the minimizer independently must
never walk.  The references below are the sweeps as they read before
the class verdicts, calling is_primitive once per word and checking
every pair, and the kind 1 filing, which files each class under the
least rotation of every signed permutation image of the core and of its
inverse.  prop24 names a failing class by its least core, so its
reference joins the failing cores by those kind 1 images.

The walk is checked class by class against the orbit oracle's closure,
primitivity._primitive_classes, which settles no class by descent: it
names classes by words._class_key, the lesser key of a gap-key pair.
Both routes read the gap key, so a gap key that merges two classes could
fool them alike; criterion 1, which compares the oracle with
is_primitive word by word, catches that.
"""

import hashlib
import json
import sys
from functools import cache

import hypothesis
import pytest

from freegroups import stallings, verify, words
from freegroups.automorphisms import _apply_k1_letters, enumerate_kind1
from freegroups.primitivity import (
    _minimize_letters,
    _primitive_classes,
    is_basis_pair_f2,
    is_primitive,
    primitive_orbit_oracle,
    whitehead_minimize,
)
from freegroups.stallings import build_subgroup_graph
from freegroups.verify import (
    VerificationReport,
    primitive_density,
    verify_nielsen_xcheck,
    verify_prop24,
)
from freegroups.whitehead_graph import build_whitehead_graph
from freegroups.words import (
    Word,
    _class_key,
    _cyclic_strip,
    canonical_rotation,
    cyclically_reduce,
    format_word,
    iter_reduced_words,
    parse_word,
    word_sort_key,
)
from test_rank2_oracle import closed_form_primitive


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
    return VerificationReport("prop24", {"rank": rank, "max_len": max_len}, counterexamples, stats)


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
    return VerificationReport(
        "nielsen-xcheck", {"max_pair_len": max_pair_len}, counterexamples, stats
    )


def reference_filing(rank):
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


def all_necklaces(rank, max_len):
    """Every necklace of the ball, found by brute force: the least rotation
    of each cyclically reduced word, in the order the ball meets them."""
    return list(
        dict.fromkeys(
            canonical_rotation(w.letters)
            for w in iter_reduced_words(rank, max_len, include_empty=False)
            if _cyclic_strip(w.letters)[0] == w.letters
        )
    )


def inverse(core):
    return tuple(-x for x in reversed(core))


def gap_key_pair(core):
    """The gap keys under which nielsen-xcheck files the class of core."""
    return {verify._gap_key(core), verify._gap_key(inverse(core))}


@cache
def class_verdicts(rank, max_len):
    """The table nielsen-xcheck builds from the class walk, with each
    class's core beside its verdict: gap key -> (core, primitive)."""
    table = {}
    for core, _, _, primitive in verify._core_classes(rank, max_len):
        for key in gap_key_pair(core):
            assert key not in table, core  # no two classes share a key
            table[key] = core, primitive
    return table


def class_of(rank, core, max_len=None):
    """The walk's (core, primitive) for the class of a cyclic core."""
    table = class_verdicts(rank, len(core) if max_len is None else max_len)
    return table[verify._gap_key(core)]


@pytest.mark.parametrize("rank,max_len", [(1, 6), (2, 8), (3, 6), (4, 5), (5, 4)])
def test_gap_key_classes_match_the_kind1_filing(rank, max_len):
    # the kind 1 filing names a class by its first necklace met, which is
    # the walk's core, the least necklace of the class, so equal answers on
    # every necklace mean the same partition and the same verdicts
    reference = reference_filing(rank)
    classes = set()
    for core in all_necklaces(rank, max_len):
        got = class_of(rank, core, max_len)
        assert got == reference(core), core
        classes.add(got[0])
    assert len(class_verdicts(rank, max_len)) <= 2 * len(classes)


def symmetric_images(core, shift, images):
    """A rotation of core, its inverse and a signed relabeling of it."""
    rotation = core[shift:] + core[:shift]
    relabeled = tuple(images[x - 1] if x > 0 else -images[-x - 1] for x in core)
    return rotation, inverse(core), relabeled


def assert_one_class(rank, core, shift, images):
    # the images share the gap-key pair of the core, so the two keys filed
    # for the class serve them all
    pair = gap_key_pair(core)
    for other in symmetric_images(core, shift, images):
        assert gap_key_pair(other) == pair, other


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
    assert_one_class(rank, core, shift, images)
    # the walk files one verdict for the class, whichever image looks it up
    entry = class_of(rank, core)
    for other in symmetric_images(core, shift, images):
        assert class_of(rank, other) == entry, other
    assert entry[1] == is_primitive(Word(core), rank)


def test_symmetric_images_share_one_class():
    # the derandomized draws can miss a rare shape, so the fixed cases above
    # stand beside this property
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
    # (ab)^2 and a b a^-1 b differ only in the sign of one gap
    cores = [(1, 2, 1, 2), (1, 2, -1, 2), (1, 2), (1, 1, 2), (1, 2, 2)]
    pairs = [gap_key_pair(core) for core in cores]
    assert all(pairs[i].isdisjoint(pairs[j]) for i in range(4) for j in range(i))
    assert pairs[4] == pairs[3]
    # the walk names each class by its least necklace
    classes = [class_of(2, core, 4)[0] for core in cores]
    assert classes == [(1, 2, 1, 2), (1, 2, 1, -2), (1, 2), (1, 1, 2), (1, 1, 2)]


def test_the_empty_core_is_not_primitive(monkeypatch):
    assert class_of(2, (1,)) == ((1,), True) == class_of(2, (-2,))
    # the walk holds nonempty cores only; when both routes call every pair
    # a basis, nielsen-xcheck reads the empty core as not primitive
    monkeypatch.setattr(verify, "_basis_pair_letters", lambda a, b: True)
    monkeypatch.setattr(verify, "_is_rose", lambda *args: True)
    report = verify_nielsen_xcheck(2)
    assert report.stats["words_checked"] == report.stats["basis_pairs"] == 49
    # all 33 pairs with an empty coordinate fail, and the 16 pairs of
    # letters pass
    assert len(report.counterexamples) == 33
    assert all("(, " in pair or ", )" in pair for pair in report.counterexamples)


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
    classes = set()
    words = 0
    for w in iter_reduced_words(rank, max_len, include_empty=False):
        words += 1
        cls, primitive = class_of(rank, _cyclic_strip(w.letters)[0], max_len)
        classes.add(cls)
        assert primitive == is_primitive(w, rank), w
    # far fewer classes than words, or the classes save nothing
    assert 0 < len(classes) < words // 10


@pytest.mark.parametrize("rank,max_len", [(2, 6), (3, 4)])
def test_classes_do_not_depend_on_walk_order(rank, max_len):
    # a class must be filed the same whichever of its cores comes first:
    # filing the gap-key pair of the first core met, in either order, must
    # give the partition and the verdicts of the walk
    necklaces = all_necklaces(rank, max_len)

    def partition(order):
        filed = {}
        blocks = {}
        for core in order:
            if verify._gap_key(core) not in filed:
                filed.update(dict.fromkeys(gap_key_pair(core), core))
            blocks.setdefault(filed[verify._gap_key(core)], set()).add(core)
        return {frozenset(block) for block in blocks.values()}

    forward = partition(necklaces)
    assert forward == partition(necklaces[::-1])
    walked = {}
    for core in necklaces:
        walked.setdefault(class_of(rank, core, max_len), set()).add(core)
    assert forward == {frozenset(block) for block in walked.values()}
    # classes join necklaces, and both verdicts occur
    assert len(forward) < len(necklaces)
    assert {primitive for _, primitive in walked} == {True, False}


@pytest.mark.parametrize("rank,max_len", [(2, 7), (3, 5), (2, 8), (3, 6)])
def test_prop24_report_matches_cacheless_reference(rank, max_len):
    assert verify_prop24(rank, max_len).to_json() == reference_prop24(rank, max_len).to_json()


def reference_class_cores(cores, rank):
    """The least of the given cores in each symmetry class they fall in,
    in word_sort_key order.  Two cores share a class when they have the
    same set of least rotations of the kind 1 images of a core and of its
    inverse; no gap key is read."""
    kind1 = [t.images for t in enumerate_kind1(rank)]
    least = {}
    for core in cores:
        orbit = frozenset(
            canonical_rotation(_apply_k1_letters(images, word))
            for images in kind1
            for word in (core, inverse(core))
        )
        least[orbit] = min(least.get(orbit, core), core, key=lambda c: word_sort_key(Word(c)))
    return sorted(least.values(), key=lambda c: word_sort_key(Word(c)))


def test_prop24_counterexamples_match_reference(monkeypatch):
    # a fake separability test that fails every core of length 5; length is
    # a class invariant, so the class-level verdicts must name the classes
    # of the per-core counterexample list, each by its least core.  The
    # sweep reads separability off the edge matrix of the core, which has
    # one edge per letter of a cyclically reduced core.
    def fake_separability(m, rank):
        return sum(sum(row.values()) for row in m) // 2 != 5, True, []

    def fake_separable(word, rank):
        return len(word) != 5

    monkeypatch.setattr(verify, "_separability", fake_separability)
    for rank, max_len in ((2, 6), (3, 5)):
        got = verify_prop24(rank, max_len)
        reference = reference_prop24(rank, max_len, fake_separable).to_json_dict()
        cores = [parse_word(text).letters for text in reference["counterexamples"]]
        named = reference_class_cores(cores, rank)
        # classes join cores, so the report is shorter than the core list
        assert 0 < len(named) < len(cores)
        reference["counterexamples"] = [format_word(Word(core)) for core in named]
        assert got.to_json_dict() == reference


@pytest.mark.parametrize("rank,max_len", [(1, 6), (2, 7), (3, 5), (2, 8), (3, 6)])
def test_density_matches_cacheless_reference(rank, max_len):
    assert primitive_density(rank, max_len) == reference_density(rank, max_len)


def test_nielsen_xcheck_report_matches_cacheless_reference():
    # the grid's size: the sweep checks one pair per class under the
    # signed permutations of e1 and e2, the reference every pair
    assert verify_nielsen_xcheck(6).to_json() == reference_nielsen_xcheck(6).to_json()


def test_a_fault_that_breaks_the_symmetry_is_pinned_by_the_reference(monkeypatch):
    # a fold that drops every loop starting with e2^-1 is no longer
    # invariant under the signed permutations, so the class sweep, which
    # folds one pair per class, lists another set of failing pairs than a
    # sweep of every pair; the word-level reference test above is what
    # pins faults of this kind, since the reports then differ
    fold = stallings._fold_letters

    def dropping(loops, rng=None):
        return fold([loop for loop in loops if loop[:1] != (-2,)], rng)

    monkeypatch.setattr(stallings, "_fold_letters", dropping)
    monkeypatch.setattr(verify, "_fold_letters", dropping)
    report, reference = verify_nielsen_xcheck(6), reference_nielsen_xcheck(6)
    assert report.status == reference.status == "fail"
    assert (len(report.counterexamples), len(reference.counterexamples)) == (128, 360)
    assert report.to_json() != reference.to_json()


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

    monkeypatch.setattr(verify, "_core_classes", refuse)
    oracle = primitive_orbit_oracle(2, 6)
    assert Word([1, 2, 1, 2, 1]) in oracle and Word([1, 1]) not in oracle
    assert is_primitive(Word([1, 2, 1, 2, 1]), 2)
    assert not is_primitive(Word([1, 1, 2, 2]), 2)
    assert [n for _, n in whitehead_minimize(Word([1, 2, 1, 2, 1]), 2).steps] == [3, 2, 1]
    # the patch bites: each sweep that reads the class walk fails
    sweeps = [(verify_nielsen_xcheck, (2,)), (verify_prop24, (2, 2)), (primitive_density, (2, 2))]
    for sweep, args in sweeps:
        with pytest.raises(RuntimeError, match="verdict cache used"):
            sweep(*args)


def walk_against_oracle(rank, max_len):
    """(wrong, walked, closure): the walk's class cores whose verdict is
    not membership of their class in the oracle's closure, the class keys
    the walk meets, and the closure, the keys of the primitive classes."""
    closure = _primitive_classes(rank, max_len)
    walked = set()
    wrong = []
    for core, _, _, primitive in verify._core_classes(rank, max_len):
        walked.add(_class_key(core))
        if primitive != (_class_key(core) in closure):
            wrong.append(core)
    return wrong, walked, closure


# (rank, max_len, classes walked, primitive classes)
WALK_SIZES = [(3, 9, 3431, 1302), (4, 7, 400, 287)]


@pytest.mark.parametrize("rank,max_len,classes,primitive", WALK_SIZES)
def test_the_class_walk_matches_the_orbit_oracle(rank, max_len, classes, primitive):
    # the oracle meets no class the walk lacks, and agrees on every verdict
    wrong, walked, closure = walk_against_oracle(rank, max_len)
    assert wrong == []
    assert closure <= walked
    assert (len(walked), len(closure)) == (classes, primitive)


def test_the_rank2_walk_and_closure_match_the_closed_form():
    closure = _primitive_classes(2, 10)
    walked = set()
    for core, _, _, primitive in verify._core_classes(2, 10):
        walked.add(_class_key(core))
        assert primitive == (_class_key(core) in closure) == closed_form_primitive(core), core
    assert closure <= walked
    assert (len(walked), len(closure)) == (779, 17)


def test_a_flipped_class_verdict_fails_the_oracle_check(monkeypatch):
    minimize = verify._minimize_letters

    def flipped(letters, rank, **kwargs):
        if letters == (1, 2):
            return letters, []  # as if no move shortened a b
        return minimize(letters, rank, **kwargs)

    assert walk_against_oracle(3, 5)[0] == []
    monkeypatch.setattr(verify, "_minimize_letters", flipped)
    assert walk_against_oracle(3, 5)[0] == [(1, 2)]


def test_a_gap_key_that_merges_classes_fails_criterion_1(monkeypatch):
    # the walk and the oracle share the gap key, so a fault in it is caught
    # by criterion 1, which reads is_primitive, where no gap key enters
    real = words._gap_key

    def merged(core):
        key = real(core)
        return real((1, 2)) if key == real((1, 1)) else key  # a^2 joins a b

    def criterion_1(rank, max_len):
        oracle = primitive_orbit_oracle(rank, max_len)
        return [
            w
            for w in iter_reduced_words(rank, max_len, include_empty=False)
            if is_primitive(w, rank) != (w in oracle)
        ]

    assert criterion_1(2, 3) == []
    holders = [
        module
        for name, module in sys.modules.items()
        if name.startswith("freegroups") and getattr(module, "_gap_key", None) is real
    ]
    assert {words, verify} <= set(holders)
    for module in holders:
        monkeypatch.setattr(module, "_gap_key", merged)
    assert criterion_1(2, 3) == [Word(x) for x in ([1, 1], [-1, -1], [2, 2], [-2, -2])]
