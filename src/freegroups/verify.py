"""Batch checks that sweep word balls and report pass or fail.

Each checker enumerates an exhaustive ball of reduced words (never a
sample), tests one combinatorial claim on every element, and returns a
VerificationReport.  Claim identifiers are short opaque tags; the claim
table at the end of this module fixes them, with each claim's standard
grid and caps.  Status is "pass" exactly when the counterexample list is
empty.

Reports serialize to stable JSON: keys sorted, two space indent, trailing
newline, and the measured wall time zeroed out, so a rerun with identical
parameters is byte identical.  The measured time stays on the in-memory
report for console display.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from itertools import product
from typing import Callable, NamedTuple

from .primitivity import is_basis_pair_f2, is_primitive, whitehead_minimize
from .stallings import build_subgroup_graph
from .whitehead_graph import build_whitehead_graph
from .words import Word, cyclically_reduce, format_word, iter_reduced_words


@dataclass
class VerificationReport:
    claim_id: str
    parameters: dict
    status: str
    counterexamples: list
    stats: dict

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

    @classmethod
    def from_json_dict(cls, d: dict) -> "VerificationReport":
        return cls(
            claim_id=d["claim_id"],
            parameters=dict(d["parameters"]),
            status=d["status"],
            counterexamples=list(d["counterexamples"]),
            stats=dict(d["stats"]),
        )


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


@dataclass(frozen=True)
class WijFamily:
    """The n^2 translating words e_i w e_j indexed by (i, j)."""

    rank: int
    w: Word
    table: dict

    def __post_init__(self):
        if len(self.table) != self.rank * self.rank:
            raise ValueError(
                f"need {self.rank * self.rank} translates for rank {self.rank}, "
                f"got {len(self.table)}"
            )


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
    fam = wij_family(rank)
    counterexamples = []
    checked = 0
    for a in iter_reduced_words(rank, max_len, include_empty=True):
        checked += 1
        i, j = select_wij(a, fam)
        wij = fam.table[i, j]
        t = wij * a
        ok = len(t) == len(wij) + len(a) and t.is_cyclically_reduced
        if ok:
            ok = not build_whitehead_graph(t, rank).find_cut_vertex().separable
        if ok:
            ok = not is_primitive(t, rank)
        if not ok:
            counterexamples.append(format_word(a))
    return counterexamples, {"words_checked": checked}


def verify_fincov(rank: int, max_len: int) -> VerificationReport:
    """Every word in the ball, the empty one included, has at least one
    non-primitive translate w_ij a.  Records how many of the n^2 pairs work
    per word, and how often the pair select_wij picks is not among them
    (never, when the stronger per-word claim holds)."""
    return _CLAIMS["fincov"].run(rank=rank, max_len=max_len)


def _fincov(rank: int, max_len: int):
    fam = wij_family(rank)
    counterexamples = []
    histogram: dict[int, int] = {}
    selected_failures = 0
    checked = 0
    for a in iter_reduced_words(rank, max_len, include_empty=True):
        checked += 1
        selected = select_wij(a, fam)
        multiplicity = 0
        selected_covers = False
        for key in sorted(fam.table):
            if not is_primitive(fam.table[key] * a, rank):
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
    separable_by_core: dict = {}
    for w in iter_reduced_words(rank, max_len, include_empty=False):
        checked += 1
        if not is_primitive(w, rank):
            continue
        primitives += 1
        core, _ = cyclically_reduce(w)
        if core in separable_by_core:
            continue
        verdict = build_whitehead_graph(core.word, rank).find_cut_vertex()
        separable_by_core[core] = verdict.separable
        if not verdict.separable:
            counterexamples.append(format_word(core.word))
    return counterexamples, {
        "words_checked": checked,
        "primitives_found": primitives,
        "distinct_cores": len(separable_by_core),
    }


def verify_nielsen_xcheck(max_pair_len: int) -> VerificationReport:
    """Three routes to "is (a, b) a basis of the rank 2 group" must agree
    on every pair with |a| + |b| within the bound: the commutator conjugacy
    test, folding to the rose, and (when they say yes) primitivity of both
    coordinates."""
    return _CLAIMS["nielsen-xcheck"].run(max_pair_len=max_pair_len)


def _nielsen_xcheck(max_pair_len: int):
    ball = list(iter_reduced_words(2, max_pair_len, include_empty=True))
    counterexamples = []
    checked = 0
    basis_pairs = 0
    for a in ball:
        budget = max_pair_len - len(a)
        for b in ball:
            if len(b) > budget:
                break  # ball is sorted by length
            checked += 1
            by_commutator = is_basis_pair_f2(a, b)
            by_rose = build_subgroup_graph([a, b], 2).generates_whole_group()
            ok = by_commutator == by_rose
            if ok and by_commutator:
                basis_pairs += 1
                ok = is_primitive(a, 2) and is_primitive(b, 2)
            if not ok:
                counterexamples.append(f"({format_word(a)}, {format_word(b)})")
    return counterexamples, {"words_checked": checked, "basis_pairs": basis_pairs}


# --- the two stacked generating families and their witnesses ---


def _b_word(i: int) -> Word:
    # e_i e_{i+1}^2
    return Word([i, i + 1, i + 1])


def _c_word(k: int) -> Word:
    # e1 e2^3 ... e_k^3 e_{k+1}^2
    letters = [1]
    for t in range(2, k + 1):
        letters += [t] * 3
    letters += [k + 1] * 2
    return Word(letters)


def _power_tail(n: int) -> Word:
    # e2^3 ... e_{n+1}^3 e_{n+2}^2
    letters = []
    for t in range(2, n + 2):
        letters += [t] * 3
    letters += [n + 2] * 2
    return Word(letters)


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
        expected = Word([1] + list(_power_tail(n).letters))
        checks += 1
        if prod != expected:
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
    subreports = [
        verify_claim_one(truncation),
        verify_claim_two(truncation),
        verify_lemma38(truncation),
    ]
    counterexamples = []
    checks = 0
    seconds = 0.0
    statuses = {}
    for r in subreports:
        counterexamples += r.counterexamples
        checks += r.stats["words_checked"]
        seconds += r.stats["seconds"]
        statuses[r.claim_id] = r.status
    return make_report(
        "section3",
        {"truncation": truncation},
        counterexamples,
        {"words_checked": checks, "subclaims": statuses},
        seconds,
    )


def primitive_density(rank: int, max_len: int):
    """Exact per-length counts of primitives among all reduced words.

    Returns rows (length, primitives, total, ratio) for lengths 1 through
    max_len.
    """
    if not 1 <= rank <= 3:
        raise ValueError(f"rank must be in 1..3, got {rank}")
    if not 1 <= max_len <= 8:
        raise ValueError(f"max_len must be in 1..8, got {max_len}")
    totals = [0] * (max_len + 1)
    prims = [0] * (max_len + 1)
    for w in iter_reduced_words(rank, max_len, include_empty=False):
        totals[len(w)] += 1
        if is_primitive(w, rank):
            prims[len(w)] += 1
    return [
        (length, prims[length], totals[length], prims[length] / totals[length])
        for length in range(1, max_len + 1)
    ]


# --- the claim table ---


class _Claim(NamedTuple):
    """One claim: its sweep, its standard grid and the caps on its
    parameters.

    sweep takes the parameters by name and returns (counterexamples,
    stats).  A cap is a tuple of allowed values, a range, or a function of
    the rank giving either.  length_param names the parameter that a
    max_len override sets.
    """

    claim_id: str
    sweep: Callable[..., tuple[list, dict]]
    grid: tuple[dict, ...]
    caps: dict
    length_param: str = "max_len"

    def allowed(self, name: str, params: dict):
        cap = self.caps[name]
        return cap(params["rank"]) if callable(cap) else cap

    def run(self, **params) -> VerificationReport:
        for name in self.caps:
            allowed = self.allowed(name, params)
            if params[name] not in allowed:
                if isinstance(allowed, range):
                    span = f"in {allowed.start}..{allowed[-1]}"
                else:
                    span = " or ".join(map(str, allowed))
                raise ValueError(f"{name} must be {span}, got {params[name]}")
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
                allowed = self.allowed(name, params)
                params[name] = max(allowed.start, min(value, allowed[-1]))
        return params


_TRANSLATE_RANKS = (2, 3)
_MAX_LEN = range(0, 7)
# the three stacked-family claims, which verify_section3 runs together
_STACKED_GRID = ({"truncation": 10},)
_STACKED_CAPS = {"truncation": range(2, 11)}

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
        # the composite of the stacked-family claims, which share grid and caps
        claim = _CLAIMS["claimI"]
        return [verify_section3(**claim.with_overrides(claim.grid[0], None, truncation))]
    if claim_id in (None, "all"):
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
