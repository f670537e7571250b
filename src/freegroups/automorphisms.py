"""Whitehead automorphisms of a free group.

Two kinds.  A kind 1 automorphism permutes the letters: each generator is
sent to a signed generator and the magnitudes form a permutation, so word
length never changes.  A kind 2 automorphism is described by a multiplier
letter a and a member set A of letters with a in A and a^-1 not in A; it
fixes a and sends every other letter x to one of

    x,    x a,    a^-1 x,    a^-1 x a

where the trailing a appears exactly when x is in A and the leading a^-1
exactly when x^-1 is in A.  This is an automorphism; its inverse is again of the
same shape, with multiplier a^-1 and member set (A minus a) plus a^-1.

Descriptors are plain data and may be built in invalid states; validity is
checked by their is_valid method and enforced on application, inversion
and serialization.  The kind 2
enumeration for rank n has exactly 2n * 4^(n-1) entries: multipliers in
letter order, and for each of the other n-1 generator pairs {x, x^-1} the
four membership patterns (neither, x, x^-1, both) in counter order with the
last pair stepping fastest.
"""

from __future__ import annotations

from itertools import permutations, product

from .words import Word, _FrozenRecord, _is_letter, _letters_of, _reduce_tuple, check_rank
from .words import letter_key, letter_name, letter_order

RANK_CAP = 8  # enumerate_kind2 refuses anything bigger


def _name(x) -> str:
    # a descriptor prints even when invalid: a non-letter shows as its repr
    return letter_name(x) if _is_letter(x) else repr(x)


def _check_valid(aut) -> None:
    if not aut.is_valid():
        raise ValueError(f"invalid automorphism descriptor: {aut!r}")


class PermutationAut(_FrozenRecord):
    """Kind 1: generator i maps to the letter images[i-1]."""

    __slots__ = ("images",)

    def __init__(self, images: tuple[int, ...]):
        object.__setattr__(self, "images", images)

    def is_valid(self) -> bool:
        if not isinstance(self.images, tuple) or not self.images:
            return False
        if not all(map(_is_letter, self.images)):
            return False
        return sorted(abs(x) for x in self.images) == list(
            range(1, len(self.images) + 1)
        )

    def inverse(self) -> "PermutationAut":
        _check_valid(self)
        inv = [0] * len(self.images)
        for i, y in enumerate(self.images, start=1):
            inv[abs(y) - 1] = i if y > 0 else -i
        return PermutationAut(tuple(inv))

    def to_json_dict(self) -> dict:
        _check_valid(self)
        return {"kind": 1, "images": list(self.images)}

    def __repr__(self) -> str:
        # images that are no tuple print whole, as their repr
        imgs = self.images
        imgs = ", ".join(map(_name, imgs)) if isinstance(imgs, tuple) else repr(imgs)
        return f"PermutationAut({imgs})"


class MultiplierAut(_FrozenRecord):
    """Kind 2: multiplier letter plus the member set of letters it follows."""

    __slots__ = ("multiplier", "members")

    def __init__(self, multiplier: int, members: frozenset[int]):
        object.__setattr__(self, "multiplier", multiplier)
        object.__setattr__(self, "members", members)

    def is_valid(self) -> bool:
        a, members = self.multiplier, self.members
        if not isinstance(members, frozenset) or not all(map(_is_letter, (a, *members))):
            return False
        return a in members and -a not in members

    def inverse(self) -> "MultiplierAut":
        _check_valid(self)
        a = self.multiplier
        return MultiplierAut(-a, (self.members - {a}) | {-a})

    def to_json_dict(self) -> dict:
        _check_valid(self)
        return {
            "kind": 2,
            "multiplier": self.multiplier,
            "members": sorted(self.members, key=letter_key),
        }

    def __str__(self) -> str:
        # the letters in letter order, then any other member as its repr
        mem = self.members
        if isinstance(mem, frozenset):
            shown = list(map(letter_name, sorted(filter(_is_letter, mem), key=letter_key)))
            shown += sorted(repr(x) for x in mem if not _is_letter(x))
            mem = "{" + ", ".join(shown) + "}"
        else:
            mem = repr(mem)
        return f"({_name(self.multiplier)}; {mem})"

    def __repr__(self) -> str:
        return f"MultiplierAut{self}"


def _apply_k1_letters(images: tuple[int, ...], letters) -> tuple[int, ...]:
    # a letter permutation maps reduced words to reduced words as is
    return tuple(images[x - 1] if x > 0 else -images[-x - 1] for x in letters)


def _apply_k2_letters(a: int, members: frozenset[int], letters) -> tuple[int, ...]:
    na = -a
    out: list[int] = []
    for x in letters:
        if x == a or x == na:
            out.append(x)
            continue
        if -x in members:
            out.append(na)
        out.append(x)
        if x in members:
            out.append(a)
    return _reduce_tuple(out)


def apply_aut(aut, w: Word) -> Word:
    """Image of a word under a Whitehead automorphism, reduced.

    Rejects anything but a valid descriptor, and for kind 1 rejects words
    whose indices fall outside the permutation.
    """
    if not isinstance(aut, (PermutationAut, MultiplierAut)):
        raise TypeError(f"aut must be PermutationAut or MultiplierAut, got {type(aut).__name__}")
    letters = _letters_of(w, "w")
    _check_valid(aut)
    if isinstance(aut, PermutationAut):
        check_rank(letters, len(aut.images))
        return Word._wrap(_apply_k1_letters(aut.images, letters))
    return Word._wrap(_apply_k2_letters(aut.multiplier, aut.members, letters))


def enumerate_kind1(rank: int) -> list[PermutationAut]:
    """All signed letter permutations, n! * 2^n of them, in a fixed order."""
    check_rank((), rank)
    out = []
    for perm in permutations(range(1, rank + 1)):
        for signs in product((1, -1), repeat=rank):
            out.append(PermutationAut(tuple(s * p for s, p in zip(signs, perm))))
    return out


def enumerate_kind2(rank: int) -> list[MultiplierAut]:
    """All kind 2 descriptors for the given rank, 2n * 4^(n-1) of them.

    Order: multiplier a runs over letter_order(rank); for each, the other
    generator pairs take membership patterns 0..3 (neither, x, x^-1, both)
    counted with the highest-index pair moving fastest.  The count grows as
    4^n, hence the rank cap.
    """
    check_rank((), rank)
    if rank > RANK_CAP:
        raise ValueError(f"rank {rank} exceeds the enumeration cap {RANK_CAP}")
    out = []
    for a in letter_order(rank):
        others = [i for i in range(1, rank + 1) if i != abs(a)]
        for pattern in product(range(4), repeat=len(others)):
            members = {a}
            for i, p in zip(others, pattern):
                if p & 1:
                    members.add(i)
                if p & 2:
                    members.add(-i)
            out.append(MultiplierAut(a, frozenset(members)))
    return out


def kind2_count(rank: int) -> int:
    check_rank((), rank)
    return 2 * rank * 4 ** (rank - 1)

