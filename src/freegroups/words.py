"""Reduced words in a finitely generated free group.

Letters are nonzero integers: +i is the i-th generator, -i its inverse,
with indices starting at 1.  A word is a sequence of letters, and it is
reduced when no letter is immediately followed by its own inverse.  Word
objects always hold reduced sequences (reduction happens on construction),
so ``w * ~w`` is always the empty word.

Two text forms are accepted wherever a word can be typed in:

    form A: letters a-z name generators 1 to 26 and A-Z their inverses,
            whitespace is ignored, and ^k repeats the preceding letter,
            so "abbA", "ab^2A" and "a b^2 A" all mean e1 e2 e2 e1^-1;
            text that expands past PARSE_LETTER_CAP letters is rejected
    form B: whitespace separated signed decimal indices, "1 2 2 -1",
            usable at any rank

``format_word`` emits form A while every index fits into the alphabet and
form B otherwise, and ``parse_word(format_word(w)) == w`` always holds.
"""

from __future__ import annotations

import re
from itertools import groupby
from typing import Iterable, Iterator

PARSE_LETTER_CAP = 1_000_000  # letters one form A text may expand to, before reduction


def letter_key(x: int) -> tuple[int, bool]:
    """Sort key giving the canonical letter order e1 < e1^-1 < e2 < e2^-1 < ..."""
    return (abs(x), x < 0)


def letter_name(x: int) -> str:
    """Display name of a letter, "e3" or "e3^-1"."""
    return f"e{x}" if x > 0 else f"e{-x}^-1"


def _reduce_tuple(seq: Iterable[int]) -> tuple[int, ...]:
    # single pass with a stack; cancels pairs x, -x as they meet
    out: list[int] = []
    for x in seq:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


def _cyclic_strip(letters: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    # returns (core, prefix) with letters == prefix + core + inverse(prefix)
    i, j = 0, len(letters)
    while j - i >= 2 and letters[i] == -letters[j - 1]:
        i += 1
        j -= 1
    return letters[i:j], letters[:i]


class WordParseError(ValueError):
    """Raised on malformed word text; carries the offending character offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class Word:
    """A freely reduced word.

    The letter sequence is reduced on construction and kept immutable.
    ``rank_hint`` is advisory metadata: when present, every index must fit
    under it, but no operation requires it.

    >>> Word([1, 2, -2, 3]).letters
    (1, 3)
    >>> str(Word([1, 2, 2, -1]))
    'ab^2A'
    """

    __slots__ = ("letters", "rank_hint")

    def __init__(self, letters: Iterable[int] = (), rank_hint: int | None = None):
        lets = tuple(letters)
        for x in lets:
            if not isinstance(x, int) or isinstance(x, bool) or x == 0:
                raise ValueError(f"letters must be nonzero integers, got {x!r}")
        if rank_hint is not None:
            if rank_hint < 1:
                raise ValueError(f"rank_hint must be positive, got {rank_hint}")
            for x in lets:
                if abs(x) > rank_hint:
                    raise ValueError(
                        f"letter {letter_name(x)} exceeds rank_hint {rank_hint}"
                    )
        self.letters = _reduce_tuple(lets)
        self.rank_hint = rank_hint

    @classmethod
    def _wrap(cls, letters: tuple[int, ...], rank_hint: int | None = None) -> "Word":
        # trusted constructor for sequences already known to be reduced
        w = object.__new__(cls)
        w.letters = letters
        w.rank_hint = rank_hint
        return w

    @property
    def max_index(self) -> int:
        return max((abs(x) for x in self.letters), default=0)

    @property
    def is_cyclically_reduced(self) -> bool:
        return len(self.letters) < 2 or self.letters[0] != -self.letters[-1]

    def inverse(self) -> "Word":
        return Word._wrap(tuple(-x for x in reversed(self.letters)), self.rank_hint)

    def conjugate_by(self, g: "Word") -> "Word":
        """g * self * g^-1."""
        return g * self * g.inverse()

    def cyclic_core(self) -> "Word":
        return Word._wrap(_cyclic_strip(self.letters)[0], self.rank_hint)

    def __mul__(self, other: "Word") -> "Word":
        if not isinstance(other, Word):
            return NotImplemented
        hint = _merge_hints(self.rank_hint, other.rank_hint)
        return Word._wrap(_reduce_tuple(self.letters + other.letters), hint)

    def __invert__(self) -> "Word":
        return self.inverse()

    def __pow__(self, k: int) -> "Word":
        if not isinstance(k, int):
            return NotImplemented
        base = self.letters if k >= 0 else self.inverse().letters
        return Word._wrap(_reduce_tuple(base * abs(k)), self.rank_hint)

    def __len__(self) -> int:
        return len(self.letters)

    def __bool__(self) -> bool:
        return bool(self.letters)

    def __iter__(self):
        return iter(self.letters)

    def __getitem__(self, idx):
        if isinstance(idx, slice):
            return Word._wrap(self.letters[idx], self.rank_hint)
        return self.letters[idx]

    def __eq__(self, other) -> bool:
        # rank_hint is advisory and excluded from equality
        return isinstance(other, Word) and self.letters == other.letters

    def __hash__(self) -> int:
        return hash(self.letters)

    def __str__(self) -> str:
        return format_word(self)

    def __repr__(self) -> str:
        return f"Word({format_word(self)!r})"


def _merge_hints(a: int | None, b: int | None) -> int | None:
    if a is None:
        return b
    if b is None:
        return a
    return max(a, b)


def word_sort_key(w: Word) -> tuple:
    """Total order on words: by length, then letter by letter."""
    return (len(w.letters), tuple(letter_key(x) for x in w.letters))


class CyclicWord:
    """A word considered up to rotation.

    Wraps a cyclically reduced representative.  Equality is rotation
    equivalence; hashing and ``canonical()`` use the least rotation under
    the standard letter order.
    """

    __slots__ = ("word", "_canon")

    def __init__(self, word: Word | Iterable[int]):
        w = word if isinstance(word, Word) else Word(word)
        if not w.is_cyclically_reduced:
            raise ValueError(f"{w!r} is not cyclically reduced")
        self.word = w
        self._canon: Word | None = None

    def canonical(self) -> Word:
        if self._canon is None:
            self._canon = Word._wrap(
                canonical_rotation(self.word.letters), self.word.rank_hint
            )
        return self._canon

    def rotations(self) -> Iterator[Word]:
        lets = self.word.letters
        if not lets:
            yield self.word
            return
        for i in range(len(lets)):
            yield Word._wrap(lets[i:] + lets[:i], self.word.rank_hint)

    def __len__(self) -> int:
        return len(self.word.letters)

    def __eq__(self, other) -> bool:
        if not isinstance(other, CyclicWord):
            return NotImplemented
        return _is_rotation(self.word.letters, other.word.letters)

    def __hash__(self) -> int:
        return hash(("cyclic", self.canonical().letters))

    def __str__(self) -> str:
        return format_word(self.word)

    def __repr__(self) -> str:
        return f"CyclicWord({format_word(self.word)!r})"


def canonical_rotation(letters: tuple[int, ...]) -> tuple[int, ...]:
    """Least rotation of a letter sequence under the standard letter order."""
    if not letters:
        return letters
    key = lambda t: tuple(letter_key(x) for x in t)
    return min(
        (letters[i:] + letters[:i] for i in range(len(letters))), key=key
    )


def _is_rotation(a: tuple[int, ...], b: tuple[int, ...]) -> bool:
    # b is a rotation of a exactly when it occurs in the doubled a
    if len(a) != len(b):
        return False
    if not a:
        return True
    double = a + a
    return any(double[i : i + len(b)] == b for i in range(len(a)))


def commutator(u: Word, v: Word) -> Word:
    """The commutator u^-1 v^-1 u v, reduced."""
    return u.inverse() * v.inverse() * u * v


def cyclically_reduce(u: Word) -> tuple[CyclicWord, Word]:
    """Split u as c * core * c^-1 with core cyclically reduced.

    Returns (core as a CyclicWord, the conjugating prefix c).

    >>> core, c = cyclically_reduce(Word([1, 2, 2, -1]))
    >>> core.word.letters, c.letters
    ((2, 2), (1,))
    """
    core, prefix = _cyclic_strip(u.letters)
    return (
        CyclicWord(Word._wrap(core, u.rank_hint)),
        Word._wrap(prefix, u.rank_hint),
    )


def are_conjugate(u: Word, v: Word) -> bool:
    """Whether u and v are conjugate: equal cyclic cores up to rotation."""
    return _is_rotation(_cyclic_strip(u.letters)[0], _cyclic_strip(v.letters)[0])


def parse_word(text: str, rank: int | None = None) -> Word:
    """Parse form A or form B word text into a (reduced) Word.

    Form is detected by content: any alphabetic character means form A,
    otherwise the text is split into signed decimal indices.  Malformed
    input and indices above a declared rank raise WordParseError with the
    character position.

    >>> parse_word("abbA").letters
    (1, 2, 2, -1)
    >>> parse_word("1 2 2 -1") == parse_word("ab^2A")
    True
    """
    if any(c.isalpha() for c in text):
        letters = _parse_form_a(text, rank)
    elif not text.strip():
        letters = []
    else:
        letters = _parse_form_b(text, rank)
    return Word(letters, rank_hint=rank)


def _parse_form_a(text: str, rank: int | None) -> list[int]:
    out: list[int] = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c == "^":
            raise WordParseError("caret with no preceding letter", i)
        if "a" <= c <= "z":
            x = ord(c) - 96
        elif "A" <= c <= "Z":
            x = -(ord(c) - 64)
        else:
            raise WordParseError(f"unexpected character {c!r}", i)
        if rank is not None and abs(x) > rank:
            raise WordParseError(f"letter {c!r} exceeds rank {rank}", i)
        start = i
        i += 1
        exp = 1
        if i < n and text[i] == "^":
            j = i + 1
            if j < n and text[j] == "-":
                j += 1
            start_digits = j
            while j < n and "0" <= text[j] <= "9":
                j += 1
            if j == start_digits:
                raise WordParseError("caret must be followed by an integer", i)
            digits = text[start_digits:j].lstrip("0") or "0"
            # length first: int() refuses very long digit strings
            if len(digits) > len(str(PARSE_LETTER_CAP)) or int(digits) > PARSE_LETTER_CAP:
                raise WordParseError(f"exponent exceeds {PARSE_LETTER_CAP}", i)
            exp = -int(digits) if text[i + 1] == "-" else int(digits)
            i = j
        if len(out) + abs(exp) > PARSE_LETTER_CAP:
            raise WordParseError(f"word expands past {PARSE_LETTER_CAP} letters", start)
        if exp >= 0:
            out.extend([x] * exp)
        else:
            out.extend([-x] * -exp)
    return out


def _parse_form_b(text: str, rank: int | None) -> list[int]:
    out: list[int] = []
    for m in re.finditer(r"\S+", text):
        tok = m.group()
        try:
            x = int(tok)
        except ValueError:
            raise WordParseError(f"bad index token {tok!r}", m.start()) from None
        if x == 0:
            raise WordParseError("index 0 is not a letter", m.start())
        if rank is not None and abs(x) > rank:
            raise WordParseError(f"index {x} exceeds rank {rank}", m.start())
        out.append(x)
    return out


def format_word(w: Word, rank: int | None = None) -> str:
    """Canonical text for a word: form A when the rank fits in 26 letters,
    form B otherwise.  Runs of a letter are compressed with ^k in form A.
    The empty word formats as the empty string.
    """
    letters = w.letters
    r = rank
    if r is None:
        r = w.rank_hint if w.rank_hint is not None else w.max_index
    if r <= 26:
        parts = []
        for x, grp in groupby(letters):
            k = sum(1 for _ in grp)
            c = chr(96 + x) if x > 0 else chr(64 - x)
            parts.append(c if k == 1 else f"{c}^{k}")
        return "".join(parts)
    return " ".join(str(x) for x in letters)


def iter_reduced_words(
    rank: int, max_len: int, include_empty: bool = True
) -> Iterator[Word]:
    """All reduced words of length <= max_len, by length then lexicographic
    in the standard letter order.  Deterministic."""
    if rank < 1:
        raise ValueError(f"rank must be >= 1, got {rank}")
    if max_len < 0:
        raise ValueError(f"max_len must be >= 0, got {max_len}")
    alphabet = [s * i for i in range(1, rank + 1) for s in (1, -1)]
    if include_empty:
        yield Word._wrap((), rank)
    frontier: list[tuple[int, ...]] = [()]
    for _ in range(max_len):
        nxt: list[tuple[int, ...]] = []
        for stem in frontier:
            for x in alphabet:
                if stem and stem[-1] == -x:
                    continue
                grown = stem + (x,)
                yield Word._wrap(grown, rank)
                nxt.append(grown)
        frontier = nxt


def count_reduced_words(rank: int, max_len: int) -> int:
    """Number of reduced words of length <= max_len, the empty word included:
    1 + sum over k of 2n (2n-1)^(k-1)."""
    n2 = 2 * rank
    return 1 + sum(n2 * (n2 - 1) ** (k - 1) for k in range(1, max_len + 1))
