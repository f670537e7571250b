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

A word holds only its letters: the rank belongs to the question asked of
it, and the functions that need one take it as an argument.
``format_word(w, rank)`` emits form A when every index, and the rank if
one is given, fits into the alphabet, and form B otherwise; either way
``parse_word(format_word(w, rank)) == w`` holds.
"""

from __future__ import annotations

import re
from itertools import groupby
from operator import attrgetter
from typing import Iterable, Iterator

PARSE_LETTER_CAP = 1_000_000  # letters one form A text may expand to, before reduction


def letter_key(x: int) -> tuple[int, bool]:
    """Sort key giving the canonical letter order e1 < e1^-1 < e2 < e2^-1 < ..."""
    return (abs(x), x < 0)


def letter_order(rank: int) -> list[int]:
    """The 2n letters in canonical order e1, e1^-1, e2, e2^-1, ..."""
    check_rank((), rank)
    return [s * i for i in range(1, rank + 1) for s in (1, -1)]


def letter_name(x: int) -> str:
    """Display name of a letter, "e3" or "e3^-1"."""
    if not _is_letter(x):
        raise ValueError(f"a letter is a nonzero int, got {x!r}")
    return f"e{x}" if x > 0 else f"e{-x}^-1"


def _is_int(x) -> bool:
    """Whether x is an int.  A bool is an int subclass, and 3.0 == 3, but
    neither is a count, an index or a letter.  The one integer test."""
    return isinstance(x, int) and not isinstance(x, bool)


def _check_int(name: str, value) -> None:
    """Raise ValueError unless value is an int, naming the parameter."""
    if not _is_int(value):
        raise ValueError(f"{name} must be an int, got {value!r}")


def check_rank(letters: Iterable[int], rank: int) -> None:
    """Raise ValueError unless rank is an int >= 1 and every letter fits
    under it."""
    # type() is int first: the common case costs one test on every call
    if type(rank) is not int:
        _check_int("rank", rank)
    if rank < 1:
        raise ValueError(f"rank must be >= 1, got {rank}")
    for x in letters:
        if abs(x) > rank:
            raise ValueError(f"letter {letter_name(x)} exceeds rank {rank}")


def _is_letter(x) -> bool:
    # a nonzero int; type() is int first, as in check_rank
    return (type(x) is int or _is_int(x)) and x != 0


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


class _Record:
    """Base of the package's small value classes, written out by hand so
    that importing the package generates no code.

    The fields are the subclass's ``__slots__``, which its ``__init__``
    sets.  Records compare by value, and only with records of the same
    class; they print as ``Name(field=value, ...)``, pickle and copy
    through the constructor, and are unhashable unless frozen.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        if cls.__slots__:
            cls._values = attrgetter(*cls.__slots__)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == self._values(other)
        return NotImplemented

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self.__slots__)


class _FrozenRecord(_Record):
    """A record that hashes by value and refuses assignment and deletion;
    its ``__init__`` sets the fields with ``object.__setattr__``."""

    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class WordParseError(ValueError):
    """Raised on malformed word text; carries the offending character offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class Word:
    """A freely reduced word.

    The letter sequence is reduced on construction and kept immutable.
    A word carries no rank; ``check_rank`` and ``parse_word(text, rank)``
    check its indices against one.

    >>> Word([1, 2, -2, 3]).letters
    (1, 3)
    >>> str(Word([1, 2, 2, -1]))
    'ab^2A'
    """

    __slots__ = ("letters",)

    def __init__(self, letters: Iterable[int] = ()):
        lets = tuple(letters)
        for x in lets:
            if not _is_letter(x):
                raise ValueError(f"letters must be nonzero integers, got {x!r}")
        self.letters = _reduce_tuple(lets)

    @classmethod
    def _wrap(cls, letters: tuple[int, ...]) -> "Word":
        # trusted constructor for sequences already known to be reduced
        w = object.__new__(cls)
        w.letters = letters
        return w

    @property
    def max_index(self) -> int:
        return max((abs(x) for x in self.letters), default=0)

    @property
    def is_cyclically_reduced(self) -> bool:
        return len(self.letters) < 2 or self.letters[0] != -self.letters[-1]

    def inverse(self) -> "Word":
        return Word._wrap(tuple(-x for x in reversed(self.letters)))

    def cyclic_core(self) -> "Word":
        return Word._wrap(_cyclic_strip(self.letters)[0])

    def __mul__(self, other: "Word") -> "Word":
        if not isinstance(other, Word):
            return NotImplemented
        return Word._wrap(_reduce_tuple(self.letters + other.letters))

    def __invert__(self) -> "Word":
        return self.inverse()

    def __pow__(self, k: int) -> "Word":
        if not _is_int(k):
            return NotImplemented
        base = self.letters if k >= 0 else self.inverse().letters
        return Word._wrap(_reduce_tuple(base * abs(k)))

    def __len__(self) -> int:
        return len(self.letters)

    def __bool__(self) -> bool:
        return bool(self.letters)

    def __iter__(self):
        return iter(self.letters)

    def __getitem__(self, idx):
        if isinstance(idx, slice):
            return Word._wrap(self.letters[idx])
        return self.letters[idx]

    def __eq__(self, other) -> bool:
        return isinstance(other, Word) and self.letters == other.letters

    def __hash__(self) -> int:
        return hash(self.letters)

    def __reduce__(self):
        return type(self), (self.letters,)

    def __str__(self) -> str:
        return format_word(self)

    def __repr__(self) -> str:
        return f"Word({format_word(self)!r})"


def _letters_of(w, what: str) -> tuple[int, ...]:
    """The letters of w; TypeError naming the type of w when it is no
    Word, rather than the AttributeError of reading .letters."""
    if not isinstance(w, Word):
        raise TypeError(f"{what} must be Word, got {type(w).__name__}")
    return w.letters


def word_sort_key(w: Word) -> tuple:
    """Total order on words: by length, then letter by letter."""
    letters = _letters_of(w, "w")
    return (len(letters), tuple(letter_key(x) for x in letters))


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
            self._canon = Word._wrap(canonical_rotation(self.word.letters))
        return self._canon

    def __len__(self) -> int:
        return len(self.word.letters)

    def __eq__(self, other) -> bool:
        if not isinstance(other, CyclicWord):
            return NotImplemented
        return len(self) == len(other) and self.canonical() == other.canonical()

    def __hash__(self) -> int:
        return hash(("cyclic", self.canonical().letters))

    def __reduce__(self):
        return type(self), (self.word,)

    def __str__(self) -> str:
        return format_word(self.word)

    def __repr__(self) -> str:
        return f"CyclicWord({format_word(self.word)!r})"


def canonical_rotation(letters: tuple[int, ...]) -> tuple[int, ...]:
    """Least rotation of a letter sequence under the standard letter order.

    Linear time: two candidate starts i < j race along the doubled
    sequence, and at the first mismatch after k equal letters the larger
    candidate, and the k starts after it, are ruled out.

    >>> canonical_rotation((2, -1, 2))
    (-1, 2, 2)
    """
    n = len(letters)
    # 2|x| + (x < 0) orders letters as letter_key does
    keys = [2 * x if x > 0 else 1 - 2 * x for x in letters] * 2
    i, j, k = 0, 1, 0
    while j < n and k < n:
        a, b = keys[i + k], keys[j + k]
        if a == b:
            k += 1
            continue
        if a > b:
            i += k + 1
        else:
            j += k + 1
        if i == j:
            j += 1
        elif i > j:
            i, j = j, i
        k = 0
    return letters[i:] + letters[:i]


def _gap_key(core: tuple[int, ...]) -> tuple[int, ...]:
    """The least rotation of the gap sequence of a cyclic core.

    Position i holds +g or -g, where g is the cyclic distance back to the
    previous occurrence of the same generator, signed + when it is the
    same letter and - when it is the inverse.  A signed generator
    permutation leaves the sequence unchanged and a rotation of the core
    rotates it.  The back links form one cycle per generator, and the
    signs fix the letters along each cycle up to one sign, so the
    sequence fixes the core up to a signed permutation.  The gaps are
    nonzero ints, which canonical_rotation orders like letters.

    >>> _gap_key((1, 2, -1, 2)), _gap_key((2, -1, -2, -1)), _gap_key((1, 2, 1, 2))
    ((2, -2, 2, -2), (2, -2, 2, -2), (2, 2, 2, 2))
    """
    n = len(core)
    # the last occurrence of each generator, as a negative index, is the
    # previous one of its first occurrence
    last = {abs(x): i - n for i, x in enumerate(core)}
    gaps = []
    for i, x in enumerate(core):
        g = abs(x)
        j = last[g]
        last[g] = i
        gaps.append(i - j if core[j] == x else j - i)
    return canonical_rotation(tuple(gaps))


def _class_key(core: tuple[int, ...]) -> tuple[int, ...]:
    """The name of the symmetry class of a nonempty cyclic core under
    rotation, signed generator permutations and inversion: the lesser of
    the gap keys of the core and of its inverse.

    >>> _class_key((1, 2, 1, -2)) == _class_key((-2, -1, 2, -1))
    True
    """
    return min(_gap_key(core), _gap_key(tuple(-x for x in reversed(core))))


def _commutator_letters(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """The reduced letters of a^-1 b^-1 a b, for the letters of two
    reduced words, which are not checked here."""
    # a^-1 b^-1 is the inverse of b a
    return _reduce_tuple([-x for x in reversed(b + a)] + list(a + b))


def commutator(u: Word, v: Word) -> Word:
    """The commutator u^-1 v^-1 u v, reduced."""
    return Word._wrap(_commutator_letters(_letters_of(u, "u"), _letters_of(v, "v")))


def cyclically_reduce(u: Word) -> tuple[CyclicWord, Word]:
    """Split u as c * core * c^-1 with core cyclically reduced.

    Returns (core as a CyclicWord, the conjugating prefix c).

    >>> core, c = cyclically_reduce(Word([1, 2, 2, -1]))
    >>> core.word.letters, c.letters
    ((2, 2), (1,))
    """
    core, prefix = _cyclic_strip(_letters_of(u, "u"))
    return CyclicWord(Word._wrap(core)), Word._wrap(prefix)


def are_conjugate(u: Word, v: Word) -> bool:
    """Whether u and v are conjugate: equal cyclic cores up to rotation."""
    a, b = _cyclic_strip(_letters_of(u, "u"))[0], _cyclic_strip(_letters_of(v, "v"))[0]
    # rotations of one another exactly when the least rotations agree
    return len(a) == len(b) and canonical_rotation(a) == canonical_rotation(b)


def parse_word(text: str, rank: int | None = None) -> Word:
    """Parse form A or form B word text into a (reduced) Word.

    Form is detected by content: any alphabetic character means form A,
    otherwise the text is split into signed decimal indices.  Malformed
    input and indices above a declared rank raise WordParseError with the
    character position; a declared rank goes through check_rank first.

    >>> parse_word("abbA").letters
    (1, 2, 2, -1)
    >>> parse_word("1 2 2 -1") == parse_word("ab^2A")
    True
    """
    if rank is not None:
        check_rank((), rank)
    if any(c.isalpha() for c in text):
        letters = _parse_form_a(text, rank)
    elif not text.strip():
        letters = []
    else:
        letters = _parse_form_b(text, rank)
    return Word(letters)


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
    """Canonical text for a word: form A when every index, and the rank if
    one is given, fits in 26 letters, form B otherwise.  Runs of a letter
    are compressed with ^k in form A.  The empty word formats as the empty
    string.  A given rank goes through check_rank, but the letters are not
    checked against it.
    """
    letters = _letters_of(w, "w")
    if rank is not None:
        check_rank((), rank)
    if max(w.max_index, rank or 0) <= 26:
        parts = []
        for x, grp in groupby(letters):
            k = sum(1 for _ in grp)
            c = chr(96 + x) if x > 0 else chr(64 - x)
            parts.append(c if k == 1 else f"{c}^{k}")
        return "".join(parts)
    return " ".join(str(x) for x in letters)


def _check_ball(rank: int, max_len: int) -> None:
    """Raise ValueError unless rank is a rank and max_len an int >= 0:
    the ball of reduced words both ball routines take."""
    check_rank((), rank)
    _check_int("max_len", max_len)
    if max_len < 0:
        raise ValueError(f"max_len must be >= 0, got {max_len}")


def iter_reduced_words(
    rank: int, max_len: int, include_empty: bool = True
) -> Iterator[Word]:
    """All reduced words of length <= max_len, by length then lexicographic
    in the standard letter order.  Deterministic and lazy: each length is a
    depth-first walk over its stems with an explicit stack, so memory is
    O(max_len) however large the ball."""
    _check_ball(rank, max_len)
    alphabet = letter_order(rank)
    if include_empty:
        yield Word._wrap(())
    # follow[x]: the one-letter tails that may come after x, in letter order
    follow = {x: [(y,) for y in alphabet if y != -x] for x in alphabet}
    follow[0] = [(y,) for y in alphabet]
    new = object.__new__
    for length in range(1, max_len + 1):
        # (stem, its untried tails) for each stem shorter than length
        stack = [((), iter(follow[0]))]
        while stack:
            stem, untried = stack[-1]
            if len(stem) == length - 1:
                stack.pop()
                for tail in follow[stem[-1] if stem else 0]:
                    # Word._wrap inlined: the call cost a quarter of the loop
                    w = new(Word)
                    w.letters = stem + tail
                    yield w
                continue
            tail = next(untried, None)
            if tail is None:
                stack.pop()
            else:
                stack.append((stem + tail, iter(follow[tail[0]])))


def count_reduced_words(rank: int, max_len: int) -> int:
    """Number of reduced words of length <= max_len, the empty word included:
    1 + sum over k of 2n (2n-1)^(k-1)."""
    _check_ball(rank, max_len)
    n2 = 2 * rank
    return 1 + sum(n2 * (n2 - 1) ** (k - 1) for k in range(1, max_len + 1))
