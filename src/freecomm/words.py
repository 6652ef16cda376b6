"""Freely reduced words over a ranked generating alphabet.

A word is a tuple of nonzero integers: letter ``+i`` is the i-th generator
(1-based), ``-i`` its inverse.  Construction reduces eagerly, so two words
are equal in the free group exactly when they compare equal as sequences.
Any sequence of nonzero ints is taken as a word, and Word() checks it; a
Word, reduced when built and immutable, passes through Word() unchanged.

Text form uses lowercase letters for generators and uppercase for their
inverses, so ``"aBBa"`` is x·y⁻²·x; ``""`` and ``"1"`` both denote the
identity.  Text is limited to rank 26; the integer encoding is not.

Everything here is immutable and pure.  Exponent arithmetic uses plain
Python integers, so it is exact at any size.
"""

from __future__ import annotations

import math
from typing import Iterable, Optional, Sequence

from .errors import RankMismatchError, WordError, WorkLimitError

__all__ = [
    "EPSILON",
    "Word",
    "abelianize",
    "apply_hom",
    "concat",
    "conjugate",
    "cyclic_split",
    "generator",
    "imprimitivity_certificate",
    "invert",
    "max_generator",
    "nth_root",
    "parse_word",
    "power",
    "reduce",
    "word_to_text",
]


class Word(tuple):
    """A freely reduced word, stored as a tuple of signed letters.

    >>> Word((1, 2, -2, 1))
    Word('aa')
    >>> Word((1, -1))
    Word('1')
    """

    __slots__ = ()

    def __new__(cls, letters: Iterable[int] = ()):
        if type(letters) is cls:  # reduced when built, and immutable
            return letters
        stack: list[int] = []
        for a in letters:
            if type(a) is not int or a == 0:
                raise WordError(f"letters must be nonzero integers, got {a!r}")
            if stack and stack[-1] == -a:
                stack.pop()
            else:
                stack.append(a)
        return tuple.__new__(cls, stack)

    def __mul__(self, other: "Word") -> "Word":
        return concat(self, other)

    def __pow__(self, n: int) -> "Word":
        return power(self, n)

    def inverse(self) -> "Word":
        return invert(self)

    def __repr__(self) -> str:
        if all(abs(a) <= 26 for a in self):
            return f"Word({word_to_text(self)!r})"
        return f"Word({tuple(self)!r})"


EPSILON = Word()


def reduce(letters: Iterable[int], rank: Optional[int] = None) -> Word:
    """Freely reduce a letter sequence; validate indices when rank is given."""
    w = Word(letters)
    if rank is not None:
        _require_rank(w, rank, "word")
    return w


def generator(i: int) -> Word:
    """The length-one word for the i-th generator (i >= 1)."""
    if i < 1:
        raise WordError(f"generator index must be >= 1, got {i}")
    return Word((i,))


def max_generator(w: Sequence[int]) -> int:
    """Largest generator index among w's letters, read as given (0 for none)."""
    return max(map(abs, w), default=0)


def _is_int(x) -> bool:
    """An int and not a bool: JSON true and false load as bools, which are ints."""
    return isinstance(x, int) and not isinstance(x, bool)


def _require_rank(w: Sequence[int], rank: int, noun: str) -> None:
    """Reject w if it uses a generator past rank; noun names w in the error."""
    if max_generator(w) > rank:
        raise RankMismatchError(f"{noun} {_quoted(w)} exceeds rank {rank}")


def concat(u: Word, v: Word) -> Word:
    """Product u·v, freely reduced.

    Two Words are reduced already, so only the seam can cancel; any other
    input takes the validating path.
    """
    if not (isinstance(u, Word) and isinstance(v, Word)):
        return Word(tuple(u) + tuple(v))
    if not u:
        return v
    if not v:
        return u
    k = 0
    m = min(len(u), len(v))
    while k < m and u[-1 - k] == -v[k]:
        k += 1
    return tuple.__new__(Word, u[: len(u) - k] + v[k:] if k else u + v)


def invert(w: Word) -> Word:
    """Inverse word: reversed letters with flipped signs."""
    if not isinstance(w, Word):  # checked before a flip turns True into -1
        w = Word(w)
    return tuple.__new__(Word, [-a for a in reversed(w)])


def cyclic_split(w: Word) -> tuple[Word, Word]:
    """Split w = u⁻¹·c·u, c cyclically reduced, w checked as a Word; returns (u, c)."""
    w = Word(w)
    n, k = len(w), 0
    while n - 2 * k >= 2 and w[k] == -w[n - 1 - k]:
        k += 1
    # the parts of a reduced word are reduced
    return tuple.__new__(Word, w[n - k :]), tuple.__new__(Word, w[k : n - k])


def power(w: Word, n: int) -> Word:
    """w**n for any int n, computed via the cyclically reduced core.

    A result longer than LETTER_LIMIT, read at call time, raises
    WorkLimitError before it is built.
    """
    if not _is_int(n):
        raise WordError(f"exponent must be an int, got {n!r}")
    if n < 0:
        return power(invert(w), -n)
    u, c = cyclic_split(w)
    if n == 0:
        return EPSILON
    _require_letters_under_limit("power", 2 * len(u) + n * len(c))
    return _around(u, tuple(c) * n)


def _around(u: Word, core: tuple) -> Word:
    """u⁻¹·core·u, for (u, c) = cyclic_split(w) and a core that begins and ends as c does.

    c is cyclically reduced, so cⁿ and a prefix of c that c repeats are
    reduced, and so are both seams, as in w: the result is built as it stands.
    """
    return tuple.__new__(Word, tuple(invert(u)) + core + tuple(u))


def conjugate(w: Word, g: Word) -> Word:
    """g⁻¹·w·g; concat cancels at both seams, and checks input that is not a Word."""
    return concat(concat(invert(g), w), g)


def nth_root(w: Word, n: int) -> Optional[Word]:
    """The unique v with v**n == w, or None if none exists; w is checked as a Word.

    Uniqueness holds because free groups have unique roots.  The identity
    has itself as a root for every n, and every word is its own 1st root.

    >>> nth_root(parse_word("Ababaa"), 2)
    Word('Abaa')
    """
    if not _is_int(n):
        raise WordError(f"root exponent must be an int, got {n!r}")
    if n < 1:
        raise WordError(f"root exponent must be >= 1, got {n}")
    u, c = cyclic_split(w)
    if len(c) % n != 0:
        return None
    m = len(c) // n
    piece = tuple(c)[:m]
    if tuple(c) != piece * n:
        return None
    return _around(u, piece)


# The most letters one word map (apply_hom, or commensurator.apply) may
# write: the sum of the lengths of the images it substitutes, before the
# seams cancel; a word joined by _product counts its pieces.  The
# benchmark and a rank-2 chain of restricted automorphisms to index 5,400
# write under 9,000 in a call; composing σ^16 with itself, for the
# automorphism σ: a → ab, b → a, writes 5.7 M, and σ^18 with itself 39 M.
LETTER_LIMIT = 10_000_000


def _require_letters_under_limit(op: str, letters: int) -> None:
    """Refuse op's word of this many letters before it is built, if they
    pass LETTER_LIMIT, read at call time."""
    if letters > LETTER_LIMIT:
        raise WorkLimitError(f"{op}: {letters} letters exceed the letter limit ({LETTER_LIMIT})")


def _substitute(images: Sequence[Word], inverses: list, letters: Sequence[int]) -> Word:
    """The word that images[i-1] spells for each letter ±i of letters.

    inverses[i] caches the inverse of images[i] (None until first used), so
    a caller that keeps the list inverts each image once across its calls.
    Images are reduced (one that is not a Word is checked as one), so only
    a seam can cancel.  Raises WorkLimitError once the letters written pass
    LETTER_LIMIT, read at call time.
    """
    limit = LETTER_LIMIT
    out: list[int] = []
    written = 0
    for a in letters:
        try:
            img = images[a - 1] if a > 0 else inverses[-a - 1]
        except IndexError:
            raise RankMismatchError(
                f"word uses generator {abs(a)} but only {len(images)} images given"
            ) from None
        if img is None:
            img = inverses[-a - 1] = invert(images[-a - 1])
        elif not isinstance(img, Word):
            img = Word(img)
        n = len(img)
        written += n
        if written > limit:
            raise _letter_limit_error(written, len(images), limit)
        k = 0
        while out and k < n and out[-1] == -img[k]:
            out.pop()
            k += 1
        out.extend(img[k:] if k else img)
    return tuple.__new__(Word, out)


def _product(images: Sequence[Word], *pieces: Word) -> Word:
    """The reduced product of reduced pieces, one word that a map on images
    writes.  Concatenation cancels only at the seams.  As in _substitute,
    LETTER_LIMIT, read at call time, holds the letters of the pieces."""
    written, limit = sum(map(len, pieces)), LETTER_LIMIT
    if written > limit:
        raise _letter_limit_error(written, len(images), limit)
    out = EPSILON
    for piece in pieces:
        out = concat(out, piece)
    return out


def _letter_limit_error(written: int, images: int, limit: int) -> WorkLimitError:
    return WorkLimitError(
        f"apply_hom: {written} letters written from {images} images "
        f"exceed the letter limit ({limit})"
    )


def apply_hom(images: Sequence[Word], w: Word) -> Word:
    """Substitute images[i-1] for each letter ±i of w.

    This is the homomorphism from the free group whose rank is
    ``len(images)`` determined by the image list; w is checked as a Word,
    and so is each image it uses.  Raises WorkLimitError once the letters
    written pass LETTER_LIMIT.
    """
    w = Word(w)
    return _substitute(images, [None] * len(images), w)


def abelianize(w: Word, rank: int) -> tuple[int, ...]:
    """Exponent-sum vector of w in Z^rank; w is checked as a Word."""
    w = Word(w)
    if not _is_int(rank):
        raise WordError(f"rank must be an int, got {rank!r}")
    if rank < 0:
        raise WordError(f"rank must be >= 0, got {rank}")
    _require_rank(w, rank, "word")
    vec = [0] * rank
    for a in w:
        vec[abs(a) - 1] += 1 if a > 0 else -1
    return tuple(vec)


def imprimitivity_certificate(w: Word, rank: int) -> Optional[int]:
    """A sound certificate that w is not part of any free basis.

    Returns d > 1 when every exponent sum of w is divisible by d (then w
    cannot be primitive, since a basis element has a unit coordinate in
    some abelianized basis).  Returns None when no conclusion is drawn:
    this check never certifies primitivity, and the zero vector (e.g. any
    commutator) is deliberately inconclusive.
    """
    w = Word(w)
    if not w:
        raise WordError("the identity has no primitivity certificate")
    vec = abelianize(w, rank)
    d = 0
    for entry in vec:
        d = math.gcd(d, entry)
    return d if d > 1 else None


# signed letter -> its character, for the 26 generators that text supports
_TEXT = {s * i: chr(ord(c) + i - 1) for i in range(1, 27) for s, c in ((1, "a"), (-1, "A"))}
_LETTERS = {c: a for a, c in _TEXT.items()}


def parse_word(text: str, rank: Optional[int] = None) -> Word:
    """Parse letter syntax: lowercase = generator, uppercase = inverse.

    >>> parse_word("aBa")
    Word('aBa')
    >>> parse_word("1")
    Word('1')
    """
    text = text.strip()
    if text in ("", "1"):
        return EPSILON
    try:
        letters = [_LETTERS[ch] for ch in text]
    except KeyError as exc:
        raise WordError(f"invalid character {exc.args[0]!r} in word {text!r}") from None
    return reduce(letters, rank)


def word_to_text(w: Word) -> str:
    """Inverse of parse_word, the letters read as given (not reduced); the
    identity prints as "1".  A letter that Word() refuses, or one past the
    26th generator, raises WordError."""
    if type(w) is not Word:  # a Word's letters were checked when it was built
        for a in w:
            if type(a) is not int or a == 0:
                raise WordError(f"letters must be nonzero integers, got {a!r}")
    try:
        return "".join(map(_TEXT.__getitem__, w)) or "1"
    except KeyError:
        raise WordError("text form supports at most 26 generators") from None


def _quoted(w: Word) -> str:
    """w quoted for an error message: letter syntax, or its letters past 26 generators."""
    return repr(word_to_text(w)) if max_generator(w) <= 26 else repr(tuple(w))
